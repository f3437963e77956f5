"""acmodel.py -- the shared source model both astcheck front-ends produce.

The builtin frontend (frontend_builtin.py) fills this model from a lexical
function-scope parse; the clang frontend (frontend_clang.py) augments the
same model with AST-precise sites from `clang -Xclang -ast-dump=json`.
The rules (acrules.py) only ever see this model, so HP1/HP2/HP3 behave
identically under either frontend -- clang just *finds more* and resolves
calls across translation units.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CallSite:
    """A call expression inside a function body. `name` is the unqualified
    callee name (member and namespace qualifiers stripped); resolution to a
    definition happens in the rules against the per-file (builtin) or
    per-TU (clang) function index."""

    name: str
    line: int


@dataclass
class Construct:
    """A hot-path-banned construct (HP1): heap allocation, lock, throw,
    syscall, or iostream. `kind` is the rule bucket, `token` the matched
    source text, `why` a short human explanation used in the finding."""

    kind: str  # "alloc" | "lock" | "throw" | "syscall" | "io"
    line: int
    token: str
    why: str


@dataclass
class ShiftSite:
    """A `<<`/`>>`/`<<=`/`>>=` whose count operand must be proven
    `< operand width` (HP2). `count` is the extracted count expression
    text; `width` the operand bit-width when the frontend could tell
    (clang knows the type; the builtin frontend guesses 64)."""

    line: int
    op: str
    count: str
    width: int = 64


@dataclass
class SubscriptSite:
    """An index into one of the Poptrie pools (HP3): a subscript
    `nodes_[...]`, `leaves_[...]`, `direct_[...]` (array = the pool name),
    or the index argument of a lookup-walk view accessor such as
    `view.node_vector(...)` (array = the accessor name plus "()").
    `index` is the index expression text."""

    line: int
    array: str
    index: str


@dataclass
class FunctionInfo:
    """One function definition with everything the rules need."""

    name: str
    line: int  # line of the head (first head line)
    body_open: int = 0  # line of the opening brace
    end_line: int = 0  # line of the closing brace
    hot: bool = False  # carries poptrie::hot (POPTRIE_HOT)
    exempt: bool = False  # carries poptrie::hot_exempt
    exempt_justified: bool = False  # hot-exempt: comment present
    head: str = ""  # joined head text (code only)
    body: list = field(default_factory=list)  # [(lineno, code_text)]
    calls: list = field(default_factory=list)  # [CallSite]
    constructs: list = field(default_factory=list)  # [Construct]
    shifts: list = field(default_factory=list)  # [ShiftSite]
    subscripts: list = field(default_factory=list)  # [SubscriptSite]

    def body_text(self):
        return "\n".join(t for _ln, t in self.body)


@dataclass
class FileModel:
    """One parsed source file: its functions plus the file-level comment
    lines (index = lineno-1) used for escape-hatch windows, and any shifts
    found outside function bodies (namespace-scope constants)."""

    path: str
    rel: str
    functions: list = field(default_factory=list)  # [FunctionInfo]
    comments: list = field(default_factory=list)  # parallel comment lines
    code: list = field(default_factory=list)  # stripped code lines
    toplevel_shifts: list = field(default_factory=list)  # [ShiftSite]

    def function_index(self):
        """name -> [FunctionInfo] for same-file call resolution."""
        idx = {}
        for fn in self.functions:
            idx.setdefault(fn.name, []).append(fn)
        return idx
