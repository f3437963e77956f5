"""frontend_clang.py -- the authoritative astcheck frontend: clang JSON AST
dumps over compile_commands.json.

For every translation unit whose main file lives under src/, this runs

    clang++ <original flags> -fsyntax-only -Wno-everything \
            -Xclang -ast-dump=json

and walks the dump to *augment* the builtin models: AST-found constructs
(CXXNewExpr, CXXThrowExpr, banned CallExprs...), precise call edges
(DeclRefExpr -> referencedDecl, resolved across headers within the TU),
shift operators with type-aware operand widths, pool subscripts and
view-accessor index arguments. The
builtin lexical pass still supplies function bodies (HP2's bound prover
reads source text) and hot/exempt annotation discovery -- clang's
AnnotateAttr JSON omits the annotation string in some releases, and the
macro spelling is the repo's source of truth anyway.

Dumps are cached under --cache-dir, keyed by a digest of the clang
version, the compile command, the main file's contents, and a whole-tree
header fingerprint (any header edit invalidates everything -- conservative
but correct, and the common no-header-change CI run reuses every entry).

Clang's JSON quirk: "loc"/"range" objects omit file/line when unchanged
from the previously printed node, so the walker carries them as state.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys

import lintkit
from acmodel import CallSite, Construct, ShiftSite, SubscriptSite
from frontend_builtin import BANNED_CALLS, VIEW_ACCESSORS

TOOL = "astcheck"

POOL_NAMES = ("nodes_", "leaves_", "direct_")


# ---------------------------------------------------------------------------
# compile_commands + caching

def _tu_command(entry):
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry["command"])
    out = []
    skip = False
    for a in argv[1:]:
        if skip:
            skip = False
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
            continue
        if a in ("-c", "-MD", "-MMD", "-MP") or a.startswith("-fdiagnostics"):
            continue
        out.append(a)
    return out


def _clang_binary():
    import shutil

    return shutil.which("clang++") or shutil.which("clang")


def _tree_fingerprint(source_root):
    h = hashlib.sha256()
    for path, rel in lintkit.walk_sources(source_root, ("src",)):
        h.update(rel.encode())
        try:
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
        except OSError:
            pass
    return h.hexdigest()


def _dump_tu(clang, entry, cache_dir, tree_fp):
    args = _tu_command(entry)
    cmd = [clang] + args + ["-fsyntax-only", "-Wno-everything", "-Xclang", "-ast-dump=json"]
    key = hashlib.sha256()
    key.update("\0".join(cmd).encode())
    key.update(tree_fp.encode())
    try:
        with open(os.path.join(entry.get("directory", "."), entry["file"]), "rb") as f:
            key.update(f.read())
    except OSError:
        pass
    digest = key.hexdigest()
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cached = os.path.join(cache_dir, digest + ".json.gz")
        if os.path.isfile(cached):
            with gzip.open(cached, "rt", encoding="utf-8") as f:
                return json.load(f)
    proc = subprocess.run(
        cmd, cwd=entry.get("directory", "."), capture_output=True, text=True, check=False
    )
    if proc.returncode != 0 or not proc.stdout:
        print(f"{TOOL}: clang AST dump failed for {entry['file']}:\n{proc.stderr[:2000]}", file=sys.stderr)
        return None
    data = json.loads(proc.stdout)
    if cache_dir:
        tmp = cached + ".tmp"
        with gzip.open(tmp, "wt", encoding="utf-8") as f:
            json.dump(data, f)
        os.replace(tmp, cached)
    return data


# ---------------------------------------------------------------------------
# AST walk

_WIDTH_HINTS = (
    (re.compile(r"__int128|_BitInt\(128\)|u128"), 128),
    (re.compile(r"uint64|int64|\blong\b|size_t|size_type|uintptr"), 64),
    (re.compile(r"uint32|int32|\bint\b|unsigned|uint\b"), 32),
    (re.compile(r"uint16|int16|short"), 16),
    (re.compile(r"uint8|int8|\bchar\b"), 8),
)


def _type_width(qual_type):
    for rx, w in _WIDTH_HINTS:
        if rx.search(qual_type or ""):
            return w
    return 64


class _Walker:
    """Carries clang's elided file/line state and collects per-file sites."""

    def __init__(self, source_root):
        self.source_root = os.path.abspath(source_root)
        self.cur_file = ""
        self.cur_line = 0
        self.sites = {}  # abs file -> {"constructs": [...], "calls": [...], ...}
        self.fn_stack = []  # (abs_file, name) of enclosing FunctionDecl-ish
        self._text_cache = {}

    # -- location bookkeeping

    def _update_loc(self, loc):
        if not isinstance(loc, dict):
            return
        for key in ("expansionLoc", "spellingLoc"):
            if key in loc:
                self._update_loc(loc[key])
                return
        if "file" in loc:
            self.cur_file = loc["file"]
        if "line" in loc:
            self.cur_line = loc["line"]

    def _in_tree(self):
        f = os.path.abspath(self.cur_file) if self.cur_file else ""
        return f.startswith(os.path.join(self.source_root, "src") + os.sep), f

    def _bucket(self, f):
        return self.sites.setdefault(
            f, {"constructs": [], "calls": [], "shifts": [], "subscripts": []}
        )

    def _src_slice(self, node):
        """Source text for a node's range, best effort."""
        rng = node.get("range")
        if not isinstance(rng, dict):
            return ""
        b, e = rng.get("begin", {}), rng.get("end", {})
        for key in ("expansionLoc", "spellingLoc"):
            if key in b:
                b = b[key]
            if key in e:
                e = e[key]
        off, eoff = b.get("offset"), e.get("offset")
        if off is None or eoff is None:
            return ""
        f = os.path.abspath(self.cur_file) if self.cur_file else ""
        text = self._text_cache.get(f)
        if text is None:
            try:
                with open(f, encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
            except OSError:
                text = ""
            self._text_cache[f] = text
        return text[off: eoff + e.get("tokLen", 0)]

    # -- node handlers

    def walk(self, node):
        if not isinstance(node, dict):
            return
        self._update_loc(node.get("loc", {}))
        rng = node.get("range")
        if isinstance(rng, dict):
            self._update_loc(rng.get("begin", {}))
        kind = node.get("kind", "")
        in_tree, f = self._in_tree()
        line = self.cur_line

        pushed = False
        if kind in (
            "FunctionDecl",
            "CXXMethodDecl",
            "CXXConstructorDecl",
            "CXXDestructorDecl",
            "CXXConversionDecl",
        ) and any(c.get("kind") == "CompoundStmt" for c in node.get("inner", []) if isinstance(c, dict)):
            self.fn_stack.append((f, node.get("name", "")))
            pushed = True
        elif in_tree and self.fn_stack:
            if kind == "CXXNewExpr":
                self._bucket(f)["constructs"].append(
                    Construct("alloc", line, "new", "heap allocation (new expression)")
                )
            elif kind == "CXXDeleteExpr":
                self._bucket(f)["constructs"].append(
                    Construct("alloc", line, "delete", "heap release (delete expression)")
                )
            elif kind == "CXXThrowExpr":
                self._bucket(f)["constructs"].append(
                    Construct("throw", line, "throw", "throwing construct")
                )
            elif kind in ("CallExpr", "CXXMemberCallExpr", "CXXOperatorCallExpr"):
                name = self._callee_name(node)
                if name:
                    self._bucket(f)["calls"].append(CallSite(name, line))
                    if name in BANNED_CALLS:
                        k, why = BANNED_CALLS[name]
                        self._bucket(f)["constructs"].append(Construct(k, line, name + "()", why))
                    if name in VIEW_ACCESSORS:
                        # inner[0] is the callee; inner[1] the index argument.
                        inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
                        idx_text = self._src_slice(inner[1]).strip() if len(inner) >= 2 else ""
                        if idx_text:
                            self._bucket(f)["subscripts"].append(
                                SubscriptSite(line, name + "()", idx_text)
                            )
            elif kind in ("BinaryOperator", "CompoundAssignOperator") and node.get("opcode") in (
                "<<", ">>", "<<=", ">>=",
            ):
                inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
                if len(inner) == 2:
                    width = _type_width(node.get("type", {}).get("qualType", ""))
                    count = self._src_slice(inner[1]).strip()
                    if count and "<<" not in count and ">>" not in count:
                        self._bucket(f)["shifts"].append(
                            ShiftSite(line, node["opcode"], count, width)
                        )
            elif kind == "ArraySubscriptExpr":
                base = self._subscript_pool(node)
                if base:
                    inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
                    idx_text = self._src_slice(inner[1]).strip() if len(inner) == 2 else ""
                    self._bucket(f)["subscripts"].append(SubscriptSite(line, base, idx_text))

        for child in node.get("inner", []) or []:
            self.walk(child)
        if pushed:
            self.fn_stack.pop()

    @staticmethod
    def _callee_name(node):
        def find(n):
            if not isinstance(n, dict):
                return None
            k = n.get("kind")
            if k == "DeclRefExpr":
                return (n.get("referencedDecl") or {}).get("name")
            if k == "MemberExpr":
                name = n.get("name") or n.get("member")
                if name:
                    return name
            for c in n.get("inner", []) or []:
                got = find(c)
                if got:
                    return got
            return None

        inner = node.get("inner", []) or []
        return find(inner[0]) if inner else None

    @staticmethod
    def _subscript_pool(node):
        def find(n, depth=0):
            if not isinstance(n, dict) or depth > 4:
                return None
            if n.get("kind") == "MemberExpr":
                name = n.get("name") or n.get("member") or ""
                if name in POOL_NAMES:
                    return name
            for c in n.get("inner", []) or []:
                got = find(c, depth + 1)
                if got:
                    return got
            return None

        inner = node.get("inner", []) or []
        return find(inner[0]) if inner else None


# ---------------------------------------------------------------------------

def augment(models, compile_commands, cache_dir, source_root):
    """Adds clang-found sites to the builtin models in place. Returns False
    on an environment/scan error (reported), True otherwise."""
    if not os.path.isfile(compile_commands):
        print(
            f"{TOOL}: compile_commands.json not found at {compile_commands}; configure "
            "with `cmake -B build -S .` (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default) "
            "or pass --compile-commands",
            file=sys.stderr,
        )
        return False
    clang = _clang_binary()
    if clang is None:
        print(f"{TOOL}: clang frontend requested but no clang/clang++ on PATH", file=sys.stderr)
        return False
    with open(compile_commands, encoding="utf-8") as f:
        entries = json.load(f)
    root = os.path.abspath(source_root)
    src_prefix = os.path.join(root, "src") + os.sep
    tus = []
    for e in entries:
        main = os.path.abspath(os.path.join(e.get("directory", "."), e["file"]))
        if main.startswith(src_prefix):
            tus.append(e)
    if not tus:
        print(f"{TOOL}: no src/ translation units in {compile_commands}", file=sys.stderr)
        return False
    tree_fp = _tree_fingerprint(source_root)
    walker = _Walker(source_root)
    for e in tus:
        data = _dump_tu(clang, e, cache_dir, tree_fp)
        if data is None:
            return False
        walker.walk(data)
    _merge(models, walker.sites, root)
    return True


def _merge(models, sites, root):
    """Folds clang sites into the builtin FileModels: a clang site lands in
    the function whose line range contains it; duplicates (same line + same
    token/op) are dropped -- the builtin pass already saw those."""
    by_abs = {os.path.abspath(m.path): m for m in models}
    for f, buckets in sites.items():
        fm = by_abs.get(f)
        if fm is None:
            continue
        for fn in fm.functions:
            lo, hi = fn.body_open, fn.end_line
            for c in buckets["constructs"]:
                if lo <= c.line <= hi and not any(
                    x.line == c.line and x.token == c.token for x in fn.constructs
                ):
                    fn.constructs.append(c)
            for c in buckets["calls"]:
                if lo <= c.line <= hi and not any(
                    x.line == c.line and x.name == c.name for x in fn.calls
                ):
                    fn.calls.append(c)
            for s in buckets["shifts"]:
                if lo <= s.line <= hi:
                    match = [x for x in fn.shifts if x.line == s.line and x.op.startswith(s.op[:2])]
                    if match:
                        for x in match:
                            x.width = s.width  # clang knows the operand type
                    else:
                        fn.shifts.append(s)
            for s in buckets["subscripts"]:
                if lo <= s.line <= hi and not any(
                    x.line == s.line and x.array == s.array for x in fn.subscripts
                ):
                    fn.subscripts.append(s)
