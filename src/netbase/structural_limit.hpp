// netbase/structural_limit.hpp — the repo-wide "table does not fit the
// encoding" exception.
//
// Historically this lived in baselines/dxr.hpp because DXR's 19-bit range
// index was the first structural ceiling the repo modelled (§4.8). The
// million-route scale-out gave the core structure ceilings of its own: pool
// slot indices are 32-bit and a direct slot reserves the MSB as a tag
// (kDirectLeafBit), so a table whose node or leaf pool would cross 2^31 slots
// must be *rejected*, not silently wrapped. That makes the exception a base-layer
// concept: it now lives here, one include below both the baselines and the
// allocator/builder, and baselines re-export it under their old name so the
// ~20 existing catch sites keep compiling unchanged.
#pragma once

#include <stdexcept>

namespace netbase {

/// Thrown when a table exceeds a structure's encoding limits (DXR range
/// index width, SAIL chunk-id width, Poptrie's 31-bit pool index space, ...).
/// Carries a human-readable reason.
class StructuralLimit : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

}  // namespace netbase
