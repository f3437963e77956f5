// poptrie/config.hpp — build-time options and observable statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "alloc/arena.hpp"
#include "rib/route.hpp"

namespace poptrie {

/// Options controlling how a Poptrie is compiled. The defaults correspond to
/// the paper's best configuration ("Poptrie18": leafvec + route aggregation +
/// direct pointing with s = 18).
struct Config {
    /// §3.4 direct pointing parameter `s`: the most significant s bits index
    /// a 2^s top-level array. 0 disables direct pointing ("Poptrie0").
    unsigned direct_bits = 18;

    /// §3.3 leaf compression with the `leafvec` bit vector. When false the
    /// structure is the paper's "basic" Poptrie: one leaf slot per zero bit
    /// of `vector`, and lookup counts zeros in `vector` instead.
    bool leaf_compression = true;

    /// §3 route aggregation: compress the RIB's route set (identical-next-hop
    /// subtree merging + redundant-route removal) before building the FIB.
    bool route_aggregation = true;

    /// Initial pool capacity in nodes/leaves is the built size times
    /// 2^pool_headroom_log2, so incremental updates rarely need to grow the
    /// pools (growing is not safe under concurrent lookups; see Poptrie docs).
    unsigned pool_headroom_log2 = 1;

    /// Page backing for the node/leaf/direct arrays (alloc/arena.hpp):
    /// kAuto advises THP, kOn demands MAP_HUGETLB (with graceful fallback),
    /// kOff measures on plain pages. The backing actually obtained is
    /// reported by Poptrie::memory_report().
    alloc::HugepagePolicy hugepages = alloc::HugepagePolicy::kAuto;
};

// --- compile-time invariants of the structure's layout ---------------------
//
// The node layout (64-bit vector/leafvec), the 2-byte leaf model of §3.3, and
// the direct-pointing slot packing of §3.4 are all stated as static_asserts
// here so a drive-by change to a type or constant fails at compile time with
// the paper reference in hand, not at lookup time. tools/astcheck's HP2 rule
// accepts `// shift-ok:` justifications that cite valid_config() below.

/// Bits consumed per trie level (k in the paper). Poptrie::kStride mirrors
/// this; a static_assert there keeps the two in lock step.
inline constexpr unsigned kStrideBits = 6;

/// Upper bound valid_config() puts on Config::direct_bits. The direct array
/// stores `kDirectLeafBit | value` in uint32 slots, so internal-node indices
/// must stay below 2^31; capping s at 30 also caps the array itself at 2^30
/// slots (4 GiB), far above the paper's s = 18 sweet spot.
inline constexpr unsigned kMaxDirectBits = 30;

/// Upper bound valid_config() puts on Config::pool_headroom_log2. Headroom
/// multiplies the built pool size by 2^log2; 16 (65536x) is already absurd,
/// and the cap keeps every `size << pool_headroom_log2` on a 64-bit operand
/// trivially in range.
inline constexpr unsigned kMaxPoolHeadroomLog2 = 16;

static_assert((std::uint64_t{1} << kStrideBits) == 64,
              "Node::vector/leafvec are std::uint64_t with one bit per child: "
              "the stride must be exactly 64-ary (k = 6, §3.1)");
static_assert(std::is_same_v<rib::NextHop, std::uint16_t>,
              "the paper's 2-byte leaf model (§3.3, Table 2) and the direct-slot "
              "packing kDirectLeafBit | next_hop assume 16-bit next hops");
static_assert(kMaxDirectBits < 31,
              "direct slots are uint32 with the MSB reserved as kDirectLeafBit; "
              "2^direct_bits slot indices must stay below bit 31");
static_assert(kMaxPoolHeadroomLog2 < 32,
              "pool sizes are 32-bit buddy-allocator capacities; larger headroom "
              "shifts could not produce a representable target");

/// Validity of a Config for an address of `width` bits. Both Poptrie
/// constructors assert this (via build_from) before touching the RIB, so
/// everything downstream — the builder, the incremental updater, the
/// compactor — may rely on these bounds:
///   * direct_bits == 0 (direct pointing off) or 1 <= direct_bits < width,
///     and direct_bits <= kMaxDirectBits (< 64, so `1 << direct_bits` on a
///     64-bit operand is well defined);
///   * pool_headroom_log2 <= kMaxPoolHeadroomLog2 (< 64, likewise).
[[nodiscard]] constexpr bool valid_config(const Config& cfg, unsigned width) noexcept
{
    const bool direct_ok =
        cfg.direct_bits == 0 || (cfg.direct_bits < width && cfg.direct_bits <= kMaxDirectBits);
    return direct_ok && cfg.pool_headroom_log2 <= kMaxPoolHeadroomLog2;
}

/// Size and shape statistics, matching the columns of Table 2.
struct Stats {
    std::size_t internal_nodes = 0;  ///< "# of inodes"
    std::size_t leaves = 0;          ///< "# of leaves"
    std::size_t direct_slots = 0;    ///< 2^s (0 when direct pointing is off)

    /// Paper-style analytic footprint: inodes x (24 or 16 in basic mode)
    /// + leaves x 2 + direct slots x 4 bytes.
    std::size_t memory_bytes = 0;

    /// Actual bytes reserved by the node/leaf pools and the direct array
    /// (includes buddy-allocator headroom).
    std::size_t allocated_bytes = 0;

    /// Buddy-allocator slots currently handed out (power-of-two rounded).
    /// After withdrawing every route and draining reclamation these return
    /// to the empty-table baseline — the tests use them as a leak check.
    std::size_t node_pool_used = 0;
    std::size_t leaf_pool_used = 0;

    /// Fragmentation signals (per pool): how many blocks sit on the buddy
    /// free lists, the largest run still allocatable, and the high-water
    /// mark (one past the highest slot ever handed out). A fresh or
    /// freshly-compacted pool has few free blocks and a high-water close to
    /// the live size; a long churn feed scatters both.
    std::size_t node_free_blocks = 0;
    std::size_t leaf_free_blocks = 0;
    std::size_t node_largest_free_run = 0;
    std::size_t leaf_largest_free_run = 0;
    std::size_t node_high_water = 0;
    std::size_t leaf_high_water = 0;
};

}  // namespace poptrie
