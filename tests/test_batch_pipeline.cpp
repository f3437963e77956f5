// tests/test_batch_pipeline.cpp — the batch lookup loop (batch::lookup_many
// in poptrie/lookup_walk.ipp; DESIGN.md §12) behind Poptrie::lookup_batch,
// SnapshotFib::lookup_batch and the dataplane engines.
//
// The contract under test: every batch entry point — the live trie's
// lookup_batch and a snapshot image's lookup_batch — returns results
// bit-identical to the scalar lookup() on every table shape and burst size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dataplane/engines.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/route.hpp"
#include "router/router.hpp"
#include "snapshot/snapshot.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"
#include "workload/xorshift.hpp"

namespace {

using netbase::Ipv4Addr;
using poptrie::Poptrie4;
using rib::NextHop;

/// Keys that exercise every structural corner of corner_case_table():
/// direct-step leaves, deep /32 chains, defaults, boundary addresses.
std::vector<std::uint32_t> probe_keys(const rib::RouteList<Ipv4Addr>& routes,
                                      std::size_t n_random, std::uint64_t seed = 99)
{
    std::vector<std::uint32_t> keys;
    for (const auto& r : routes) {
        const auto lo = r.prefix.first_address().value();
        const auto hi = r.prefix.last_address().value();
        keys.push_back(lo);
        keys.push_back(hi);
        keys.push_back(lo - 1);
        keys.push_back(hi + 1);
    }
    workload::Xorshift128 rng(seed);
    for (std::size_t i = 0; i < n_random; ++i) keys.push_back(rng.next());
    return keys;
}

/// The two batch entry points over `keys`: the live trie's lookup_batch and
/// a snapshot image's. The extra sentinel slot catches a write past n.
std::vector<NextHop> live_batch(const Poptrie4& fib, const std::vector<std::uint32_t>& keys)
{
    std::vector<NextHop> got(keys.size() + 1, 0xBEEF);
    {
        // reader: single-threaded test, no concurrent updater exists.
        const psync::EbrReadSection section;
        if (fib.config().leaf_compression)
            fib.lookup_batch<true>(keys.data(), got.data(), keys.size());
        else
            fib.lookup_batch<false>(keys.data(), got.data(), keys.size());
    }
    return got;
}

std::vector<NextHop> snapshot_batch(const Poptrie4& fib, const std::vector<std::uint32_t>& keys)
{
    std::vector<std::uint8_t> image;
    {
        // quiescent: single-threaded test, no readers or writer exist.
        const psync::QuiescentSection q;
        image = snapshot::serialize(fib);
    }
    const auto snap = snapshot::SnapshotFib4::load_buffer(image.data(), image.size());
    std::vector<NextHop> got(keys.size() + 1, 0xBEEF);
    snap.lookup_batch(keys.data(), got.data(), keys.size());
    return got;
}

/// Runs both batch entry points over `keys` and compares every result with
/// the scalar lookup() (itself validated against the radix oracle by
/// test_poptrie_lookup).
void expect_batch_matches_scalar(const Poptrie4& fib, const std::vector<std::uint32_t>& keys)
{
    for (const bool snap : {false, true}) {
        const auto got = snap ? snapshot_batch(fib, keys) : live_batch(fib, keys);
        for (std::size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]}))
                << (snap ? "snapshot" : "live") << " key #" << i << " = " << keys[i];
        EXPECT_EQ(got[keys.size()], 0xBEEF) << "wrote past n";
    }
}

poptrie::Config cfg_default()
{
    return {};
}
poptrie::Config cfg_no_direct()
{
    poptrie::Config c;
    c.direct_bits = 0;
    return c;
}
poptrie::Config cfg_basic()
{
    poptrie::Config c;
    c.leaf_compression = false;
    c.route_aggregation = false;
    return c;
}

TEST(BatchPipeline, AllPathsMatchScalarOnCornerTable)
{
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const auto keys = probe_keys(routes, 4096);
    for (const auto& cfg : {cfg_default(), cfg_no_direct(), cfg_basic()}) {
        const Poptrie4 fib(rib, cfg);
        expect_batch_matches_scalar(fib, keys);
    }
}

TEST(BatchPipeline, AllPathsMatchScalarOnGeneratedTable)
{
    workload::TableGenConfig tcfg;
    tcfg.target_routes = 20'000;
    tcfg.igp_routes = 2'000;
    const auto routes = workload::generate_table(tcfg);
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    std::vector<std::uint32_t> keys;
    workload::Xorshift128 rng(7);
    for (int i = 0; i < 8192; ++i) keys.push_back(rng.next());
    expect_batch_matches_scalar(fib, keys);
}

TEST(BatchPipeline, BurstSizesIncludingEmptyAndNonMultiples)
{
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const auto all_keys = probe_keys(routes, 64);
    // 0, 1, 2, odd primes, powers of two and their neighbours, and a long
    // burst: first-key and loop-bound off-by-ones live at these sizes.
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{7}, std::size_t{8}, std::size_t{9},
                                std::size_t{13}, std::size_t{31}, std::size_t{32},
                                std::size_t{33}, std::size_t{100}}) {
        ASSERT_LE(n, all_keys.size());
        const std::vector<std::uint32_t> keys(all_keys.begin(),
                                              all_keys.begin() + static_cast<long>(n));
        expect_batch_matches_scalar(fib, keys);
    }
}

TEST(BatchPipeline, EmptyTableEveryPath)
{
    // An empty FIB has an *empty node pool* under direct pointing: every
    // key must resolve at the direct step (or the empty root) without
    // reading a node that does not exist.
    for (const auto& cfg : {cfg_default(), cfg_no_direct()}) {
        const Poptrie4 fib(cfg);
        std::vector<std::uint32_t> keys;
        workload::Xorshift128 rng(3);
        for (int i = 0; i < 256; ++i) keys.push_back(rng.next());
        for (const bool snap : {false, true}) {
            const auto got = snap ? snapshot_batch(fib, keys) : live_batch(fib, keys);
            for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(got[i], rib::kNoRoute);
        }
    }
}

TEST(BatchPipeline, AllDefaultRouteTable)
{
    rib::RouteList<Ipv4Addr> routes{{*netbase::parse_prefix4("0.0.0.0/0"), 42}};
    const auto rib = testhelpers::load(routes);
    for (const auto& cfg : {cfg_default(), cfg_no_direct(), cfg_basic()}) {
        const Poptrie4 fib(rib, cfg);
        std::vector<std::uint32_t> keys;
        workload::Xorshift128 rng(5);
        for (int i = 0; i < 333; ++i) keys.push_back(rng.next());
        for (const bool snap : {false, true}) {
            const auto got = snap ? snapshot_batch(fib, keys) : live_batch(fib, keys);
            for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(got[i], 42);
        }
    }
}

TEST(BatchPipeline, OutOfOrderLaneRetirement)
{
    // One burst whose keys resolve at maximally different depths: a /32
    // chain, a shallow route and a direct-step leaf, interleaved, so no key
    // merges with its neighbour and every answer comes from its own walk.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const std::uint32_t deep = netbase::parse_prefix4("10.32.5.193/32")->first_address().value();
    const std::uint32_t shallow = netbase::parse_prefix4("200.0.0.0/30")->first_address().value();
    const std::uint32_t direct_leaf = 0x30303030;  // 48.x: default route via direct slot
    std::vector<std::uint32_t> keys;
    for (int i = 0; i < 32; ++i)
        keys.push_back(i % 2 == 0 ? deep : (i % 4 == 1 ? shallow : direct_leaf));
    expect_batch_matches_scalar(fib, keys);
}

TEST(BatchPipeline, PoptrieLookupBatchBurstWidths)
{
    // The dataplane hands lookup_batch bursts of any width, and a run of
    // equal keys may straddle two bursts. Splitting one stream into calls
    // of 8, 16 or 32 keys must not change any result.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    std::vector<std::uint32_t> keys;
    const auto probes = probe_keys(routes, 500);
    for (std::size_t i = 0; i < probes.size(); ++i)
        keys.insert(keys.end(), 1 + i % 5, probes[i]);
    // reader: single-threaded test, no concurrent updater exists.
    const psync::EbrReadSection section;
    for (const std::size_t width : {std::size_t{8}, std::size_t{16}, std::size_t{32}}) {
        std::vector<NextHop> got(keys.size());
        for (std::size_t i = 0; i < keys.size(); i += width)
            fib.lookup_batch<true>(keys.data() + i, got.data() + i,
                                   std::min(width, keys.size() - i));
        for (std::size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]})) << "width " << width << " #" << i;
    }
}

TEST(BatchPipeline, SnapshotFibServesEveryUsablePath)
{
    // The snapshot image's scalar and batch lookups, for both leaf modes,
    // agree with the live trie it was written from.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const auto keys = probe_keys(routes, 1024);
    for (const auto& cfg : {cfg_default(), cfg_basic()}) {
        const Poptrie4 fib(rib, cfg);
        std::vector<std::uint8_t> image;
        {
            // quiescent: single-threaded test, no readers or writer exist.
            const psync::QuiescentSection q;
            image = snapshot::serialize(fib);
        }
        const auto snap = snapshot::SnapshotFib4::load_buffer(image.data(), image.size());
        std::vector<NextHop> got(keys.size());
        snap.lookup_batch(keys.data(), got.data(), keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]})) << "batch key " << keys[i];
            ASSERT_EQ(snap.lookup(Ipv4Addr{keys[i]}), got[i]) << "scalar key " << keys[i];
        }
    }
}

TEST(BatchPipeline, SnapshotEngineMatchesPoptrieEngine)
{
    const auto routes = testhelpers::corner_case_table();
    router::Router4 router;
    for (const auto& r : routes)
        router.add_route(r.prefix,
                         {netbase::Ipv4Addr{0x0A000000u + r.next_hop}, "eth0"});
    const auto keys = probe_keys(routes, 512);
    std::vector<NextHop> want(keys.size());
    {
        dataplane::PoptrieEngine base(router);
        auto reader = base.make_reader();
        const dataplane::EbrReader::Guard guard(reader);
        base.lookup_batch(keys.data(), want.data(), keys.size());
    }
    std::vector<std::uint8_t> image;
    {
        // quiescent: single-threaded test, no readers or writer exist.
        const psync::QuiescentSection q;
        image = snapshot::serialize(router.fib());
    }
    const auto snap = snapshot::SnapshotFib4::load_buffer(image.data(), image.size());
    const dataplane::SnapshotEngine eng(snap);
    auto reader = eng.make_reader();
    const dataplane::NullReader::Guard guard(reader);
    std::vector<NextHop> got(keys.size());
    eng.lookup_batch(keys.data(), got.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(got[i], want[i]);
}

}  // namespace
