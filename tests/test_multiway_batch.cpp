// Tests for the uncompressed multiway-trie baseline (paper Fig. 1) and for
// Poptrie's batched lookup extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/multiway.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"

using namespace testhelpers;
using baselines::MultiwayTrie4;
using poptrie::Poptrie4;
using rib::kNoRoute;

TEST(Multiway, EmptyTableMisses)
{
    const rib::RadixTrie<Ipv4Addr> rib;
    const MultiwayTrie4 t{rib};
    EXPECT_EQ(t.lookup(Ipv4Addr{0x01020304}), kNoRoute);
    EXPECT_EQ(t.node_count(), 1u);
}

TEST(Multiway, MatchesRadixOnCornerTable)
{
    const auto routes = corner_case_table();
    const auto rib = load(routes);
    const MultiwayTrie4 t{rib};
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return t.lookup(a); }, 200'000),
              0u);
}

TEST(Multiway, MatchesRadixOnGeneratedTable)
{
    workload::TableGenConfig gen;
    gen.seed = 41;
    gen.target_routes = 40'000;
    gen.next_hops = 25;
    gen.igp_routes = 2'000;
    const auto routes = workload::generate_table(gen);
    const auto rib = load(routes);
    const MultiwayTrie4 t{rib};
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return t.lookup(a); }, 300'000),
              0u);
}

TEST(Multiway, CompressionAblation)
{
    // The whole point of §3.1: on the same table, the uncompressed Fig. 1
    // trie costs an order of magnitude more memory than Poptrie.
    workload::TableGenConfig gen;
    gen.seed = 42;
    gen.target_routes = 30'000;
    const auto rib = load(workload::generate_table(gen));
    const MultiwayTrie4 naive{rib};
    poptrie::Config cfg;
    cfg.direct_bits = 0;
    cfg.route_aggregation = false;
    const Poptrie4 pt{rib, cfg};
    EXPECT_GT(naive.memory_bytes(), pt.stats().memory_bytes * 8);
    // Same node population (both expand the same radix by 6-bit strides).
    EXPECT_EQ(naive.node_count(), pt.stats().internal_nodes);
}

TEST(Multiway, Ipv6)
{
    rib::RadixTrie<netbase::Ipv6Addr> rib;
    rib.insert(*netbase::parse_prefix6("2001:db8::/32"), 1);
    rib.insert(*netbase::parse_prefix6("2001:db8:1::/48"), 2);
    const baselines::MultiwayTrie<netbase::Ipv6Addr> t{rib};
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8:1::7")), 2);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8:2::7")), 1);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db9::7")), kNoRoute);
}

// ---------------------------------------------------------------------------

class PoptrieBatch : public testing::TestWithParam<unsigned> {};

TEST_P(PoptrieBatch, MatchesScalarLookups)
{
    // reader: single-threaded test, no updater exists — the batch lookups
    // below are trivially inside a read-side critical section.
    const psync::EbrReadSection section;
    workload::TableGenConfig gen;
    gen.seed = 43;
    gen.target_routes = 30'000;
    gen.next_hops = 31;
    gen.igp_routes = 1'000;
    const auto rib = load(workload::generate_table(gen));
    poptrie::Config cfg;
    cfg.direct_bits = GetParam();
    const Poptrie4 pt{rib, cfg};

    workload::Xorshift128 rng(6);
    std::vector<std::uint32_t> keys(100'003);
    for (auto& k : keys) k = rng.next();
    std::vector<rib::NextHop> out(keys.size());

    pt.lookup_batch<true>(keys.data(), out.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(out[i], pt.lookup_raw<true>(keys[i])) << i;

    // The same stream split into calls of odd sizes must not change a result.
    std::vector<rib::NextHop> out2(keys.size());
    for (std::size_t i = 0; i < keys.size(); i += 13)
        pt.lookup_batch<true>(keys.data() + i, out2.data() + i,
                              std::min<std::size_t>(13, keys.size() - i));
    EXPECT_EQ(out, out2);
}

INSTANTIATE_TEST_SUITE_P(DirectBits, PoptrieBatch, testing::Values(0u, 16u, 18u),
                         [](const testing::TestParamInfo<unsigned>& info) {
                             return "s" + std::to_string(info.param);
                         });

TEST(PoptrieBatch, EmptyAndTinyInputs)
{
    // reader: single-threaded test, no updater exists.
    const psync::EbrReadSection section;
    const auto rib = load(corner_case_table());
    const Poptrie4 pt{rib};
    std::vector<std::uint32_t> keys{0x0A200501u};
    std::vector<rib::NextHop> out(1, 0xFFFF);
    pt.lookup_batch<true>(keys.data(), out.data(), 0);  // no-op
    EXPECT_EQ(out[0], 0xFFFF);
    pt.lookup_batch<true>(keys.data(), out.data(), 1);  // first key always walks
    EXPECT_EQ(out[0], pt.lookup(Ipv4Addr{keys[0]}));
}

TEST(PoptrieBatch, BasicModeAgrees)
{
    // reader: single-threaded test, no updater exists.
    const psync::EbrReadSection section;
    const auto rib = load(corner_case_table());
    poptrie::Config cfg;
    cfg.leaf_compression = false;
    cfg.route_aggregation = false;
    const Poptrie4 pt{rib, cfg};
    workload::Xorshift128 rng(7);
    std::vector<std::uint32_t> keys(4'099);
    for (auto& k : keys) k = rng.next();
    std::vector<rib::NextHop> out(keys.size());
    pt.lookup_batch<false>(keys.data(), out.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(out[i], pt.lookup_raw<false>(keys[i]));
}

TEST(PoptrieBatch, Ipv6LiveBatchMatchesScalar)
{
    // reader: single-threaded test, no updater exists.
    const psync::EbrReadSection section;
    workload::TableGen6Config gen;
    gen.seed = 5;
    gen.target_routes = 5'000;
    const auto routes = workload::generate_table6(gen);
    rib::RadixTrie<netbase::Ipv6Addr> rib;
    rib.insert_all(routes);
    for (const unsigned s : {0u, 16u, 18u}) {
        poptrie::Config cfg;
        cfg.direct_bits = s;
        const poptrie::Poptrie6 pt{rib, cfg};
        // Every route edge, each issued twice in a row so runs merge too.
        std::vector<netbase::u128> keys;
        for (const auto& r : routes)
            for (const netbase::u128 v :
                 {r.prefix.first_address().value(), r.prefix.last_address().value(),
                  r.prefix.first_address().value() - 1, r.prefix.last_address().value() + 1})
                keys.insert(keys.end(), 2, v);
        std::vector<rib::NextHop> out(keys.size());
        pt.lookup_batch<true>(keys.data(), out.data(), keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(out[i], pt.lookup(netbase::Ipv6Addr{keys[i]}))
                << "s=" << s << " key " << netbase::to_string(netbase::Ipv6Addr{keys[i]});
    }
}

/// Run-merge edge cases of the batch loop. Sentinel-filled outputs catch a
/// merged key that copies from outside its own call.
class PoptrieBatchRuns : public testing::Test {
protected:
    // reader: single-threaded test, no updater exists.
    const psync::EbrReadSection section_;
    const rib::RadixTrie<Ipv4Addr> rib_ = load(corner_case_table());
    const Poptrie4 pt_{rib_};
    // Two keys with different answers: a deep /32 and a direct-step leaf.
    const std::uint32_t a_ = 0x0A200501u;
    const std::uint32_t b_ = 0x30303030u;

    void SetUp() override
    {
        // A merge that copied the wrong answer must be visible.
        ASSERT_NE(pt_.lookup(Ipv4Addr{a_}), pt_.lookup(Ipv4Addr{b_}));
    }

    void expect_matches_scalar(const std::vector<std::uint32_t>& keys,
                               const std::vector<rib::NextHop>& out) const
    {
        ASSERT_EQ(keys.size(), out.size());
        for (std::size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(out[i], pt_.lookup(Ipv4Addr{keys[i]})) << "key #" << i;
    }
};

TEST_F(PoptrieBatchRuns, RunAtIndexZero)
{
    const std::vector<std::uint32_t> keys{a_, a_, a_, b_, a_};
    std::vector<rib::NextHop> out(keys.size(), 0xBEEF);
    pt_.lookup_batch<true>(keys.data(), out.data(), keys.size());
    expect_matches_scalar(keys, out);
}

TEST_F(PoptrieBatchRuns, AllEqualBurst)
{
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{256}}) {
        const std::vector<std::uint32_t> keys(n, a_);
        std::vector<rib::NextHop> out(n, 0xBEEF);
        pt_.lookup_batch<true>(keys.data(), out.data(), n);
        expect_matches_scalar(keys, out);
    }
}

TEST_F(PoptrieBatchRuns, AlternatingKeys)
{
    std::vector<std::uint32_t> keys;
    for (int i = 0; i < 33; ++i) keys.push_back(i % 2 == 0 ? a_ : b_);
    std::vector<rib::NextHop> out(keys.size(), 0xBEEF);
    pt_.lookup_batch<true>(keys.data(), out.data(), keys.size());
    expect_matches_scalar(keys, out);
}

TEST_F(PoptrieBatchRuns, RunSplitAcrossCallsWalksAgain)
{
    // One run of four a_ keys split over two calls. Between the calls the
    // first call's last answer is overwritten with a sentinel: the second
    // call's first key must walk, not copy its predecessor in memory.
    const std::vector<std::uint32_t> keys{a_, a_, a_, a_};
    std::vector<rib::NextHop> out(keys.size(), 0xBEEF);
    pt_.lookup_batch<true>(keys.data(), out.data(), 2);
    out[1] = 0xBEEF;
    pt_.lookup_batch<true>(keys.data() + 2, out.data() + 2, 2);
    EXPECT_EQ(out[2], pt_.lookup(Ipv4Addr{a_}));
    EXPECT_EQ(out[3], pt_.lookup(Ipv4Addr{a_}));
    EXPECT_EQ(out[0], pt_.lookup(Ipv4Addr{a_}));
}
