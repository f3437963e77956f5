// perfbench/test_harness.cpp — tests of the benchmark's own logic: tail
// summaries and their sample counts, the trace closure, the RIB oracle, the
// CPU plan, input hashing, and the traced engine against the plain one.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dataplane/churn.hpp"
#include "harness.hpp"
#include "router/router.hpp"
#include "trace.hpp"
#include "workload/tablegen.hpp"
#include "workload/xorshift.hpp"

namespace {

using perfbench::closure_err;
using perfbench::percentile_supported;

TEST(Summary, PercentileNeedsTenSamplesBeyondIt)
{
    EXPECT_FALSE(percentile_supported(99, 999));
    EXPECT_TRUE(percentile_supported(99, 1000));
    EXPECT_TRUE(percentile_supported(50, 20));
    EXPECT_FALSE(percentile_supported(50, 19));
    EXPECT_FALSE(percentile_supported(99.9, 9'999));
    EXPECT_TRUE(percentile_supported(99.9, 10'000));
}

TEST(Summary, MedianAndP99WithCount)
{
    std::vector<std::uint64_t> samples;
    for (std::uint64_t v = 100; v >= 1; --v) samples.push_back(v);  // order must not matter
    const auto s = perfbench::summarize(samples);
    EXPECT_EQ(s.n, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 50.5);
    EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(Summary, EmptyIsZeroWithCountZero)
{
    const auto s = perfbench::summarize({});
    EXPECT_EQ(s.n, 0u);
    EXPECT_EQ(s.p50, 0);
    EXPECT_EQ(s.p99, 0);
}

TEST(Closure, ExactSumIsZeroAndShortfallIsItsShare)
{
    EXPECT_DOUBLE_EQ(closure_err(100, 800, 100, 1000), 0.0);
    EXPECT_DOUBLE_EQ(closure_err(100, 750, 100, 1000), 0.05);
    EXPECT_DOUBLE_EQ(closure_err(100, 850, 100, 1000), 0.05);  // overshoot counts too
    EXPECT_THROW((void)closure_err(1, 1, 1, 0), std::invalid_argument);
}

TEST(Closure, WorkerTraceCoversEverythingButTheCallSlivers)
{
    // One worker, three bursts on a synthetic clock: each burst is
    // gap 40, enter 5, sliver 1, lookup 100, sliver 1, exit 5.
    perfbench::WorkerTrace t(0x100);
    std::int64_t clock = 1000;
    t.created_ns = t.last_exit_ns = clock;
    for (int b = 0; b < 3; ++b) {
        clock += 40;
        t.enter0 = clock;
        t.enter1 = clock += 5;
        t.lookup0 = clock += 1;
        t.lookup1 = clock += 100;
        const std::int64_t exit0 = clock += 1;
        t.on_exit(exit0, clock += 5);
    }
    clock += 40;  // idle tail before the worker exits
    t.finish(clock);
    EXPECT_EQ(t.bursts, 3u);
    EXPECT_EQ(t.guard_ns, 30);
    EXPECT_EQ(t.lookup_ns, 300);
    EXPECT_EQ(t.gap_ns, 160);
    EXPECT_EQ(t.wall_ns(), 3 * 152 + 40);
    EXPECT_NEAR(closure_err(30, 300, 160, static_cast<double>(t.wall_ns())), 6.0 / 496, 1e-12);
}

TEST(Oracle, CatchesAnInjectedWrongAnswer)
{
    const std::vector<std::uint32_t> keys{1, 2, 3, 4, 5, 6};
    const auto rib = [](std::uint32_t k) { return static_cast<std::uint16_t>(k % 3); };
    const auto ok = perfbench::oracle_check(keys, rib, rib);
    EXPECT_EQ(ok.checked, 6u);
    EXPECT_EQ(ok.mismatches, 0u);
    const auto bad = perfbench::oracle_check(
        keys, [&](std::uint32_t k) { return k == 4 ? std::uint16_t{9} : rib(k); }, rib);
    EXPECT_EQ(bad.checked, 6u);
    EXPECT_EQ(bad.mismatches, 1u);
    EXPECT_EQ(bad.first_bad_key, 4u);
}

TEST(CpuPlan, ProducerNeverSharesAWorkerCore)
{
    const auto p = perfbench::plan_cpus({0, 1, 2, 3}, 2, true);
    EXPECT_EQ(p.producer, 0u);
    EXPECT_EQ(p.worker_offset, 1u);
    EXPECT_EQ(p.updater, 3u);
    const auto gaps = perfbench::plan_cpus({0, 2, 4, 5}, 2, true);
    EXPECT_EQ(gaps.producer, 0u);
    EXPECT_EQ(gaps.worker_offset, 4u);
    EXPECT_EQ(gaps.updater, 2u);
    EXPECT_NO_THROW((void)perfbench::plan_cpus({0, 1, 2}, 2, false));
}

TEST(CpuPlan, RefusesTooFewCpus)
{
    EXPECT_THROW((void)perfbench::plan_cpus({0, 1, 2}, 2, true), std::runtime_error);
    EXPECT_THROW((void)perfbench::plan_cpus({0, 1}, 2, false), std::runtime_error);
    EXPECT_THROW((void)perfbench::plan_cpus({0, 2, 4, 6}, 2, true), std::runtime_error);
}

TEST(Fnv64, SeparatesInputsAndStartsAtTheOffsetBasis)
{
    perfbench::Fnv64 a, b, c;
    EXPECT_EQ(a.value(), 0xCBF29CE484222325ull);
    a.add(std::uint32_t{1});
    b.add(std::uint32_t{2});
    c.add(std::uint32_t{1});
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(a.value(), c.value());
}

TEST(SpanLog, BoundedSampleExactAggregates)
{
    perfbench::SpanLog log(7, 100);
    for (int i = 0; i < 10'000; ++i) log.add("x", i, i + 2);
    EXPECT_EQ(log.spans().size(), 100u);
    const auto& a = log.aggregates().at("x");
    EXPECT_EQ(a.count, 10'000u);
    EXPECT_EQ(a.total_ns, 20'000);
    EXPECT_EQ(a.max_ns, 2);
    EXPECT_EQ(log.spans().front().id >> 40, 7u);
}

TEST(TracedEngine, SameAnswersAsPoptrieEngineAndCountsTheBurst)
{
    router::Router4 router;
    workload::ScaledTableConfig cfg;
    cfg.target_routes = 5'000;
    dataplane::load_routes(router, workload::generate_scaled_table(cfg));
    workload::Xorshift128 rng(3);
    std::vector<std::uint32_t> keys(256);
    for (auto& k : keys) k = rng.next();

    perfbench::WorkerTraces traces;
    const dataplane::PoptrieEngine plain{router};
    const perfbench::TracedEngine traced{plain, traces};
    std::vector<rib::NextHop> out(keys.size());
    {
        perfbench::TracedReader reader = traced.make_reader();
        const perfbench::TracedReader::Guard guard{reader};
        traced.lookup_batch(keys.data(), out.data(), keys.size());
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(out[i], router.lookup_index(netbase::Ipv4Addr{keys[i]})) << i;
    ASSERT_EQ(traces.all().size(), 1u);
    const auto& t = *traces.all().front();
    EXPECT_EQ(t.bursts, 1u);
    EXPECT_EQ(t.keys, keys.size());
    EXPECT_GT(t.lookup_ns, 0);
    EXPECT_LE(t.guard_ns + t.lookup_ns + t.gap_ns, t.wall_ns());
}

}  // namespace
