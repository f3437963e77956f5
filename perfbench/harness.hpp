// perfbench/harness.hpp — the benchmark's own logic, kept free of threads
// and I/O so test_harness.cpp can pin it down: tail summaries with their
// sample counts, the trace closure check, the RIB oracle, input hashing and
// the CPU plan.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchkit/stats.hpp"

namespace perfbench {

/// A timing reported the way the benchmark reports every timing: median,
/// p99 and the sample count both were computed from.
struct Summary {
    double p50 = 0;
    double p99 = 0;
    std::size_t n = 0;
};

/// True when the q-th percentile of n samples has at least `min_beyond`
/// samples above it — the highest percentile a sample supports. p99 needs
/// n >= 1000, p99.9 needs n >= 10000.
[[nodiscard]] constexpr bool percentile_supported(double q, std::size_t n,
                                                  std::size_t min_beyond = 10) noexcept
{
    // The epsilon absorbs rounding in 1 - q/100 (99.9 is not exact).
    return static_cast<double>(n) * (100.0 - q) / 100.0 >=
           static_cast<double>(min_beyond) - 1e-9;
}

/// p50/p99 over `samples` (interpolated between closest ranks, as
/// benchkit::Percentiles does everywhere else in the repo).
[[nodiscard]] inline Summary summarize(std::vector<std::uint64_t> samples)
{
    const benchkit::Percentiles p(std::move(samples));
    return {p.percentile(50), p.percentile(99), p.count()};
}

/// Trace closure: how far the per-burst spans (guard enter+exit, the lookup
/// call, and the gap between one burst's guard exit and the next one's
/// entry) fall short of, or overshoot, the worker's wall time.
[[nodiscard]] inline double closure_err(double guard_ns, double lookup_ns, double gap_ns,
                                        double wall_ns)
{
    if (wall_ns <= 0) throw std::invalid_argument("closure_err: wall time must be positive");
    return std::abs(guard_ns + lookup_ns + gap_ns - wall_ns) / wall_ns;
}

/// Outcome of comparing the FIB against the RIB on a key set.
struct OracleResult {
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    std::uint32_t first_bad_key = 0;
};

/// Compares fib(key) with rib(key) for every key. Each disagreement is one
/// failed operation.
template <class FibLookup, class RibLookup>
[[nodiscard]] OracleResult oracle_check(const std::vector<std::uint32_t>& keys,
                                        FibLookup&& fib, RibLookup&& rib)
{
    OracleResult r;
    for (const auto key : keys) {
        ++r.checked;
        if (fib(key) != rib(key)) {
            if (r.mismatches == 0) r.first_bad_key = key;
            ++r.mismatches;
        }
    }
    return r;
}

/// FNV-1a over the raw bytes of trivially copyable values: the input hash a
/// run prints so two runs can prove they saw the same table, traffic and feed.
class Fnv64 {
public:
    template <class T>
    void add(const T& v) noexcept
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001B3ull;
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Where each thread of a run is pinned. Workers are pinned by the
/// Dataplane itself as cpu_offset + i, so they need two adjacent CPUs.
struct CpuPlan {
    unsigned producer = 0;
    unsigned worker_offset = 0;
    unsigned updater = 0;  ///< meaningful only when the workload has one
};

/// Chooses distinct CPUs from `allowed` (the affinity mask, ascending):
/// producer first, then two adjacent worker CPUs, then the updater, so the
/// producer never shares a core with a worker. Throws std::runtime_error
/// naming the shortfall when the mask is too small.
[[nodiscard]] inline CpuPlan plan_cpus(const std::vector<unsigned>& allowed, unsigned workers,
                                       bool updater)
{
    const unsigned needed = 1 + workers + (updater ? 1 : 0);
    if (allowed.size() < needed)
        throw std::runtime_error("needs " + std::to_string(needed) +
                                 " CPUs (producer + " + std::to_string(workers) +
                                 " workers" + (updater ? " + updater" : "") + "), only " +
                                 std::to_string(allowed.size()) + " available");
    CpuPlan plan;
    std::vector<unsigned> rest(allowed.begin() + 1, allowed.end());
    plan.producer = allowed.front();
    for (std::size_t i = 0; i + workers <= rest.size(); ++i) {
        if (rest[i + workers - 1] - rest[i] != workers - 1) continue;
        plan.worker_offset = rest[i];
        rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i),
                   rest.begin() + static_cast<std::ptrdiff_t>(i + workers));
        if (updater) plan.updater = rest.front();
        return plan;
    }
    throw std::runtime_error("needs " + std::to_string(workers) +
                             " adjacent CPUs for the forwarding workers");
}

}  // namespace perfbench
