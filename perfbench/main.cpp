// perfbench/main.cpp — the repo benchmark: seeded workloads driven through
// the serving path lpmd runs (Router4 -> Dataplane<PoptrieEngine> -> SPSC
// rings -> EBR guard -> Poptrie::lookup_batch), with an oracle check against
// the RIB at the quiescent end of every run. README.md in this directory
// explains the workloads and maps every layer metric to the end-to-end
// metric it should move.
//
//   perfbench --workload spread-1m|trace-tier1|churn-tier1 --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --smoke [--inject-mismatch]
//
// The last stdout line is one JSON object: correct, attempted, failed, and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 correct, 1 a failed check, 2 a usage or environment error.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "benchkit/stats.hpp"
#include "dataplane/churn.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/engines.hpp"
#include "dataplane/worker_pool.hpp"
#include "harness.hpp"
#include "rib/radix_trie.hpp"
#include "router/router.hpp"
#include "sync/annotations.hpp"
#include "sync/counters.hpp"
#include "trace.hpp"
#include "workload/datasets.hpp"
#include "workload/tablegen.hpp"
#include "workload/trafficgen.hpp"
#include "workload/updatefeed.hpp"
#include "workload/xorshift.hpp"

namespace {

using netbase::Ipv4Addr;
using perfbench::now_ns;
using perfbench::SpanLog;

// --- fixed benchmark parameters ------------------------------------------

constexpr unsigned kWorkers = 2;
constexpr unsigned kDirectBits = 18;
constexpr std::size_t kBurst = 256;              // producer chunk = worker burst
constexpr double kUpdateRate = 20'000;           // open-loop feed, events/s
constexpr unsigned kChurnHeadroomLog2 = 6;       // as lpmd builds for churn
constexpr std::int64_t kIntervalNs = 100'000'000;  // fwd_mlps sampling interval
constexpr double kClosureTolerance = 0.05;
constexpr std::size_t kLatencyReservoir = 1 << 14;

enum class Kind { kSpread, kTrace, kChurn };

struct Workload {
    std::string_view name;
    Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"spread-1m", Kind::kSpread},
    {"trace-tier1", Kind::kTrace},
    {"churn-tier1", Kind::kChurn},
};

/// Input sizes and run phases. The smoke sizes keep every code path but
/// shrink the tables so all three workloads finish in seconds.
struct Sizes {
    std::size_t spread_routes = 1'000'000;
    std::size_t spread_keys = std::size_t{1} << 22;
    std::size_t tier1_routes = 0;  // 0 = the REAL-Tier1-A spec as is
    std::size_t trace_distinct = 644'790;
    std::size_t trace_packets = 4'000'000;
    std::size_t probe_events = 4'000;  // per round, quiescent feed on non-churn workloads
    std::size_t oracle_keys = std::size_t{1} << 17;
    std::size_t level_keys = std::size_t{1} << 16;
    unsigned rounds = 5;  // fresh set-ups, each with its own timed window
    double warmup_s = 0.3;
};

Sizes smoke_sizes()
{
    Sizes s;
    s.spread_routes = 60'000;
    s.spread_keys = std::size_t{1} << 16;
    s.tier1_routes = 40'000;
    s.trace_distinct = 20'000;
    s.trace_packets = 200'000;
    s.probe_events = 1'000;
    s.oracle_keys = std::size_t{1} << 14;
    s.level_keys = std::size_t{1} << 12;
    s.rounds = 2;
    s.warmup_s = 0.05;
    return s;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool inject_mismatch = false;
    std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload spread-1m|trace-tier1|churn-tier1 --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       perfbench --smoke [--inject-mismatch]\n",
                 msg.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage_error("missing value for " + std::string(a));
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(value());
            } else if (a == "--seconds") {
                o.seconds = std::stod(value());
            } else if (a == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (a == "--trace-out") {
                o.trace_out = value();
            } else if (a == "--smoke") {
                o.smoke = true;
            } else if (a == "--inject-mismatch") {
                o.inject_mismatch = true;
            } else {
                usage_error("unknown argument " + std::string(a));
            }
        } catch (const std::logic_error&) {  // stoull/stod on a malformed number
            usage_error("malformed value for " + std::string(a));
        }
    }
    if (!o.smoke && !have_workload) usage_error("--workload is required");
    if (!(o.seconds > 0 && o.seconds <= 600)) usage_error("--seconds must be in (0, 600]");
    return o;
}

// --- output ----------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Metrics {
public:
    void add(std::string name, double value, std::string unit)
    {
        if (!std::isfinite(value))
            throw std::logic_error("metric " + name + " is not finite");
        items_.push_back({std::move(name), value, std::move(unit)});
    }
    [[nodiscard]] std::string json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < items_.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
            out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + items_[i].unit + "\"}";
        }
        return out + "}";
    }

private:
    std::vector<Metric> items_;
};

double ns_to_us(double ns) { return ns / 1e3; }
double safe_div(double a, double b) { return b == 0 ? 0 : a / b; }

// --- inputs ------------------------------------------------------------------

struct Inputs {
    rib::RouteList<Ipv4Addr> routes;
    std::vector<std::uint32_t> keys;
    std::vector<std::vector<workload::UpdateEvent>> feeds;  // one per round
    double gen_s = 0;
};

std::uint32_t host_mask(unsigned len) { return len == 0 ? ~0u : (len >= 32 ? 0u : ~0u >> len); }

/// One address inside `p`, host bits drawn from `rng`.
std::uint32_t address_in(const netbase::Prefix<Ipv4Addr>& p, workload::Xorshift128& rng)
{
    return p.bits() | (rng.next() & host_mask(p.length()));
}

/// spread-1m traffic: a uniformly chosen route plus uniform host bits, no
/// popularity skew and no key equal to its predecessor.
std::vector<std::uint32_t> spread_keys(const rib::RouteList<Ipv4Addr>& routes, std::size_t n,
                                       std::uint64_t seed)
{
    workload::Xorshift128 rng(seed ^ 0x5B5EADull);
    std::vector<std::uint32_t> keys;
    keys.reserve(n);
    while (keys.size() < n) {
        const auto& r = routes[rng.next_below(static_cast<std::uint32_t>(routes.size()))];
        const std::uint32_t k = address_in(r.prefix, rng);
        if (keys.empty() || keys.back() != k) keys.push_back(k);
    }
    return keys;
}

Inputs generate(Kind kind, std::uint64_t seed, const Sizes& sz, double round_s)
{
    const std::int64_t t0 = now_ns();
    Inputs in;
    if (kind == Kind::kSpread) {
        in.routes = workload::generate_scaled_table(
            {.seed = seed, .target_routes = sz.spread_routes, .next_hops = 100});
        in.keys = spread_keys(in.routes, sz.spread_keys, seed);
    } else {
        auto spec = workload::real_tier1_a();
        spec.config.seed = workload::mix64(seed ^ spec.config.seed);
        if (sz.tier1_routes != 0) {
            spec.config.target_routes = sz.tier1_routes;
            spec.config.igp_routes = std::min(spec.config.igp_routes, sz.tier1_routes / 10);
        }
        in.routes = workload::make_table(spec);
        rib::RadixTrie<Ipv4Addr> rib;
        rib.insert_all(in.routes);
        in.keys = workload::make_real_trace_like(
            rib, {.seed = seed + 7,
                  .distinct_destinations = sz.trace_distinct,
                  .packets = sz.trace_packets});
    }
    // Each round starts from the freshly loaded table and replays its own
    // feed: churn-tier1 while forwarding (sized so the updater cannot run
    // dry before the window ends), the others as a fixed-length probe after
    // forwarding stops.
    const std::size_t updates =
        kind == Kind::kChurn
            ? static_cast<std::size_t>(std::ceil(kUpdateRate * round_s * 1.25)) + 256
            : sz.probe_events;
    for (unsigned k = 0; k < sz.rounds; ++k)
        in.feeds.push_back(workload::make_update_feed(
            in.routes, {.seed = seed + 11 + 1000 * k, .updates = updates}));
    in.gen_s = static_cast<double>(now_ns() - t0) / 1e9;
    return in;
}

struct InputHashes {
    std::uint64_t table, traffic, feed;
};

InputHashes hash_inputs(const Inputs& in)
{
    perfbench::Fnv64 t, k, f;
    for (const auto& r : in.routes) {
        t.add(r.prefix.bits());
        t.add(r.prefix.length());
        t.add(r.next_hop);
    }
    for (const auto key : in.keys) k.add(key);
    for (const auto& feed : in.feeds)
        for (const auto& e : feed) {
            f.add(e.prefix.bits());
            f.add(e.prefix.length());
            f.add(e.next_hop);
        }
    return {t.value(), k.value(), f.value()};
}

/// Share of keys equal to their predecessor: what destination-run merging
/// can exploit.
double repeat_frac(const std::vector<std::uint32_t>& keys)
{
    std::size_t repeats = 0;
    for (std::size_t i = 1; i < keys.size(); ++i) repeats += keys[i] == keys[i - 1] ? 1 : 0;
    return safe_div(static_cast<double>(repeats), static_cast<double>(keys.size()));
}

// --- CPU placement -----------------------------------------------------------

std::vector<unsigned> allowed_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<unsigned> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
    for (unsigned c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
    return cpus;
}

// --- forwarding --------------------------------------------------------------

/// What the producer saw in one timed window.
struct Window {
    std::vector<double> interval_mlps;
    std::uint64_t offered = 0;
    std::uint64_t refused = 0;
    std::int64_t offer_ns = 0;
    std::vector<std::uint64_t> burst_ns;  // the latency reservoir's samples
};

/// The saturating producer: offers pre-materialized keys whenever the rings
/// accept them (a refused offer is back-pressure and is retried), and
/// samples the workers' completed-lookup count every kIntervalNs.
template <bool Traced, class DP>
void produce(DP& dp, const std::vector<std::uint32_t>& keys, std::size_t& pos, double seconds,
             Window& w, SpanLog* log)
{
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t tick_start = start;
    std::uint64_t tick_lookups = dp.stats().lookups();
    std::uint64_t calls = 0;
    for (;;) {
        const std::int64_t t = now_ns();
        if (t - tick_start >= kIntervalNs || t >= end) {
            const std::uint64_t l = dp.stats().lookups();
            w.interval_mlps.push_back(static_cast<double>(l - tick_lookups) * 1e3 /
                                      static_cast<double>(t - tick_start));
            tick_lookups = l;
            tick_start = t;
            if (t >= end) break;
        }
        const std::size_t n = std::min(kBurst, keys.size() - pos);
        std::size_t accepted;
        if constexpr (Traced) {
            const std::int64_t o0 = now_ns();
            accepted = dp.offer(keys.data() + pos, n);
            const std::int64_t o1 = now_ns();
            w.offer_ns += o1 - o0;
            if (calls % perfbench::WorkerTrace::kBurstSampleStride == 0)
                log->sample({"dataplane.offer", o0, o1, log->next_id(), 0});
        } else {
            accepted = dp.offer(keys.data() + pos, n);
        }
        ++calls;
        w.offered += n;
        w.refused += n - accepted;
        pos += accepted;
        if (pos == keys.size()) pos = 0;
    }
}

/// Runs one timed window on a fresh Dataplane over `engine` (so the latency
/// reservoir holds this window's bursts only).
template <bool Traced, class Engine>
Window run_window(Engine engine, const dataplane::DataplaneConfig& dcfg,
                  const std::vector<std::uint32_t>& keys, std::size_t& pos, double seconds,
                  SpanLog* log)
{
    Window w;
    dataplane::Dataplane<Engine> dp{std::move(engine), dcfg};
    dp.start();
    produce<Traced>(dp, keys, pos, seconds, w, log);
    dp.stop();
    // quiescent: stop() joined every worker of this Dataplane.
    const psync::QuiescentSection quiescent;
    w.burst_ns = dp.merged_latency().samples();
    return w;
}

// --- updates -----------------------------------------------------------------

struct UpdateLog {
    std::vector<std::uint64_t> latency_ns;  // due time -> Router call returned
    std::vector<std::uint64_t> service_ns;  // inside add_route / remove_route
    std::int64_t late_max_ns = 0;           // how far the updater ran behind
    std::uint64_t failed = 0;
    std::size_t applied = 0;
};

/// Open-loop replay: event i is due at start + i/kUpdateRate, whether or not
/// the previous one has finished. The updater spins to its due time (it owns
/// its core), so the measured latency is service time plus any backlog.
void replay(router::Router4& router, const std::vector<workload::UpdateEvent>& feed,
            const psync::StopFlag& stop, UpdateLog& log, SpanLog* spans)
{
    log.latency_ns.reserve(feed.size());
    log.service_ns.reserve(feed.size());
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < feed.size(); ++i) {
        const auto due = start + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                                           kUpdateRate);
        while (now_ns() < due)
            if (stop.requested()) return;
        if (stop.requested()) return;
        const auto& ev = feed[i];
        const std::int64_t s = now_ns();
        try {
            if (ev.next_hop == rib::kNoRoute)
                (void)router.remove_route(ev.prefix);
            else
                router.add_route(ev.prefix, dataplane::ChurnRunner::adjacency_for(ev.next_hop));
        } catch (const std::exception& e) {
            if (log.failed == 0)
                std::fprintf(stderr, "perfbench: update failed: %s\n", e.what());
            ++log.failed;
        }
        const std::int64_t e = now_ns();
        log.latency_ns.push_back(static_cast<std::uint64_t>(e - due));
        log.service_ns.push_back(static_cast<std::uint64_t>(e - s));
        log.late_max_ns = std::max(log.late_max_ns, s - due);
        ++log.applied;
        if (spans != nullptr) spans->add("router.update", s, e);
    }
}

/// The churn writer thread, pinned to its own CPU. Joined on every path.
class Updater {
public:
    Updater(router::Router4& router, const std::vector<workload::UpdateEvent>& feed,
            unsigned cpu, UpdateLog& log, SpanLog* spans)
        : thread_([&router, &feed, cpu, &log, spans, this] {
              if (!dataplane::pin_current_thread(cpu))
                  std::fprintf(stderr, "perfbench: could not pin the updater to CPU %u\n", cpu);
              replay(router, feed, stop_, log, spans);
          })
    {
    }
    ~Updater() { finish(); }
    Updater(const Updater&) = delete;
    Updater& operator=(const Updater&) = delete;

    void finish()
    {
        stop_.request();
        if (thread_.joinable()) thread_.join();
    }

private:
    psync::StopFlag stop_;
    std::thread thread_;
};

// --- per-level lookup cost ---------------------------------------------------

/// Trie levels past the direct step for a key whose binary radix depth is
/// `depth`: 0 when the direct slot answers, else one node per 6-bit stride.
unsigned levels_for_depth(unsigned depth)
{
    return depth <= kDirectBits ? 0 : (depth - kDirectBits + 5) / 6;
}

/// Keeps the timed lookups' results observable.
volatile rib::NextHop g_sink = 0;

/// Single-thread ns/key of the live trie's lookup_batch over `keys`
/// (median of five timed passes of at least 20 ms each).
double lookup_ns_per_key(router::Router4& router, const std::vector<std::uint32_t>& keys)
{
    if (keys.empty()) return 0;
    std::vector<std::uint32_t> buf;
    while (buf.size() < 4096)
        buf.insert(buf.end(), keys.begin(),
                   keys.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(keys.size(), 4096 - buf.size())));
    std::vector<rib::NextHop> out(kBurst);
    const dataplane::PoptrieEngine engine{router};
    auto reader = engine.make_reader();
    std::vector<double> passes;
    for (int p = 0; p < 5; ++p) {
        std::uint64_t done = 0;
        const std::int64_t t0 = now_ns();
        std::int64_t t1 = t0;
        while (t1 - t0 < 20'000'000) {
            for (std::size_t i = 0; i < buf.size(); i += kBurst) {
                const dataplane::EbrReader::Guard guard{reader};
                engine.lookup_batch(buf.data() + i, out.data(), kBurst);
                g_sink = out[0];
            }
            done += buf.size();
            t1 = now_ns();
        }
        passes.push_back(static_cast<double>(t1 - t0) / static_cast<double>(done));
    }
    return benchkit::median(passes);
}

// --- one workload run --------------------------------------------------------

struct Result {
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
};

void fail_check(Result& r, const std::string& why)
{
    std::printf("perfbench: CHECK FAILED: %s\n", why.c_str());
    r.correct = false;
}

using UpdateCounters = poptrie::Poptrie<Ipv4Addr>::UpdateCounters;

/// One round: a fresh set-up (timed), an untimed warm-up, the timed
/// window(s) with the update feed, drain, and the oracle check.
struct Round {
    double setup_s = 0, load_s = 0, reserve_ms = 0, start_ms = 0, drain_ms = 0;
    Window untraced, traced;
    UpdateLog updates;
    perfbench::OracleResult oracle;
    UpdateCounters delta;  // update_counters() change after set-up
    poptrie::Stats built, after;
};

/// Traffic properties and per-level lookup cost, from a sample of keys
/// classified by the RIB's binary radix depth (the trace-mode extras).
struct Levels {
    double direct_frac = 0, mean_levels = 0, model_loads = 0;
    std::array<double, 4> ns{};
    std::array<std::size_t, 4> n{};
};

Levels measure_levels(router::Router4& router, const std::vector<std::uint32_t>& keys,
                      std::size_t samples, std::uint64_t seed)
{
    Levels lv;
    std::array<std::vector<std::uint32_t>, 4> by_level;
    workload::Xorshift128 rng(seed ^ 0x1E7E1ull);
    for (std::size_t i = 0; i < samples; ++i) {
        const std::uint32_t key = keys[rng.next_below(static_cast<std::uint32_t>(keys.size()))];
        const unsigned depth = router.rib().lookup_detail(Ipv4Addr{key}).radix_depth;
        const unsigned levels = levels_for_depth(depth);
        by_level[std::min(levels, 3u)].push_back(key);
        lv.direct_frac += depth <= kDirectBits ? 1 : 0;
        lv.mean_levels += levels;
        // CRAM-lens load count: the direct slot, one per node visited, and
        // the leaf (which the direct slot itself holds at level 0).
        lv.model_loads += 1 + levels + (levels > 0 ? 1 : 0);
    }
    const auto n = static_cast<double>(samples);
    lv.direct_frac /= n;
    lv.mean_levels /= n;
    lv.model_loads /= n;
    for (unsigned l = 0; l < 4; ++l) {
        lv.n[l] = by_level[l].size();
        lv.ns[l] = lookup_ns_per_key(router, by_level[l]);
    }
    return lv;
}

template <class F>
double median_of(const std::vector<Round>& rounds, F&& f)
{
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(f(r));
    return benchkit::median(v);
}

Result run_workload(const Workload& wl, const Options& o, const Sizes& sz,
                    const std::vector<unsigned>& cpus)
{
    const bool churn = wl.kind == Kind::kChurn;
    const perfbench::CpuPlan plan = perfbench::plan_cpus(cpus, kWorkers, churn);
    if (!dataplane::pin_current_thread(plan.producer))
        throw std::runtime_error("could not pin the producer to CPU " +
                                 std::to_string(plan.producer));

    const double round_s = o.seconds / sz.rounds;
    const Inputs in = generate(wl.kind, o.seed, sz, round_s);
    const InputHashes h = hash_inputs(in);
    std::printf("perfbench: workload %s seed %llu: table %016llx (%zu routes) traffic %016llx "
                "(%zu keys) feed %016llx (%zu x %zu events), generated in %.2f s\n",
                std::string(wl.name).c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(h.table), in.routes.size(),
                static_cast<unsigned long long>(h.traffic), in.keys.size(),
                static_cast<unsigned long long>(h.feed), in.feeds.size(),
                in.feeds.front().size(), in.gen_s);

    // The oracle's traffic sample is the same in every round.
    std::vector<std::uint32_t> sampled_keys;
    {
        workload::Xorshift128 rng(o.seed ^ 0x0AC1Eull);
        for (std::size_t i = 0; i < sz.oracle_keys; ++i)
            sampled_keys.push_back(
                in.keys[rng.next_below(static_cast<std::uint32_t>(in.keys.size()))]);
    }

    SpanLog main_log(1);
    SpanLog updater_log(2);
    SpanLog* const mlog = o.trace ? &main_log : nullptr;
    perfbench::WorkerTraces traces;

    poptrie::Config pcfg;
    pcfg.direct_bits = kDirectBits;
    if (churn) pcfg.pool_headroom_log2 = kChurnHeadroomLog2;
    dataplane::DataplaneConfig dcfg;
    dcfg.workers = kWorkers;
    dcfg.burst = kBurst;
    dcfg.pin_cpus = true;
    dcfg.cpu_offset = plan.worker_offset;
    dcfg.latency_reservoir = kLatencyReservoir;

    std::vector<Round> rounds(sz.rounds);
    Levels levels;
    std::size_t pos = 0;
    for (unsigned k = 0; k < sz.rounds; ++k) {
        Round& rd = rounds[k];
        // --- set-up: route list in hand -> forwarding-ready ------------------
        const std::int64_t t0 = now_ns();
        auto router = std::make_unique<router::Router4>(pcfg);
        dataplane::load_routes(*router, in.routes);
        const std::int64_t t1 = now_ns();
        if (churn) {
            // quiescent: no forwarding or update thread exists yet.
            const psync::QuiescentSection quiescent;
            router->reserve_fib_headroom();
        }
        const std::int64_t t2 = now_ns();
        auto dp = std::make_unique<dataplane::Dataplane<dataplane::PoptrieEngine>>(
            dataplane::PoptrieEngine{*router}, dcfg);
        dp->start();
        const std::int64_t t3 = now_ns();
        rd.setup_s = static_cast<double>(t3 - t0) / 1e9;
        rd.load_s = static_cast<double>(t1 - t0) / 1e9;
        rd.reserve_ms = static_cast<double>(t2 - t1) / 1e6;
        rd.start_ms = static_cast<double>(t3 - t2) / 1e6;
        if (mlog != nullptr) {
            const auto root = mlog->add("setup", t0, t3);
            mlog->add("router.load", t0, t1, root);
            if (churn) mlog->add("poptrie.reserve", t1, t2, root);
            mlog->add("dataplane.start", t2, t3, root);
        }
        rd.built = router->fib().stats();
        const UpdateCounters before = router->fib().update_counters();

        if (o.trace && k == 0) {
            dp->stop();  // the level pass runs alone on this CPU
            levels = measure_levels(*router, in.keys, sz.level_keys, o.seed);
            dp->start();
        }

        // --- untimed warm-up on the set-up pipeline ---------------------------
        {
            Window warm;
            produce<false>(*dp, in.keys, pos, sz.warmup_s, warm, nullptr);
            dp.reset();
        }

        // --- timed forwarding, with the churn writer alongside --------------
        {
            std::unique_ptr<Updater> updater;
            if (churn)
                updater = std::make_unique<Updater>(*router, in.feeds[k], plan.updater,
                                                    rd.updates,
                                                    o.trace ? &updater_log : nullptr);
            const dataplane::PoptrieEngine engine{*router};
            if (!o.trace) {
                rd.untraced = run_window<false>(engine, dcfg, in.keys, pos, round_s, nullptr);
            } else {
                rd.untraced =
                    run_window<false>(engine, dcfg, in.keys, pos, round_s / 2, nullptr);
                rd.traced = run_window<true>(perfbench::TracedEngine{engine, traces}, dcfg,
                                             in.keys, pos, round_s / 2, &main_log);
            }
            if (updater) updater->finish();
        }
        if (!churn) {
            // No readers now: the same open-loop feed, replayed quiescently,
            // after the headroom reservation a router makes before taking
            // updates (so a pool growth does not stall the feed).
            {
                // quiescent: the workers have joined and no updater exists.
                const psync::QuiescentSection quiescent;
                router->reserve_fib_headroom();
            }
            const psync::StopFlag never;
            replay(*router, in.feeds[k], never, rd.updates, o.trace ? &updater_log : nullptr);
        }
        {
            // writer: the workers and the updater have joined; only this
            // thread touches the EBR domain.
            const psync::EbrWriterSection writer;
            const std::int64_t d0 = now_ns();
            router->drain();
            rd.drain_ms = static_cast<double>(now_ns() - d0) / 1e6;
        }

        // --- correctness at the quiescent end of the round ------------------
        std::vector<std::uint32_t> oracle_keys = sampled_keys;
        workload::Xorshift128 rng(o.seed ^ k);
        for (std::size_t i = 0; i < rd.updates.applied; ++i)
            oracle_keys.push_back(address_in(in.feeds[k][i].prefix, rng));
        const auto& fib = router->fib();
        const auto& rib = router->rib();
        const bool inject = o.inject_mismatch && k == 0;
        rd.oracle = perfbench::oracle_check(
            oracle_keys,
            [&](std::uint32_t key) {
                const rib::NextHop hop = fib.lookup(Ipv4Addr{key});
                return inject && key == oracle_keys.front() ? static_cast<rib::NextHop>(hop ^ 1)
                                                            : hop;
            },
            [&](std::uint32_t key) { return rib.lookup(Ipv4Addr{key}); });
        const UpdateCounters& c = fib.update_counters();
        rd.delta.nodes_allocated = c.nodes_allocated - before.nodes_allocated;
        rd.delta.leaves_allocated = c.leaves_allocated - before.leaves_allocated;
        rd.delta.direct_stores = c.direct_stores - before.direct_stores;
        rd.delta.pool_growths = c.pool_growths - before.pool_growths;
        rd.after = fib.stats();

        // Tear down before the next round, and hand the freed RIB nodes back
        // as one consolidated heap: otherwise each round's RIB is allocated
        // into the previous one's fragments and rounds get steadily slower.
        router.reset();
        malloc_trim(0);

        const auto burst = perfbench::summarize(rd.untraced.burst_ns);
        const auto upd = perfbench::summarize(rd.updates.latency_ns);
        std::printf("perfbench: round %u: setup %.3f s, fwd %.2f Mlps, burst p50 %.3f us p99 "
                    "%.3f us (n=%zu), %zu %s updates p50 %.3f us p99 %.3f us, oracle %zu/%zu "
                    "mismatched\n",
                    k, rd.setup_s, benchkit::median(rd.untraced.interval_mlps),
                    ns_to_us(burst.p50), ns_to_us(burst.p99), burst.n, rd.updates.applied,
                    churn ? "concurrent" : "quiescent", ns_to_us(upd.p50), ns_to_us(upd.p99),
                    rd.oracle.mismatches, rd.oracle.checked);
    }

    // --- checks over all rounds -----------------------------------------------
    Result r;
    std::size_t mismatches = 0, update_failures = 0, growths = 0;
    std::uint32_t first_bad = 0;
    for (const auto& rd : rounds) {
        if (mismatches == 0 && rd.oracle.mismatches != 0) first_bad = rd.oracle.first_bad_key;
        mismatches += rd.oracle.mismatches;
        update_failures += rd.updates.failed;
        growths += rd.delta.pool_growths;
        r.attempted += rd.oracle.checked + rd.updates.applied;
    }
    r.failed = mismatches + update_failures;
    if (mismatches != 0)
        fail_check(r, std::to_string(mismatches) + " FIB/RIB mismatches, first at key " +
                          std::to_string(first_bad));
    if (update_failures != 0)
        fail_check(r, std::to_string(update_failures) + " updates threw");
    if (churn && growths != 0)
        fail_check(r, std::to_string(growths) + " pool growths under live readers");

    // Forwarding figures pool every round's samples: each round is a fresh
    // set-up with its own memory layout, and pooling averages over them.
    // Set-up and update figures are per-round statistics reported as the
    // median over rounds, so one round whose updater lost its CPU for a few
    // milliseconds does not own the whole run's tail.
    std::vector<double> intervals, traced_intervals;
    std::vector<std::uint64_t> bursts_ns;
    for (const auto& rd : rounds) {
        intervals.insert(intervals.end(), rd.untraced.interval_mlps.begin(),
                         rd.untraced.interval_mlps.end());
        traced_intervals.insert(traced_intervals.end(), rd.traced.interval_mlps.begin(),
                                rd.traced.interval_mlps.end());
        bursts_ns.insert(bursts_ns.end(), rd.untraced.burst_ns.begin(),
                         rd.untraced.burst_ns.end());
    }
    const double mlps = benchkit::median(intervals);
    const perfbench::Summary burst = perfbench::summarize(bursts_ns);
    const double setup_s = median_of(rounds, [](const Round& rd) { return rd.setup_s; });
    const poptrie::Stats& built = rounds.back().built;
    std::printf("perfbench: %u rounds of %.2f s: fwd %.2f Mlps (median of %zu intervals), "
                "burst p50 %.3f us p99 %.3f us (n=%zu%s), set-up %.3f s (median)\n",
                sz.rounds, round_s, mlps, intervals.size(), ns_to_us(burst.p50),
                ns_to_us(burst.p99), burst.n,
                perfbench::percentile_supported(99, burst.n) ? "" : ", p99 unsupported",
                setup_s);

    if (!o.trace) {
        auto& m = r.metrics;
        m.add("fwd_mlps", mlps, "Mlps");
        m.add("burst_p50_us", ns_to_us(burst.p50), "us");
        m.add("burst_p99_us", ns_to_us(burst.p99), "us");
        m.add("setup_s", setup_s, "s");
        m.add("fib_mib", static_cast<double>(built.memory_bytes) / (1 << 20), "MiB");
        return r;
    }

    // --- traced run: the per-layer split ---------------------------------------
    std::int64_t guard_ns = 0, lookup_ns = 0, gap_ns = 0;
    std::uint64_t bursts = 0, keys_done = 0;
    double worst_closure = 0;
    for (const auto& t : traces.all()) {
        bursts += t->bursts;
        keys_done += t->keys;
        guard_ns += t->guard_ns;
        lookup_ns += t->lookup_ns;
        gap_ns += t->gap_ns;
        worst_closure = std::max(
            worst_closure,
            perfbench::closure_err(static_cast<double>(t->guard_ns),
                                   static_cast<double>(t->lookup_ns),
                                   static_cast<double>(t->gap_ns),
                                   static_cast<double>(t->wall_ns())));
    }
    if (worst_closure > kClosureTolerance)
        fail_check(r, "trace closure error " + std::to_string(worst_closure) + " exceeds " +
                          std::to_string(kClosureTolerance));
    const double traced_mlps = benchkit::median(traced_intervals);
    std::printf("perfbench: per-level ns/key (n):");
    for (unsigned l = 0; l < 4; ++l)
        std::printf(" lvl%u %.2f (%zu)", l, levels.ns[l], levels.n[l]);
    std::printf("\n");

    std::uint64_t offered = 0, refused = 0, applied = 0, nodes = 0, leaves = 0, direct = 0;
    std::int64_t offer_ns = 0, late_max_ns = 0;
    for (const auto& rd : rounds) {
        offered += rd.traced.offered;
        refused += rd.traced.refused;
        offer_ns += rd.traced.offer_ns;
        applied += rd.updates.applied;
        nodes += rd.delta.nodes_allocated;
        leaves += rd.delta.leaves_allocated;
        direct += rd.delta.direct_stores;
        late_max_ns = std::max(late_max_ns, rd.updates.late_max_ns);
    }
    const auto per_update = [&](std::uint64_t v) {
        return safe_div(static_cast<double>(v), static_cast<double>(applied));
    };
    // Per-round percentile of the update latency (due -> return) or of the
    // service time alone, then the median over rounds.
    const auto update_pct = [&](bool service, double q) {
        return median_of(rounds, [&](const Round& rd) {
            const benchkit::Percentiles p(service ? rd.updates.service_ns
                                                  : rd.updates.latency_ns);
            return ns_to_us(p.percentile(q));
        });
    };
    const poptrie::Stats& after = rounds.back().after;
    auto& m = r.metrics;
    m.add("workload.gen_s", in.gen_s, "s");
    m.add("workload.repeat_frac", repeat_frac(in.keys), "frac");
    m.add("workload.direct_frac", levels.direct_frac, "frac");
    m.add("workload.mean_levels", levels.mean_levels, "levels");
    m.add("router.load_s", median_of(rounds, [](const Round& rd) { return rd.load_s; }), "s");
    m.add("poptrie.reserve_ms",
          median_of(rounds, [](const Round& rd) { return rd.reserve_ms; }), "ms");
    m.add("dataplane.start_ms",
          median_of(rounds, [](const Round& rd) { return rd.start_ms; }), "ms");
    m.add("poptrie.lookup_ns_per_key",
          safe_div(static_cast<double>(lookup_ns), static_cast<double>(keys_done)), "ns");
    for (unsigned l = 0; l < 4; ++l)
        m.add("poptrie.lookup_ns.lvl" + std::to_string(l), levels.ns[l], "ns");
    m.add("poptrie.model_loads_per_key", levels.model_loads, "loads");
    m.add("poptrie.nodes", static_cast<double>(built.internal_nodes), "count");
    m.add("poptrie.leaves", static_cast<double>(built.leaves), "count");
    m.add("sync.guard_ns_per_burst",
          safe_div(static_cast<double>(guard_ns), static_cast<double>(bursts)), "ns");
    m.add("dataplane.offer_ns_per_key",
          safe_div(static_cast<double>(offer_ns), static_cast<double>(offered)), "ns");
    m.add("dataplane.refused_frac",
          safe_div(static_cast<double>(refused), static_cast<double>(offered)), "frac");
    m.add("dataplane.keys_per_burst",
          safe_div(static_cast<double>(keys_done), static_cast<double>(bursts)), "keys");
    m.add("dataplane.gap_ns_per_burst",
          safe_div(static_cast<double>(gap_ns), static_cast<double>(bursts)), "ns");
    m.add("router.update_us_p50", update_pct(true, 50), "us");
    m.add("router.update_us_p99", update_pct(true, 99), "us");
    m.add("update_p50_us", update_pct(false, 50), "us");
    m.add("update_p99_us", update_pct(false, 99), "us");
    m.add("router.update_late_ms_max", static_cast<double>(late_max_ns) / 1e6, "ms");
    m.add("poptrie.upd_nodes", per_update(nodes), "count");
    m.add("poptrie.upd_leaves", per_update(leaves), "count");
    m.add("poptrie.upd_direct", per_update(direct), "count");
    m.add("alloc.pool_growths", static_cast<double>(growths), "count");
    m.add("alloc.allocated_mib", static_cast<double>(after.allocated_bytes) / (1 << 20), "MiB");
    m.add("alloc.node_free_blocks", static_cast<double>(after.node_free_blocks), "count");
    m.add("alloc.leaf_free_blocks", static_cast<double>(after.leaf_free_blocks), "count");
    m.add("sync.drain_ms",
          median_of(rounds, [](const Round& rd) { return rd.drain_ms; }), "ms");
    m.add("trace.closure_err", worst_closure, "frac");
    m.add("trace.overhead_frac", 1 - safe_div(traced_mlps, mlps), "frac");
    m.add("fail_frac",
          safe_div(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "frac");

    if (!o.trace_out.empty()) {
        // Per-name aggregates plus the bounded raw-span samples, all threads.
        std::map<std::string_view, perfbench::Aggregate> agg = main_log.aggregates();
        for (const auto& [name, a] : updater_log.aggregates()) agg[name].merge(a);
        std::vector<const SpanLog*> logs{&main_log, &updater_log};
        for (const auto& t : traces.all()) {
            agg["sync.guard"].merge({t->bursts * 2, t->guard_ns, 0});
            agg["poptrie.lookup_batch"].merge({t->bursts, t->lookup_ns, 0});
            agg["dataplane.gap"].merge({t->bursts, t->gap_ns, 0});
            logs.push_back(&t->log);
        }
        agg["dataplane.offer"].merge({offered / kBurst, offer_ns, 0});
        std::ofstream f(o.trace_out);
        f << "{\"workload\": \"" << wl.name << "\", \"seed\": " << o.seed
          << ", \"aggregates\": {";
        bool first = true;
        for (const auto& [name, a] : agg) {
            f << (first ? "" : ", ") << '"' << name << "\": {\"count\": " << a.count
              << ", \"total_ns\": " << a.total_ns << ", \"max_ns\": " << a.max_ns << '}';
            first = false;
        }
        f << "}, \"spans\": [";
        first = true;
        for (const SpanLog* log : logs)
            for (const auto& sp : log->spans()) {
                f << (first ? "" : ",\n") << "{\"name\": \"" << sp.name
                  << "\", \"start_ns\": " << sp.start_ns << ", \"end_ns\": " << sp.end_ns
                  << ", \"id\": " << sp.id << ", \"parent\": " << sp.parent << '}';
                first = false;
            }
        f << "]}\n";
        if (!f) throw std::runtime_error("could not write " + o.trace_out);
    }
    return r;
}

void print_result(const Result& r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), r.metrics.json().c_str());
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse(argc, argv);
    // Read once: pinning the producer narrows this thread's own mask.
    const std::vector<unsigned> cpus = allowed_cpus();
    try {
        if (opt.smoke) {
            // Every workload, traced (which also runs the untraced window),
            // at smoke sizes.
            bool ok = true;
            for (const auto& wl : kWorkloads) {
                Options o = opt;
                o.trace = true;
                o.seconds = 0.4;
                const Result r = run_workload(wl, o, smoke_sizes(), cpus);
                print_result(r);
                ok = ok && r.correct;
            }
            return ok ? 0 : 1;
        }
        const auto it = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                     [&](const Workload& w) { return w.name == opt.workload; });
        if (it == std::end(kWorkloads)) usage_error("unknown workload " + opt.workload);
        const Result r = run_workload(*it, opt, Sizes{}, cpus);
        print_result(r);
        return r.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
