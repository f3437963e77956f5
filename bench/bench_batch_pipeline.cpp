// Batch-lookup benchmark — single-core lookup rate (Mlps) of per-key
// Poptrie::lookup_raw against Poptrie::lookup_batch (the run-merging batch
// loop, DESIGN.md §12) across burst width, table size, direct pointing and
// traffic pattern. Both columns walk the same live view; the batch column
// differs only in copying the answer of a key equal to its predecessor
// within one call.
//
// Every cell is gated on checksum equivalence between the two columns over
// the identical key stream: a batch loop that returns even one different
// next hop fails the whole run (exit 1). A fast wrong loop must never
// produce a number.
//
// benchctl runs this as the `pipe.*` family; the gated headline pipe.speedup
// is the best lookup_batch/lookup ratio across the >=512k-route sweep, so
// run merging must keep paying for itself on the repeated pattern.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "common.hpp"

using namespace bench;

namespace {

/// Key-stream length. A power of two and a multiple of every burst width,
/// so the timed loop never sees a partial burst except where we ask for one.
constexpr std::size_t kStream = 1u << 20;

std::vector<std::uint32_t> make_stream(std::string_view pattern, const Dataset& d,
                                       std::uint64_t seed)
{
    std::vector<std::uint32_t> keys;
    keys.reserve(kStream);
    if (pattern == "random") {
        workload::Xorshift128 rng(seed);
        for (std::size_t i = 0; i < kStream; ++i) keys.push_back(rng.next());
    } else if (pattern == "repeated") {
        // §4.2's repeated pattern: each random destination issued 16 times.
        workload::Xorshift128 rng(seed);
        while (keys.size() < kStream) {
            const std::uint32_t a = rng.next();
            for (int i = 0; i < 16 && keys.size() < kStream; ++i) keys.push_back(a);
        }
    } else if (pattern == "flows") {
        // Interleaved flows: every packet draws uniformly from a pool of 4096
        // distinct destinations. The working set stays cache-resident like
        // "repeated", but consecutive packets rarely share a destination, so
        // run merging gets nothing and the walk's branches stay
        // unpredictable.
        constexpr std::size_t kFlows = 4096;
        workload::Xorshift128 rng(seed);
        std::vector<std::uint32_t> pool;
        pool.reserve(kFlows);
        for (std::size_t i = 0; i < kFlows; ++i) pool.push_back(rng.next());
        for (std::size_t i = 0; i < kStream; ++i)
            keys.push_back(pool[rng.next() & (kFlows - 1)]);
    } else if (pattern == "trace") {
        workload::TraceConfig tc;
        tc.seed = seed;
        tc.packets = kStream;
        keys = workload::make_real_trace_like(d.rib, tc);
        keys.resize(kStream);
    } else {
        std::fprintf(stderr, "bench_batch_pipeline: unknown pattern '%s'\n",
                     std::string(pattern).c_str());
        std::exit(2);
    }
    return keys;
}

/// The two columns: one lookup_raw per key, or one lookup_batch per burst.
constexpr std::string_view kPaths[] = {"lookup", "lookup_batch"};

/// One burst of `n` keys. Single-threaded over a table that never changes,
/// so every call is trivially inside a read-side section.
using BurstFn = void (*)(const poptrie::Poptrie4&, const std::uint32_t*, NextHop*,
                         std::size_t);

template <bool UseLeafvec, bool Batched>
void run_burst(const poptrie::Poptrie4& fib, const std::uint32_t* keys, NextHop* out,
               std::size_t n)
{
    if constexpr (Batched) {
        // reader: single-threaded bench, no updater exists.
        const psync::EbrReadSection section;
        fib.lookup_batch<UseLeafvec>(keys, out, n);
    } else {
        for (std::size_t i = 0; i < n; ++i) out[i] = fib.lookup_raw<UseLeafvec>(keys[i]);
    }
}

BurstFn burst_fn(std::string_view path, const poptrie::Poptrie4& fib)
{
    const bool batched = path == "lookup_batch";
    if (fib.config().leaf_compression)
        return batched ? run_burst<true, true> : run_burst<true, false>;
    return batched ? run_burst<false, true> : run_burst<false, false>;
}

/// Order-sensitive fold so a permuted (not just wrong) result also fails.
std::uint64_t fold_checksum(std::uint64_t h, const NextHop* out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) h = h * 1099511628211ULL + out[i];
    return h;
}

std::uint64_t checksum_pass(std::string_view path, unsigned width,
                            const poptrie::Poptrie4& fib,
                            const std::vector<std::uint32_t>& keys)
{
    const BurstFn run = burst_fn(path, fib);
    std::vector<NextHop> out(width);
    std::uint64_t h = 14695981039346656037ULL;
    for (std::size_t i = 0; i < keys.size(); i += width) {
        const std::size_t n = std::min<std::size_t>(width, keys.size() - i);
        run(fib, keys.data() + i, out.data(), n);
        h = fold_checksum(h, out.data(), n);
    }
    return h;
}

double timed_mlps(std::string_view path, unsigned width, const poptrie::Poptrie4& fib,
                  const std::vector<std::uint32_t>& keys, double duration,
                  ChecksumSink& sink)
{
    using clock = std::chrono::steady_clock;
    const BurstFn run = burst_fn(path, fib);
    std::vector<NextHop> out(width);
    std::uint64_t consumed = 0;
    std::size_t done = 0;
    const auto t0 = clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<clock::duration>(
                                   std::chrono::duration<double>(duration));
    for (;;) {
        // Check the clock once per full pass over the stream, not per burst.
        for (std::size_t i = 0; i < keys.size(); i += width)
            run(fib, keys.data() + i, out.data(), width);
        consumed += out[0];
        done += keys.size();
        if (clock::now() >= deadline) break;
    }
    const double elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    sink.add(consumed);
    return benchkit::to_mlps(done, elapsed);
}

std::vector<std::string> split_list(const std::string& list)
{
    std::vector<std::string> out;
    for (std::size_t pos = 0; pos < list.size();) {
        const auto comma = std::min(list.find(',', pos), list.size());
        out.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv)
{
    const benchkit::Args args(argc, argv);
    if (args.handle_help(
            "bench_batch_pipeline",
            "  --routes-list=L   comma-separated table sizes (default 100000,600000)\n"
            "  --direct-list=L   comma-separated direct-pointing bits (default 18,0;\n"
            "                    0 forces full-depth walks — the latency-bound regime)\n"
            "  --patterns=L      comma-separated from random,repeated,flows,trace\n"
            "                    (default random,repeated,flows,trace)\n"
            "  --bursts-list=L   comma-separated keys per lookup_batch call from\n"
            "                    8,16,32 (default 8,16,32)\n"
            "  --duration=S      seconds per cell (default 0.5, --full: 2)\n"
            "  --json            emit a JSON record per cell"))
        return 0;

    const auto routes_list = split_list(args.get("routes-list", "100000,600000"));
    const auto direct_list = split_list(args.get("direct-list", "18,0"));
    const auto patterns =
        split_list(args.get("patterns", "random,repeated,flows,trace"));
    const auto bursts = split_list(args.get("bursts-list", "8,16,32"));
    const double duration = args.get_double("duration", args.has("full") ? 2.0 : 0.5);
    const auto seed = args.seed(1);

    std::printf("Batch lookup: single-core lookup vs lookup_batch rate\n");
    std::printf("# burst = keys per lookup_batch call; runs merge only within a call.\n");
    std::printf("# Every cell is checksum-gated: lookup_batch must equal per-key lookup.\n\n");
    print_host_note();

    benchkit::TablePrinter table({{"Routes", 7},
                                  {"Direct", 6},
                                  {"Pattern", 8, false},
                                  {"Burst", 5},
                                  {"Path", 12, false},
                                  {"Rate[Mlps]", 10},
                                  {"vs lookup", 9}});
    table.print_header();
    benchkit::JsonRecords json;
    ChecksumSink sink;

    for (const auto& routes_str : routes_list) {
        const auto n_routes = std::strtoull(routes_str.c_str(), nullptr, 10);
        workload::TableGenConfig tg;
        tg.seed = seed;
        tg.target_routes = n_routes;
        tg.next_hops = 64;
        const auto d = load_routes("synthetic", workload::generate_table(tg));
        for (const auto& direct_str : direct_list) {
        const auto direct_bits = static_cast<unsigned>(
            std::strtoul(direct_str.c_str(), nullptr, 10));
        poptrie::Config pcfg;
        pcfg.direct_bits = direct_bits;
        const poptrie::Poptrie4 fib{d.rib, pcfg};

        for (const auto& pattern : patterns) {
            const auto keys = make_stream(pattern, d, seed ^ n_routes);
            for (const auto& burst_str : bursts) {
                const auto width = static_cast<unsigned>(
                    std::strtoul(burst_str.c_str(), nullptr, 10));
                if (width != 8 && width != 16 && width != 32) {
                    std::fprintf(stderr, "bench_batch_pipeline: bad burst '%s'\n",
                                 burst_str.c_str());
                    return 2;
                }
                const std::uint64_t want = checksum_pass(kPaths[0], width, fib, keys);
                double scalar_mlps = 0;
                for (const std::string_view p : kPaths) {
                    const std::uint64_t got = checksum_pass(p, width, fib, keys);
                    if (got != want) {
                        std::fprintf(stderr,
                                     "bench_batch_pipeline: checksum mismatch: path %s "
                                     "routes=%llu direct=%u pattern=%s burst=%u\n",
                                     std::string(p).c_str(),
                                     static_cast<unsigned long long>(n_routes),
                                     direct_bits, pattern.c_str(), width);
                        return 1;
                    }
                    const double mlps = timed_mlps(p, width, fib, keys, duration, sink);
                    if (p == kPaths[0]) scalar_mlps = mlps;
                    const double speedup = scalar_mlps > 0 ? mlps / scalar_mlps : 0;
                    table.print_row({std::to_string(n_routes),
                                     std::to_string(direct_bits), pattern,
                                     std::to_string(width),
                                     std::string(p), benchkit::fmt(mlps, 2),
                                     benchkit::fmt(speedup, 2)});
                    json.begin_record();
                    json.field("routes", std::uint64_t{n_routes});
                    json.field("direct_bits", std::uint64_t{direct_bits});
                    json.field("pattern", pattern);
                    json.field("burst", std::uint64_t{width});
                    json.field("path", p);
                    json.field("mlps", mlps);
                    json.field("speedup_vs_scalar", speedup);
                    json.field("checksum_ok", true);
                    benchkit::stamp_provenance(json);
                }
            }
        }
        }
    }

    if (args.has("json")) json.write(stdout);
    const auto json_path = args.json_out();
    if (!json_path.empty() && !json.write_file(json_path)) {
        std::fprintf(stderr, "bench_batch_pipeline: cannot write %s\n", json_path.c_str());
        return 2;
    }
    return 0;
}
