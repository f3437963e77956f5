// Ablation bench (beyond the paper's tables): isolates each design choice
// DESIGN.md calls out on REAL-Tier1-A:
//   * direct-pointing width sweep s in {0, 8, 12, 14, 16, 18, 20, 22}
//     (memory/speed trade-off around the paper's chosen 16/18);
//   * hardware popcnt vs the software fallback (§3.2's claim that popcnt is
//     the enabling instruction);
//   * leafvec and route aggregation on/off at s = 18 (memory vs rate);
//   * Tree BitMap stride 4 vs 6 (the "64-ary Tree BitMap still loses" point
//     of §4.5) and DIR-24-8 as the direct-pointing ancestor;
//   * Poptrie::lookup_batch (the run-merging batch loop) vs scalar lookups.
#include "baselines/multiway.hpp"
#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "common.hpp"
#include "rib/patricia.hpp"

using namespace bench;

int main(int argc, char** argv)
{
    const benchkit::Args args(argc, argv);
    if (args.handle_help("bench_ablation_options",
                         "  --only=S  run one section: direct | popcnt | leafvec |"
                         " strides | batch (default all)"))
        return 0;
    const auto lookups = args.lookups(std::size_t{1} << 22, std::size_t{1} << 25);
    const auto trials = args.trials();
    const auto only = args.get("only", "all");
    if (only != "all" && only != "direct" && only != "popcnt" && only != "leafvec" &&
        only != "strides" && only != "batch") {
        std::fprintf(stderr, "bench_ablation_options: unknown --only '%s'\n", only.c_str());
        return 2;
    }
    const auto want = [&](const char* section) { return only == "all" || only == section; };
    ChecksumSink sink;
    benchkit::JsonRecords json;
    print_host_note();

    const auto d = load_dataset(workload::real_tier1_a());

    if (want("direct")) {
    std::printf("\nAblation 1: direct-pointing width sweep (leafvec + aggregation)\n\n");
    {
        benchkit::TablePrinter table({{"s", 2},
                                      {"Mem[MiB]", 8},
                                      {"direct[MiB]", 11},
                                      {"Rate(std)[Mlps]", 16}});
        table.print_header();
        for (const unsigned s : {0u, 8u, 12u, 14u, 16u, 18u, 20u, 22u}) {
            poptrie::Config cfg;
            cfg.direct_bits = s;
            const poptrie::Poptrie4 pt{d.rib, cfg};
            const auto r = benchkit::measure_random(
                [&](std::uint32_t a) { return pt.lookup_raw<true>(a); }, lookups, trials);
            sink.add(r.checksum);
            const auto stats = pt.stats();
            table.print_row({std::to_string(s), benchkit::fmt_mib(stats.memory_bytes),
                             benchkit::fmt_mib(stats.direct_slots * 4),
                             benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std)});
        }
    }
    }

    if (want("popcnt")) {
    std::printf("\nAblation 2: hardware popcnt vs software fallback (Poptrie18)\n\n");
    {
        poptrie::Config cfg;
        cfg.direct_bits = 18;
        const poptrie::Poptrie4 pt{d.rib, cfg};
        const auto hw = benchkit::measure_random(
            [&](std::uint32_t a) { return pt.lookup_raw<true, false>(a); }, lookups, trials);
        const auto sw = benchkit::measure_random(
            [&](std::uint32_t a) { return pt.lookup_raw<true, true>(a); }, lookups, trials);
        sink.add(hw.checksum + sw.checksum);
        std::printf("  popcnt instruction: %s Mlps\n",
                    benchkit::fmt_mean_std(hw.mlps_mean, hw.mlps_std).c_str());
        std::printf("  byte-table popcount: %s Mlps (%.1f%% of hardware; the\n"
                    "    Hacker's-Delight bitwise version is idiom-folded to popcnt by GCC)\n",
                    benchkit::fmt_mean_std(sw.mlps_mean, sw.mlps_std).c_str(),
                    100.0 * sw.mlps_mean / hw.mlps_mean);
        for (const auto& [variant, r] :
             {std::pair{"hardware", hw}, std::pair{"software", sw}}) {
            json.begin_record();
            json.field("bench", std::string_view{"ablation"});
            json.field("section", std::string_view{"popcnt"});
            json.field("popcount", std::string_view{variant});
            json.field("mlps", r.mlps_mean);
            json.field("mlps_std", r.mlps_std);
            benchkit::stamp_provenance(json);
        }
    }
    }

    if (want("leafvec")) {
    std::printf("\nAblation 3: leafvec / route aggregation at s = 18\n\n");
    {
        benchkit::TablePrinter table({{"leafvec", 7},
                                      {"aggregation", 11},
                                      {"# inodes", 9},
                                      {"# leaves", 10},
                                      {"Mem[MiB]", 8},
                                      {"Rate(std)[Mlps]", 16}});
        table.print_header();
        for (const bool lc : {false, true}) {
            for (const bool agg : {false, true}) {
                poptrie::Config cfg;
                cfg.direct_bits = 18;
                cfg.leaf_compression = lc;
                cfg.route_aggregation = agg;
                const poptrie::Poptrie4 pt{d.rib, cfg};
                const auto r =
                    lc ? benchkit::measure_random(
                             [&](std::uint32_t a) { return pt.lookup_raw<true>(a); }, lookups,
                             trials)
                       : benchkit::measure_random(
                             [&](std::uint32_t a) { return pt.lookup_raw<false>(a); }, lookups,
                             trials);
                sink.add(r.checksum);
                const auto stats = pt.stats();
                table.print_row({lc ? "on" : "off", agg ? "on" : "off",
                                 benchkit::fmt_count(stats.internal_nodes),
                                 benchkit::fmt_count(stats.leaves),
                                 benchkit::fmt_mib(stats.memory_bytes),
                                 benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std)});
            }
        }
    }
    }

    if (want("strides")) {
    std::printf("\nAblation 4: multibit-trie strides and the direct-pointing ancestor\n\n");
    {
        BuildSelection sel;
        sel.sail = false;
        sel.dxr = false;
        sel.poptrie16 = false;
        sel.poptrie18 = false;
        sel.dir24 = true;
        const auto s = build_structures(d, sel);
        benchkit::TablePrinter table(
            {{"Structure", 22, false}, {"Mem[MiB]", 8}, {"Rate(std)[Mlps]", 16}});
        table.print_header();
        const auto row = [&](const char* name, std::size_t mem, auto&& lookup) {
            const auto r = benchkit::measure_random(lookup, lookups / 2, trials);
            sink.add(r.checksum);
            table.print_row({name, benchkit::fmt_mib(mem),
                             benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std)});
        };
        rib::PatriciaTrie<Ipv4Addr> patricia;
        patricia.insert_all(d.routes);
        row("Radix (binary)", d.rib.memory_bytes(),
            [&](std::uint32_t a) { return d.rib.lookup(Ipv4Addr{a}); });
        row("Patricia (compressed)", patricia.memory_bytes(),
            [&](std::uint32_t a) { return patricia.lookup(Ipv4Addr{a}); });
        row("Tree BitMap (16-ary)", s.tbm16->memory_bytes(),
            [&](std::uint32_t a) { return s.tbm16->lookup(Ipv4Addr{a}); });
        row("Tree BitMap (64-ary)", s.tbm64->memory_bytes(),
            [&](std::uint32_t a) { return s.tbm64->lookup(Ipv4Addr{a}); });
        const baselines::MultiwayTrie4 naive{d.fib_src};
        row("64-ary trie (Fig. 1)", naive.memory_bytes(),
            [&](std::uint32_t a) { return naive.lookup(Ipv4Addr{a}); });
        row("DIR-24-8-BASIC", s.dir24->memory_bytes(),
            [&](std::uint32_t a) { return s.dir24->lookup(Ipv4Addr{a}); });
    }
    }

    if (want("batch")) {
    std::printf("\nAblation 5: batched lookup (run-merging batch loop, Poptrie18)\n\n");
    {
        poptrie::Config cfg;
        cfg.direct_bits = 18;
        const poptrie::Poptrie4 pt{d.rib, cfg};
        // Pre-materialized keys for both paths so only the lookup strategy
        // differs.
        std::vector<std::uint32_t> keys(lookups);
        workload::Xorshift128 rng(1);
        for (auto& k : keys) k = rng.next();
        std::vector<rib::NextHop> out(keys.size());

        const auto scalar = benchkit::measure_trace(
            [&](std::uint32_t a) { return pt.lookup_raw<true>(a); }, keys, trials);
        sink.add(scalar.checksum);
        std::printf("  scalar:        %s Mlps\n",
                    benchkit::fmt_mean_std(scalar.mlps_mean, scalar.mlps_std).c_str());
        const auto batch_record = [&](std::string_view variant, double mlps,
                                      double dispersion) {
            json.begin_record();
            json.field("bench", std::string_view{"ablation"});
            json.field("section", std::string_view{"batch"});
            json.field("variant", variant);
            json.field("mlps", mlps);
            json.field("mlps_mad", dispersion);
            json.field("speedup_vs_scalar", scalar.mlps_mean > 0 ? mlps / scalar.mlps_mean : 0);
            benchkit::stamp_provenance(json);
        };
        batch_record("scalar", scalar.mlps_mean, scalar.mlps_std);
        // reader: single-threaded bench over a table that never changes — the
        // batch walk below is trivially inside a read-side critical section.
        const psync::EbrReadSection section;
        std::vector<double> rates;
        std::uint64_t cs = 0;
        for (unsigned t = 0; t < trials; ++t) {
            const auto t0 = std::chrono::steady_clock::now();
            pt.lookup_batch<true>(keys.data(), out.data(), keys.size());
            const double secs =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
            rates.push_back(static_cast<double>(keys.size()) / secs / 1e6);
            for (const auto v : out) cs += v;
        }
        sink.add(cs);
        const auto ms = benchkit::mean_std(rates);
        std::printf("  lookup_batch:  %s Mlps (%.2fx scalar)\n",
                    benchkit::fmt_mean_std(ms.mean, ms.std).c_str(),
                    ms.mean / scalar.mlps_mean);
        // Median-of-trials + MAD: the dispersion benchctl's noise bands
        // consume (one preempted trial must not skew the record).
        batch_record("lookup_batch", benchkit::median(rates), benchkit::mad(rates));
    }
    }

    const auto json_path = args.json_out();
    if (!json_path.empty() && !json.write_file(json_path)) {
        std::fprintf(stderr, "bench_ablation_options: cannot write %s\n", json_path.c_str());
        return 2;
    }
    return 0;
}
