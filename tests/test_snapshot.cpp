// Tests for the snapshot subsystem (src/snapshot, DESIGN.md §11): versioned
// on-disk FIB images. The core property is round-trip lookup equivalence —
// build → (churn) → compact → save → load must resolve every probe exactly
// like the live trie and the RIB oracle, for both address families and for
// both load placements (mmap and copy-in). The rejection tests prove the
// loader refuses every corruption class: flipped payload bits, short reads,
// bad magic, wrong format version, and a family mismatch; the verifier
// catches a leaf base the loader cannot see is out of range.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "alloc/arena.hpp"
#include "benchkit/provenance.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "snapshot/snapshot.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

using namespace testhelpers;
using netbase::Ipv6Addr;
using poptrie::Config;
using poptrie::Poptrie4;
using poptrie::Poptrie6;
using snapshot::ImageError;
using snapshot::ImageIoError;
using snapshot::LoadOptions;
using snapshot::SnapshotFib4;
using snapshot::SnapshotFib6;

namespace {

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

/// Save-and-reload through a real file, the way lpmd does it.
SnapshotFib4 round_trip(const Poptrie4& pt, const std::string& name,
                        const LoadOptions& opt = {})
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    const auto path = temp_path(name);
    snapshot::save(pt, path);
    return SnapshotFib4::load_file(path, opt);
}

}  // namespace

TEST(Snapshot, RoundTripCornerTableAllConfigs)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    for (const unsigned db : {0u, 12u, 18u}) {
        auto rib = load(corner_case_table());
        Config cfg;
        cfg.direct_bits = db;
        Poptrie4 pt{rib, cfg};
        pt.compact();
        const auto img = snapshot::serialize(pt);
        const auto fib = SnapshotFib4::load_buffer(img.data(), img.size());
        EXPECT_EQ(fib.node_count(), pt.stats().node_high_water);
        EXPECT_EQ(boundary_and_random_mismatches(
                      rib, corner_case_table(),
                      [&](Ipv4Addr a) { return fib.lookup(a); }, 50'000, db + 1),
                  0u)
            << "direct_bits=" << db;
        EXPECT_TRUE(snapshot::verify_image(fib).ok())
            << snapshot::verify_image(fib).summary();
    }
}

TEST(Snapshot, RoundTripGeneratedTableAfterChurnAndCompact)
{
    workload::TableGenConfig gen;
    gen.seed = 11;
    gen.target_routes = 30'000;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);
    Poptrie4 pt{rib, Config{}};

    workload::UpdateFeedConfig ucfg;
    ucfg.seed = 12;
    ucfg.updates = 3'000;
    for (const auto& ev : workload::make_update_feed(routes, ucfg))
        pt.apply(rib, ev.prefix, ev.next_hop);
    pt.drain();

    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    pt.compact();
    const auto fib = round_trip(pt, "snap_churned.img");
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return fib.lookup(a); }, 100'000),
              0u);
    EXPECT_TRUE(snapshot::verify_image(fib).ok());
}

TEST(Snapshot, RoundTripWithoutCompaction)
{
    // An uncompacted FIB serializes its full touched extent (free-pool holes
    // included); the image must still resolve identically.
    workload::TableGenConfig gen;
    gen.seed = 21;
    gen.target_routes = 10'000;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);
    Poptrie4 pt{rib, Config{}};
    workload::UpdateFeedConfig ucfg;
    ucfg.seed = 22;
    ucfg.updates = 1'000;
    for (const auto& ev : workload::make_update_feed(routes, ucfg))
        pt.apply(rib, ev.prefix, ev.next_hop);
    pt.drain();

    const auto fib = round_trip(pt, "snap_uncompacted.img");
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return fib.lookup(a); }, 50'000),
              0u);
}

TEST(Snapshot, BatchLookupMatchesScalar)
{
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto fib = round_trip(pt, "snap_batch.img");
    workload::Xorshift128 rng(33);
    std::vector<std::uint32_t> keys(4096);
    for (auto& k : keys) k = rng.next();
    std::vector<rib::NextHop> out(keys.size());
    fib.lookup_batch(keys.data(), out.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(out[i], fib.lookup(Ipv4Addr{keys[i]})) << i;
}

TEST(Snapshot, RoundTripIPv6)
{
    workload::TableGen6Config gen;
    gen.seed = 41;
    gen.target_routes = 10'000;
    const auto routes = workload::generate_table6(gen);
    rib::RadixTrie<Ipv6Addr> rib;
    rib.insert_all(routes);
    Poptrie6 pt{rib, Config{}};
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    pt.compact();
    const auto path = temp_path("snap_v6.img");
    snapshot::save(pt, path);
    const auto fib = SnapshotFib6::load_file(path);

    for (const auto& r : routes) {
        for (const auto v :
             {r.prefix.first_address().value(), r.prefix.last_address().value(),
              r.prefix.first_address().value() - 1, r.prefix.last_address().value() + 1}) {
            const Ipv6Addr a{v};
            ASSERT_EQ(fib.lookup(a), rib.lookup(a)) << netbase::to_string(a);
        }
    }
    workload::Xorshift128 rng(42);
    for (int i = 0; i < 100'000; ++i) {
        using u128 = Ipv6Addr::value_type;
        const Ipv6Addr a{(u128{rng.next()} << 96) | (u128{rng.next()} << 64) |
                         (u128{rng.next()} << 32) | rng.next()};
        ASSERT_EQ(fib.lookup(a), rib.lookup(a)) << netbase::to_string(a);
    }
    EXPECT_TRUE(snapshot::verify_image(fib).ok());
}

TEST(Snapshot, ConfigEchoPreserved)
{
    auto rib = load(corner_case_table());
    Config cfg;
    cfg.direct_bits = 0;
    cfg.leaf_compression = false;
    cfg.route_aggregation = false;
    Poptrie4 pt{rib, cfg};
    const auto fib = round_trip(pt, "snap_basic.img");
    EXPECT_EQ(fib.config().direct_bits, 0u);
    EXPECT_FALSE(fib.config().leaf_compression);
    EXPECT_FALSE(fib.config().route_aggregation);
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, corner_case_table(),
                  [&](Ipv4Addr a) { return fib.lookup(a); }, 50'000),
              0u);
}

TEST(Snapshot, ProvenanceStampSurvives)
{
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto fib = round_trip(pt, "snap_prov.img");
    // The writer's build fingerprint rides in the header (NUL-padded).
    const auto prov = benchkit::provenance();
    EXPECT_EQ(std::string(fib.header().git_sha),
              std::string(prov.git_sha.substr(0, sizeof(fib.header().git_sha) - 1)));
}

TEST(Snapshot, ChecksumFlipRejected)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    auto img = snapshot::serialize(pt);
    img[(sizeof(snapshot::ImageHeader) + img.size()) / 2] ^= 0x01;
    EXPECT_THROW(SnapshotFib4::load_buffer(img.data(), img.size()), ImageError);
}

TEST(Snapshot, ShortReadRejected)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto img = snapshot::serialize(pt);
    EXPECT_THROW(SnapshotFib4::load_buffer(img.data(), img.size() / 2), ImageError);
    EXPECT_THROW(SnapshotFib4::load_buffer(img.data(), sizeof(snapshot::ImageHeader) / 2),
                 ImageError);
}

TEST(Snapshot, BadMagicAndWrongVersionRejected)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto img = snapshot::serialize(pt);

    auto bad_magic = img;
    bad_magic[0] ^= 0xFF;
    EXPECT_THROW(SnapshotFib4::load_buffer(bad_magic.data(), bad_magic.size()), ImageError);

    // Re-seal the header checksum so the version check itself, not the
    // checksum side effect, does the rejecting. Version 2 is the retired
    // format that carried dictionary-coded leaf sections.
    for (const std::uint32_t version : {2u, snapshot::kFormatVersion + 7}) {
        auto bad_version = img;
        snapshot::ImageHeader hdr;
        std::memcpy(&hdr, bad_version.data(), sizeof(hdr));
        hdr.format_version = version;
        hdr.header_checksum = 0;
        hdr.header_checksum = snapshot::fnv1a64(&hdr, sizeof(hdr));
        std::memcpy(bad_version.data(), &hdr, sizeof(hdr));
        try {
            static_cast<void>(
                SnapshotFib4::load_buffer(bad_version.data(), bad_version.size()));
            FAIL() << "version " << version << " image was accepted";
        } catch (const ImageError& e) {
            EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
        }
    }
}

TEST(Snapshot, VerifyReportsLeafBaseWithBit31Set)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    auto img = snapshot::serialize(pt);
    snapshot::ImageHeader hdr;
    std::memcpy(&hdr, img.data(), sizeof(hdr));
    ASSERT_NE(hdr.direct_bits, 0u);

    // Tag the leaf base of the first node a direct slot reaches that has
    // leaves. Bit 31 of base0 means nothing in this format, so the run lands
    // far past the leaf section.
    using Node = Poptrie4::Node;
    const auto* direct = reinterpret_cast<const std::uint32_t*>(img.data() + hdr.direct.offset);
    std::uint64_t node_off = 0;
    for (std::uint64_t d = 0; d < hdr.direct_count && node_off == 0; ++d) {
        if (direct[d] & Poptrie4::kDirectLeafBit) continue;
        const std::uint64_t off = hdr.nodes.offset + std::uint64_t{direct[d]} * sizeof(Node);
        Node n;
        std::memcpy(&n, img.data() + off, sizeof(n));
        if (n.leafvec != 0) node_off = off;
    }
    ASSERT_NE(node_off, 0u) << "corner table has no direct-reached node with leaves";
    Node n;
    std::memcpy(&n, img.data() + node_off, sizeof(n));
    n.base0 |= 0x8000'0000u;
    std::memcpy(img.data() + node_off, &n, sizeof(n));

    // Re-seal every checksum so the loader accepts the image and only the
    // structural verifier can catch the tagged base.
    hdr.nodes.checksum = snapshot::fnv1a64(img.data() + hdr.nodes.offset, hdr.nodes.bytes);
    hdr.payload_checksum =
        snapshot::fnv1a64(img.data() + hdr.header_bytes, img.size() - hdr.header_bytes);
    hdr.header_checksum = 0;
    hdr.header_checksum = snapshot::fnv1a64(&hdr, sizeof(hdr));
    std::memcpy(img.data(), &hdr, sizeof(hdr));

    const auto fib = SnapshotFib4::load_buffer(img.data(), img.size());
    const auto report = snapshot::verify_image(fib);
    ASSERT_FALSE(report.ok());
    bool out_of_range = false;
    for (const auto& v : report.violations)
        out_of_range = out_of_range || v.find("exceeds leaf count") != std::string::npos;
    EXPECT_TRUE(out_of_range) << report.summary();
}

TEST(Snapshot, FamilyMismatchRejected)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto path = temp_path("snap_family.img");
    snapshot::save(pt, path);
    EXPECT_THROW(SnapshotFib6::load_file(path), ImageError);
    EXPECT_NO_THROW(SnapshotFib4::load_file(path));
}

TEST(Snapshot, MissingFileIsIoError)
{
    EXPECT_THROW(SnapshotFib4::load_file(temp_path("snap_never_written.img")),
                 ImageIoError);
}

TEST(Snapshot, PlacementControlsBacking)
{
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};

    LoadOptions map_opt;
    map_opt.placement = LoadOptions::Placement::kMap;
    const auto mapped = round_trip(pt, "snap_backing.img", map_opt);
#if defined(__linux__)
    EXPECT_EQ(mapped.memory_report().backing, alloc::Backing::kFileMapped);
#endif

    LoadOptions copy_opt;
    copy_opt.placement = LoadOptions::Placement::kCopy;
    const auto copied = round_trip(pt, "snap_backing.img", copy_opt);
    EXPECT_NE(copied.memory_report().backing, alloc::Backing::kFileMapped);

    // Both placements must of course resolve identically.
    workload::Xorshift128 rng(55);
    for (int i = 0; i < 50'000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(mapped.lookup(a), copied.lookup(a)) << netbase::to_string(a);
    }
}

TEST(Snapshot, ImageIsByteStableForSameFib)
{
    // Two serializations of the same compacted trie are byte-identical:
    // compact() produces the canonical DFS layout and the header carries no
    // wall-clock state, so images are reproducible (and diffable) artifacts.
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    pt.compact();
    EXPECT_EQ(snapshot::serialize(pt), snapshot::serialize(pt));
}
