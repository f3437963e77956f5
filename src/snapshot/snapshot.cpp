// snapshot/snapshot.cpp — image writer, validating loader, and the
// image-side structural verifier. See snapshot.hpp for the format contract.
#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "alloc/buddy_allocator.hpp"
#include "benchkit/provenance.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/ipv6.hpp"

namespace snapshot {

namespace {

std::uint64_t align_up(std::uint64_t n, std::uint64_t align)
{
    return (n + align - 1) / align * align;
}

/// NUL-padded copy of a provenance string into a fixed header field;
/// truncates silently (the stamp is diagnostic, not load-bearing).
void copy_stamp(char* dst, std::size_t dst_len, std::string_view src)
{
    std::memset(dst, 0, dst_len);
    std::memcpy(dst, src.data(), std::min(src.size(), dst_len - 1));
}

/// Identity checks shared by read_header() and the full loader: everything
/// that must hold before any other header field may be trusted.
void validate_header_common(const ImageHeader& hdr)
{
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        throw ImageError("not a poptrie snapshot image (bad magic)");
    if (hdr.format_version != kFormatVersion)
        throw ImageError("unsupported snapshot format version " +
                         std::to_string(hdr.format_version) + " (this build reads version " +
                         std::to_string(kFormatVersion) + ")");
    if (hdr.endian_tag != kEndianTag)
        throw ImageError("snapshot image written on a different byte order");
    if (hdr.header_bytes != sizeof(ImageHeader))
        throw ImageError("snapshot header size mismatch: image says " +
                         std::to_string(hdr.header_bytes) + ", this build expects " +
                         std::to_string(sizeof(ImageHeader)));
    ImageHeader copy = hdr;
    copy.header_checksum = 0;
    const std::uint64_t want = fnv1a64(&copy, sizeof(copy));
    if (want != hdr.header_checksum)
        throw ImageError("snapshot header checksum mismatch");
}

/// One section's geometry against the image extent; `elt` is the element
/// size, `count` the element count the header claims for it.
void validate_section(const SectionDesc& s, std::uint64_t count, std::uint64_t elt,
                      std::uint64_t min_offset, std::uint64_t total, const char* what)
{
    // Counts are bounded first so count*elt below cannot overflow: pool
    // indices are 32-bit, so anything larger is corrupt regardless.
    if (count > std::numeric_limits<std::uint32_t>::max())
        throw ImageError(std::string(what) + " section count out of range");
    if (s.bytes != count * elt)
        throw ImageError(std::string(what) + " section size inconsistent with its count");
    if (s.offset % kSectionAlign != 0)
        throw ImageError(std::string(what) + " section misaligned");
    if (s.offset < min_offset || s.offset > total || s.bytes > total - s.offset)
        throw ImageError(std::string(what) + " section out of image bounds");
}

void check_section_sum(const SectionDesc& s, const std::uint8_t* base, const char* what)
{
    if (fnv1a64(base + s.offset, s.bytes) != s.checksum)
        throw ImageError(std::string(what) + " section checksum mismatch");
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) noexcept
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string VerifyReport::summary() const
{
    std::string out = "verify-image: " + std::to_string(nodes_checked) + " nodes, " +
                      std::to_string(leaves_checked) + " leaves, " +
                      std::to_string(direct_slots_checked) + " direct slots; " +
                      std::to_string(violations.size()) + " violation(s)\n";
    for (const auto& v : violations) out += "  " + v + "\n";
    return out;
}

// ---------------------------------------------------------------------------
// Writer

template <class Addr>
std::vector<std::uint8_t> serialize(const poptrie::Poptrie<Addr>& fib)
{
    using PT = poptrie::Poptrie<Addr>;
    using Node = typename PT::Node;
    const poptrie::Config& cfg = fib.config();
    const auto& nodes = SnapshotAccess::nodes(fib);
    const auto& leaves = SnapshotAccess::leaves(fib);
    const auto& direct = SnapshotAccess::direct(fib);
    // The touched extent of each pool: every reachable index is below the
    // allocator's high-water mark, so nothing past it needs to survive.
    const std::uint64_t node_count = SnapshotAccess::node_alloc(fib).high_water();
    const std::uint64_t leaf_count = SnapshotAccess::leaf_alloc(fib).high_water();
    const std::uint64_t direct_count = direct.size();

    ImageHeader hdr;
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.format_version = kFormatVersion;
    hdr.endian_tag = kEndianTag;
    hdr.header_bytes = sizeof(ImageHeader);
    hdr.family_width = Addr::kWidth;
    hdr.node_bytes = sizeof(Node);
    hdr.leaf_bytes = sizeof(rib::NextHop);
    hdr.direct_bits = static_cast<std::uint8_t>(cfg.direct_bits);
    hdr.leaf_compression = cfg.leaf_compression ? 1 : 0;
    hdr.route_aggregation = cfg.route_aggregation ? 1 : 0;
    hdr.pool_headroom_log2 = static_cast<std::uint8_t>(cfg.pool_headroom_log2);
    hdr.hugepage_policy = static_cast<std::uint8_t>(cfg.hugepages);
    hdr.root_index = SnapshotAccess::root(fib);
    hdr.node_count = node_count;
    hdr.leaf_count = leaf_count;
    hdr.direct_count = direct_count;
    hdr.inode_live = SnapshotAccess::inode_count(fib);
    hdr.leaf_live = SnapshotAccess::leaf_count(fib);
    const benchkit::Provenance prov = benchkit::provenance();
    copy_stamp(hdr.git_sha, sizeof(hdr.git_sha), prov.git_sha);
    copy_stamp(hdr.build_type, sizeof(hdr.build_type), prov.build_type);

    const std::uint64_t nodes_off = align_up(sizeof(ImageHeader), kSectionAlign);
    const std::uint64_t nodes_bytes = node_count * sizeof(Node);
    const std::uint64_t leaves_off = align_up(nodes_off + nodes_bytes, kSectionAlign);
    const std::uint64_t leaves_bytes = leaf_count * sizeof(rib::NextHop);
    const std::uint64_t direct_off = align_up(leaves_off + leaves_bytes, kSectionAlign);
    const std::uint64_t direct_bytes = direct_count * sizeof(std::uint32_t);
    hdr.total_bytes = direct_off + direct_bytes;

    std::vector<std::uint8_t> out(static_cast<std::size_t>(hdr.total_bytes), 0);
    if (nodes_bytes != 0)
        std::memcpy(out.data() + nodes_off, nodes.data(), static_cast<std::size_t>(nodes_bytes));
    if (leaves_bytes != 0)
        std::memcpy(out.data() + leaves_off, leaves.data(),
                    static_cast<std::size_t>(leaves_bytes));
    if (direct_bytes != 0)
        std::memcpy(out.data() + direct_off, direct.data(),
                    static_cast<std::size_t>(direct_bytes));
    hdr.nodes = {nodes_off, nodes_bytes, fnv1a64(out.data() + nodes_off, nodes_bytes)};
    hdr.leaves = {leaves_off, leaves_bytes, fnv1a64(out.data() + leaves_off, leaves_bytes)};
    hdr.direct = {direct_off, direct_bytes, fnv1a64(out.data() + direct_off, direct_bytes)};
    hdr.payload_checksum = fnv1a64(out.data() + hdr.header_bytes,
                                   static_cast<std::size_t>(hdr.total_bytes) - hdr.header_bytes);
    hdr.header_checksum = fnv1a64(&hdr, sizeof(hdr));
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
}

template <class Addr>
void save(const poptrie::Poptrie<Addr>& fib, const std::string& path)
{
    const std::vector<std::uint8_t> image = serialize(fib);
    // Write-then-rename: a crash mid-save leaves the old image (or nothing)
    // under the target name, never a torn file.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            throw ImageIoError("snapshot: cannot open '" + tmp + "' for writing");
        f.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size()));
        f.flush();
        if (!f) {
            std::remove(tmp.c_str());
            throw ImageIoError("snapshot: short write to '" + tmp + "'");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw ImageIoError("snapshot: cannot rename '" + tmp + "' to '" + path + "'");
    }
}

// ---------------------------------------------------------------------------
// Loader

ImageHeader read_header(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) throw ImageIoError("snapshot: cannot open '" + path + "'");
    ImageHeader hdr;
    f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
    if (f.gcount() != static_cast<std::streamsize>(sizeof(hdr)))
        throw ImageError("truncated snapshot image: shorter than its header");
    validate_header_common(hdr);
    return hdr;
}

template <class Addr>
void SnapshotFib<Addr>::attach(const std::uint8_t* base, std::size_t size)
{
    if (size < sizeof(ImageHeader))
        throw ImageError("truncated snapshot image: shorter than its header");
    std::memcpy(&hdr_, base, sizeof(hdr_));
    validate_header_common(hdr_);
    if (hdr_.family_width != Addr::kWidth)
        throw ImageError("address family mismatch: image is " +
                         std::to_string(hdr_.family_width) + "-bit, loader expects " +
                         std::to_string(Addr::kWidth) + "-bit");
    if (hdr_.node_bytes != sizeof(Node) || hdr_.leaf_bytes != sizeof(NextHop))
        throw ImageError("node/leaf element layout mismatch");
    if (hdr_.total_bytes != size)
        throw ImageError("truncated snapshot image: " + std::to_string(size) +
                         " bytes on disk, header says " + std::to_string(hdr_.total_bytes));
    if (hdr_.hugepage_policy > static_cast<std::uint8_t>(alloc::HugepagePolicy::kOff))
        throw ImageError("invalid hugepage policy in configuration echo");
    if (!poptrie::valid_config(config(), Addr::kWidth))
        throw ImageError("invalid configuration echo");
    const std::uint64_t want_direct =
        hdr_.direct_bits != 0 ? std::uint64_t{1} << hdr_.direct_bits : 0;
    if (hdr_.direct_count != want_direct)
        throw ImageError("direct section count inconsistent with direct_bits");
    validate_section(hdr_.nodes, hdr_.node_count, sizeof(Node), hdr_.header_bytes,
                     hdr_.total_bytes, "node");
    validate_section(hdr_.leaves, hdr_.leaf_count, sizeof(NextHop), hdr_.header_bytes,
                     hdr_.total_bytes, "leaf");
    validate_section(hdr_.direct, hdr_.direct_count, sizeof(std::uint32_t), hdr_.header_bytes,
                     hdr_.total_bytes, "direct");
    // Sections must be disjoint and in writer order; anything else is a
    // forged layout even if each section is individually in bounds.
    if (hdr_.nodes.offset + hdr_.nodes.bytes > hdr_.leaves.offset ||
        hdr_.leaves.offset + hdr_.leaves.bytes > hdr_.direct.offset)
        throw ImageError("snapshot sections overlap");
    if (hdr_.direct_bits == 0 &&
        (hdr_.node_count == 0 || hdr_.root_index >= hdr_.node_count))
        throw ImageError("root index out of range");
    if (fnv1a64(base + hdr_.header_bytes, size - hdr_.header_bytes) != hdr_.payload_checksum)
        throw ImageError("snapshot image checksum mismatch");
    check_section_sum(hdr_.nodes, base, "node");
    check_section_sum(hdr_.leaves, base, "leaf");
    check_section_sum(hdr_.direct, base, "direct");

    nodes_ = reinterpret_cast<const Node*>(base + hdr_.nodes.offset);
    leaves_ = reinterpret_cast<const NextHop*>(base + hdr_.leaves.offset);
    direct_ = reinterpret_cast<const std::uint32_t*>(base + hdr_.direct.offset);
    root_ = hdr_.root_index;
    direct_bits_ = hdr_.direct_bits;
    leaf_compression_ = hdr_.leaf_compression != 0;
}

template <class Addr>
SnapshotFib<Addr> SnapshotFib<Addr>::load_file(const std::string& path, const LoadOptions& opt)
{
    SnapshotFib fib;
    fib.arena_ = std::make_unique<alloc::Arena>(opt.hugepages);
    if (opt.placement != LoadOptions::Placement::kCopy) {
        alloc::Arena::Block m = fib.arena_->map_file(path);
        if (m.ptr != nullptr) {
            fib.blocks_.push_back(m);
            // Validation errors propagate (a corrupt image must be reported,
            // not silently re-read); only a failed *mapping* falls back.
            fib.attach(static_cast<const std::uint8_t*>(m.ptr), m.bytes);
            return fib;
        }
    }
    std::ifstream f(path, std::ios::binary);
    if (!f) throw ImageIoError("snapshot: cannot open '" + path + "'");
    f.seekg(0, std::ios::end);
    const std::streamoff end = f.tellg();
    f.seekg(0, std::ios::beg);
    if (end <= 0) throw ImageError("truncated snapshot image: empty file");
    const auto size = static_cast<std::size_t>(end);
    alloc::Arena::Block b = fib.arena_->map(size);
    fib.blocks_.push_back(b);
    f.read(static_cast<char*>(b.ptr), static_cast<std::streamsize>(size));
    if (f.gcount() != static_cast<std::streamsize>(size))
        throw ImageIoError("snapshot: short read from '" + path + "'");
    fib.attach(static_cast<const std::uint8_t*>(b.ptr), size);
    return fib;
}

template <class Addr>
SnapshotFib<Addr> SnapshotFib<Addr>::load_buffer(const std::uint8_t* data, std::size_t size,
                                                 const LoadOptions& opt)
{
    SnapshotFib fib;
    fib.arena_ = std::make_unique<alloc::Arena>(opt.hugepages);
    if (size == 0) throw ImageError("truncated snapshot image: empty buffer");
    alloc::Arena::Block b = fib.arena_->map(size);
    fib.blocks_.push_back(b);
    std::memcpy(b.ptr, data, size);
    fib.attach(static_cast<const std::uint8_t*>(b.ptr), size);
    return fib;
}

template <class Addr>
poptrie::Config SnapshotFib<Addr>::config() const noexcept
{
    poptrie::Config cfg;
    cfg.direct_bits = hdr_.direct_bits;
    cfg.leaf_compression = hdr_.leaf_compression != 0;
    cfg.route_aggregation = hdr_.route_aggregation != 0;
    cfg.pool_headroom_log2 = hdr_.pool_headroom_log2;
    cfg.hugepages = static_cast<alloc::HugepagePolicy>(hdr_.hugepage_policy);
    return cfg;
}

// ---------------------------------------------------------------------------
// Structural verifier

namespace {

/// Image-side walker: the same invariants analysis::StructureWalker checks
/// on a live trie, restated over the raw sections (no allocators to cross-
/// check here — the image carries only the arrays).
template <class Addr>
class ImageWalker {
public:
    using Fib = SnapshotFib<Addr>;
    using Node = typename Fib::Node;

    ImageWalker(const Fib& fib, VerifyReport& r)
        : fib_(fib),
          leaf_compression_(fib.header().leaf_compression != 0),
          report_(r),
          visited_(static_cast<std::size_t>(fib.node_count()), false)
    {
    }

    void walk_root(std::uint32_t index, unsigned level, const std::string& where)
    {
        if (index >= fib_.node_count()) {
            add(where + ": root node index " + std::to_string(index) + " >= node count " +
                std::to_string(fib_.node_count()));
            return;
        }
        walk_node(index, level, where);
    }

private:
    void add(const std::string& detail)
    {
        if (report_.violations.size() < kMaxRecorded) report_.violations.push_back(detail);
        ++recorded_;
        if (recorded_ == kMaxRecorded + 1)
            report_.violations.push_back("... further violations not recorded");
    }

    void walk_node(std::uint32_t index, unsigned level, const std::string& where)
    {
        if (visited_[index]) {
            add(where + ": node " + std::to_string(index) + " reachable twice");
            return;
        }
        visited_[index] = true;
        ++report_.nodes_checked;
        if (level >= Fib::kWidth) {
            add(where + ": internal node at bit level " + std::to_string(level));
            return;
        }
        const Node& n = fib_.nodes_data()[index];
        const auto nkids = static_cast<std::uint32_t>(netbase::popcount64(n.vector));
        std::uint32_t nleaves = 0;
        if (leaf_compression_) {
            nleaves = static_cast<std::uint32_t>(netbase::popcount64(n.leafvec));
            if ((n.leafvec & n.vector) != 0)
                add(where + ": node " + std::to_string(index) +
                    " has leafvec bits on internal slots");
            if (n.vector != ~std::uint64_t{0}) {
                const auto first_leaf_slot = static_cast<unsigned>(std::countr_one(n.vector));
                if (((n.leafvec >> first_leaf_slot) & 1) == 0)
                    add(where + ": node " + std::to_string(index) + " first leaf slot " +
                        std::to_string(first_leaf_slot) + " does not start a run");
            }
        } else {
            nleaves = 64 - nkids;
            if (n.leafvec != 0)
                add(where + ": node " + std::to_string(index) + " has leafvec set in basic mode");
        }

        if (nleaves != 0) {
            const auto block = alloc::BuddyAllocator::block_size_for(nleaves);
            if (std::uint64_t{n.base0} + block > fib_.leaf_count()) {
                add(where + ": node " + std::to_string(index) + " leaf run at " +
                    std::to_string(n.base0) + "(+" + std::to_string(block) +
                    ") exceeds leaf count " + std::to_string(fib_.leaf_count()));
            } else {
                report_.leaves_checked += nleaves;
                if (n.base0 % block != 0)
                    add(where + ": node " + std::to_string(index) + " leaf run at " +
                        std::to_string(n.base0) + " not aligned to " + std::to_string(block));
            }
        }

        if (nkids != 0) {
            const auto block = alloc::BuddyAllocator::block_size_for(nkids);
            if (std::uint64_t{n.base1} + block > fib_.node_count()) {
                add(where + ": node " + std::to_string(index) + " child run at " +
                    std::to_string(n.base1) + "(+" + std::to_string(block) +
                    ") exceeds node count " + std::to_string(fib_.node_count()));
                return;  // children unreadable
            }
            if (n.base1 % block != 0)
                add(where + ": node " + std::to_string(index) + " child run at " +
                    std::to_string(n.base1) + " not aligned to " + std::to_string(block));
            for (std::uint32_t i = 0; i < nkids; ++i)
                walk_node(n.base1 + i, level + Fib::kStride, where);
        }
    }

    static constexpr std::size_t kMaxRecorded = 64;

    const Fib& fib_;
    bool leaf_compression_;
    VerifyReport& report_;
    std::vector<bool> visited_;
    std::size_t recorded_ = 0;
};

}  // namespace

template <class Addr>
VerifyReport verify_image(const SnapshotFib<Addr>& fib)
{
    VerifyReport r;
    const ImageHeader& hdr = fib.header();
    ImageWalker<Addr> walker(fib, r);
    if (hdr.direct_bits == 0) {
        walker.walk_root(hdr.root_index, 0, "root");
    } else {
        const std::uint32_t leaf_bit = poptrie::Poptrie<Addr>::kDirectLeafBit;
        for (std::uint64_t d = 0; d < hdr.direct_count; ++d) {
            ++r.direct_slots_checked;
            const std::uint32_t v = fib.direct_data()[d];
            if (v & leaf_bit) {
                if ((v & ~leaf_bit) > 0xFFFFu)
                    r.violations.push_back("direct[" + std::to_string(d) +
                                           "] leaf payload " + std::to_string(v & ~leaf_bit) +
                                           " exceeds the 16-bit next-hop range");
            } else {
                walker.walk_root(v, hdr.direct_bits, "direct[" + std::to_string(d) + "]");
            }
        }
    }
    return r;
}

template class SnapshotFib<netbase::Ipv4Addr>;
template class SnapshotFib<netbase::Ipv6Addr>;
template std::vector<std::uint8_t> serialize(const poptrie::Poptrie<netbase::Ipv4Addr>&);
template std::vector<std::uint8_t> serialize(const poptrie::Poptrie<netbase::Ipv6Addr>&);
template void save(const poptrie::Poptrie<netbase::Ipv4Addr>&, const std::string&);
template void save(const poptrie::Poptrie<netbase::Ipv6Addr>&, const std::string&);
template VerifyReport verify_image(const SnapshotFib<netbase::Ipv4Addr>&);
template VerifyReport verify_image(const SnapshotFib<netbase::Ipv6Addr>&);

}  // namespace snapshot
