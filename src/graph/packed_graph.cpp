#include "graph/packed_graph.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

namespace smallworld {

namespace {

// The offsets section stores u64 but GraphView consumes std::size_t — pin
// the reinterpretation once. (On every LP64 target they are the same type.)
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "pack offsets require 64-bit size_t");

[[nodiscard]] std::uint64_t align8(std::uint64_t offset) noexcept {
    return (offset + 7) & ~std::uint64_t{7};
}

/// GraphView::decode_row with every bound checked: vertex v's `degree`
/// neighbors from blob[begin, end), each varint ending inside the block
/// within 5 bytes, each id below n. The unchecked decode of a block that
/// passes yields the same row.
void decode_checked(std::span<const std::uint8_t> blob, std::uint64_t begin,
                    std::uint64_t end, std::uint64_t degree, std::uint64_t v, std::uint64_t n,
                    std::vector<Vertex>& row) {
    row.clear();
    std::uint64_t at = begin;
    for (std::uint64_t i = 0; i < degree; ++i) {
        std::uint64_t value = 0;
        for (int shift = 0;; shift += 7) {
            GIRG_CHECK(at < end && shift < 35, "pack blob block ", v,
                       " ends inside a varint or holds one longer than 5 bytes");
            const std::uint8_t byte = blob[at++];
            value |= std::uint64_t{byte & 0x7FU} << shift;
            if ((byte & 0x80U) == 0) break;
        }
        const std::uint64_t id = i == 0 ? value : std::uint64_t{row.back()} + value + 1;
        GIRG_CHECK(id < n, "pack row ", v, " neighbor ", id, " >= n=", n);
        row.push_back(static_cast<Vertex>(id));
    }
}

}  // namespace

PackWriter::PackWriter(const std::string& path, Vertex num_vertices,
                       const PackedParams& params, std::span<const double> weights,
                       std::span<const double> coords, bool compress)
    : path_(path), n_(num_vertices), compress_(compress) {
    const bool has_attributes = !weights.empty();
    GIRG_CHECK(weights.empty() == coords.empty(),
               "pack attributes must supply both weights and coords or neither");
    GIRG_CHECK(weights.empty() || weights.size() == num_vertices, "pack weights size ",
               weights.size(), " != n=", num_vertices);
    GIRG_CHECK(coords.empty() || coords.size() % std::max<std::size_t>(num_vertices, 1) == 0,
               "pack coords size ", coords.size(), " not a multiple of n=", num_vertices);

    file_ = std::fopen(path.c_str(), "wb");
    GIRG_CHECK(file_ != nullptr, "pack writer cannot open ", path, ": ",
               std::strerror(errno));

    flags_ = kPackFlagHasParams;
    if (compress_) flags_ |= kPackFlagCompressed;
    if (has_attributes) flags_ |= kPackFlagHasAttributes;

    fingerprint_.add_attributes(weights, coords);
    offsets_.reserve(static_cast<std::size_t>(n_) + 1);
    offsets_.push_back(0);
    if (compress_) {
        blob_index_.reserve(static_cast<std::size_t>(n_) + 1);
        blob_index_.push_back(0);
    }

    // Fix the section layout now; only byte counts of the trailing
    // adjacency section and the reserved tables are patched at finish().
    const std::size_t count = 2 +                          // params + offsets
                              (has_attributes ? 2 : 0) +   // weights + positions
                              (compress_ ? 2 : 1);         // blob index + blob | raw
    std::uint64_t cursor = sizeof(PackHeader) + count * sizeof(PackSectionEntry);
    const auto add_section = [&](PackSection kind, std::uint64_t bytes) {
        GIRG_CHECK(cursor % 8 == 0, "pack section misaligned at ", cursor);
        sections_.push_back({static_cast<std::uint32_t>(kind), 0, cursor, bytes});
        cursor = align8(cursor + bytes);
        return sections_.back().offset;
    };

    const std::uint64_t table_bytes = static_cast<std::uint64_t>(n_ + 1) * 8;
    const std::uint64_t params_at = add_section(PackSection::kParams, sizeof(PackedParams));
    std::uint64_t weights_at = 0;
    std::uint64_t coords_at = 0;
    if (has_attributes) {
        weights_at = add_section(PackSection::kWeights, weights.size_bytes());
        coords_at = add_section(PackSection::kPositions, coords.size_bytes());
    }
    offsets_section_ = add_section(PackSection::kOffsets, table_bytes);
    if (compress_) {
        index_section_ = add_section(PackSection::kBlobIndex, table_bytes);
        adjacency_start_ = add_section(PackSection::kAdjacencyBlob, 0);
    } else {
        adjacency_start_ = add_section(PackSection::kAdjacencyRaw, 0);
    }

    write_at(params_at, &params, sizeof(params));
    if (has_attributes) {
        write_at(weights_at, weights.data(), weights.size_bytes());
        write_at(coords_at, coords.data(), coords.size_bytes());
    }
    GIRG_CHECK(std::fseek(file_, static_cast<long>(adjacency_start_), SEEK_SET) == 0,
               "pack writer seek failed: ", std::strerror(errno));
}

PackWriter::~PackWriter() {
    if (file_ != nullptr) std::fclose(file_);  // finish() not reached: partial file
}

void PackWriter::write_bytes(const void* data, std::size_t bytes) {
    // An empty row has no storage: fwrite's pointer must be non-null even
    // for a zero-byte write.
    if (bytes == 0) return;
    GIRG_CHECK(std::fwrite(data, 1, bytes, file_) == bytes, "pack write failed to ",
               path_, ": ", std::strerror(errno));
}

void PackWriter::write_at(std::uint64_t offset, const void* data, std::size_t bytes) {
    GIRG_CHECK(std::fseek(file_, static_cast<long>(offset), SEEK_SET) == 0,
               "pack writer seek failed: ", std::strerror(errno));
    write_bytes(data, bytes);
}

void PackWriter::add_row(std::span<const Vertex> row) {
    const Vertex u = next_vertex();
    GIRG_CHECK(u < n_, "pack writer got more than ", n_, " rows");
    for (std::size_t i = 0; i < row.size(); ++i) {
        GIRG_CHECK(row[i] < n_, "pack row ", u, " neighbor ", row[i], " >= n=", n_);
        GIRG_CHECK(row[i] != u, "pack row ", u, " contains a self-loop");
        GIRG_CHECK(i == 0 || row[i] > row[i - 1], "pack row ", u,
                   " not strictly increasing at entry ", i);
    }

    fingerprint_.add_row(row);
    max_degree_ = std::max(max_degree_, static_cast<std::uint32_t>(row.size()));
    offsets_.push_back(offsets_.back() + row.size());
    if (compress_) {
        encode_buffer_.clear();
        pack_encode_row(encode_buffer_, row);
        write_bytes(encode_buffer_.data(), encode_buffer_.size());
        adjacency_bytes_ += encode_buffer_.size();
        blob_index_.push_back(blob_index_.back() + encode_buffer_.size());
    } else {
        write_bytes(row.data(), row.size_bytes());
        adjacency_bytes_ += row.size_bytes();
    }
}

PackFileInfo PackWriter::finish() {
    GIRG_CHECK(!finished_, "pack writer finish() called twice");
    GIRG_CHECK(offsets_.size() == static_cast<std::size_t>(n_) + 1,
               "pack writer finished after ", offsets_.size() - 1, " of ", n_, " rows");
    finished_ = true;

    const std::uint64_t num_arcs = offsets_.back();
    sections_.back().bytes = adjacency_bytes_;

    write_at(offsets_section_, offsets_.data(), offsets_.size() * 8);
    if (compress_) write_at(index_section_, blob_index_.data(), blob_index_.size() * 8);

    PackHeader header{};
    std::memcpy(header.magic, kPackMagic, sizeof(kPackMagic));
    header.endian_tag = kPackEndianTag;
    header.version = kPackVersion;
    header.flags = flags_;
    header.num_vertices = n_;
    header.num_arcs = num_arcs;
    header.fingerprint = fingerprint_.value();
    header.section_count = static_cast<std::uint32_t>(sections_.size());
    header.max_degree = max_degree_;
    header.file_bytes = adjacency_start_ + adjacency_bytes_;

    write_at(0, &header, sizeof(header));
    write_bytes(sections_.data(), sections_.size() * sizeof(PackSectionEntry));
    GIRG_CHECK(std::fclose(file_) == 0, "pack close failed for ", path_, ": ",
               std::strerror(errno));
    file_ = nullptr;

    PackFileInfo result;
    result.file_bytes = header.file_bytes;
    result.adjacency_bytes =
        adjacency_bytes_ + (compress_ ? blob_index_.size() * 8 : 0);
    result.num_arcs = num_arcs;
    result.fingerprint = header.fingerprint;
    result.max_degree = max_degree_;
    return result;
}

PackedGraph::PackedGraph(const std::string& path) { open(path); }

PackedGraph::~PackedGraph() { close(); }

PackedGraph::PackedGraph(PackedGraph&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)),
      header_(std::exchange(other.header_, nullptr)),
      table_(std::exchange(other.table_, {})) {}

PackedGraph& PackedGraph::operator=(PackedGraph&& other) noexcept {
    if (this != &other) {
        close();
        base_ = std::exchange(other.base_, nullptr);
        mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
        header_ = std::exchange(other.header_, nullptr);
        table_ = std::exchange(other.table_, {});
    }
    return *this;
}

void PackedGraph::open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    GIRG_CHECK(fd >= 0, "pack open failed for ", path, ": ", std::strerror(errno));
    struct stat st{};
    GIRG_CHECK(::fstat(fd, &st) == 0, "pack fstat failed for ", path, ": ",
               std::strerror(errno));
    const auto size = static_cast<std::size_t>(st.st_size);
    GIRG_CHECK(size >= sizeof(PackHeader), "pack file truncated: ", path, " is ", size,
               " bytes, header needs ", sizeof(PackHeader));

    void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    GIRG_CHECK(mem != MAP_FAILED, "pack mmap failed for ", path, ": ",
               std::strerror(errno));
    base_ = static_cast<const std::uint8_t*>(mem);
    mapped_bytes_ = size;

    // Routing touches rows in objective order, not file order — tell the
    // kernel not to read ahead so RSS tracks the touched working set.
    ::madvise(mem, size, MADV_RANDOM);

    header_ = reinterpret_cast<const PackHeader*>(base_);
    GIRG_CHECK(std::memcmp(header_->magic, kPackMagic, sizeof(kPackMagic)) == 0,
               "pack magic mismatch in ", path);
    GIRG_CHECK(header_->endian_tag == kPackEndianTag,
               "pack endianness mismatch in ", path, " (tag ", header_->endian_tag, ")");
    GIRG_CHECK(header_->version == kPackVersion, "pack version ", header_->version,
               " unsupported (expected ", kPackVersion, ") in ", path);
    GIRG_CHECK(header_->file_bytes == size, "pack file truncated: header records ",
               header_->file_bytes, " bytes, file has ", size);
    GIRG_CHECK(header_->num_vertices <= kNoVertex, "pack vertex count ",
               header_->num_vertices, " exceeds the 32-bit vertex id space");

    const std::uint64_t table_end =
        sizeof(PackHeader) + std::uint64_t{header_->section_count} * sizeof(PackSectionEntry);
    GIRG_CHECK(table_end <= size, "pack section table overruns the file: ", path);
    table_ = {reinterpret_cast<const PackSectionEntry*>(base_ + sizeof(PackHeader)),
              header_->section_count};
    for (const PackSectionEntry& entry : table_) {
        GIRG_CHECK(entry.offset % 8 == 0, "pack section ", entry.kind,
                   " misaligned at offset ", entry.offset);
        GIRG_CHECK(entry.offset >= table_end && entry.offset <= size &&
                       entry.bytes <= size - entry.offset,
                   "pack section ", entry.kind, " out of bounds");
    }

    // O(n) structure, so that every row a view reads lies inside its
    // section and fits a decode buffer of max_degree entries; the rows'
    // contents are verify()'s.
    const std::uint64_t n = header_->num_vertices;
    const auto off = section(PackSection::kOffsets);
    GIRG_CHECK(off.size() == (n + 1) * 8, "pack offsets section has ", off.size(),
               " bytes, expected ", (n + 1) * 8);
    const auto offsets = this->offsets();
    GIRG_CHECK(offsets.front() == 0 && offsets.back() == header_->num_arcs,
               "pack offsets endpoints disagree with the header arc count");
    std::uint64_t max_degree = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
        GIRG_CHECK(offsets[v] <= offsets[v + 1], "pack offsets not monotone at vertex ", v);
        max_degree = std::max<std::uint64_t>(max_degree, offsets[v + 1] - offsets[v]);
    }
    GIRG_CHECK(max_degree == header_->max_degree, "pack max_degree header field ",
               header_->max_degree, " != measured ", max_degree);
    if (compressed()) {
        const auto index = section(PackSection::kBlobIndex);
        const auto blob = section(PackSection::kAdjacencyBlob);
        GIRG_CHECK(index.size() == (n + 1) * 8, "pack blob index has ", index.size(),
                   " bytes, expected ", (n + 1) * 8);
        const auto* idx = reinterpret_cast<const std::uint64_t*>(index.data());
        GIRG_CHECK(idx[0] == 0 && idx[n] == blob.size(),
                   "pack blob index endpoints disagree with the blob section");
        for (std::uint64_t v = 0; v < n; ++v) {
            GIRG_CHECK(idx[v] <= idx[v + 1], "pack blob index not monotone at vertex ", v);
        }
    } else {
        const auto raw = section(PackSection::kAdjacencyRaw);
        GIRG_CHECK(raw.size() % sizeof(Vertex) == 0 &&
                       raw.size() / sizeof(Vertex) == header_->num_arcs,
                   "pack raw adjacency bytes disagree with the header arc count");
    }
    if (has_params()) {
        GIRG_CHECK(section(PackSection::kParams).size() == sizeof(PackedParams),
                   "pack params section has the wrong size");
    }
    if (has_attributes()) {
        GIRG_CHECK(section(PackSection::kWeights).size() == n * sizeof(double),
                   "pack weights section has the wrong size");
        const std::size_t positions = section(PackSection::kPositions).size();
        GIRG_CHECK(n == 0 ? positions == 0
                          : positions != 0 && positions % (n * sizeof(double)) == 0,
                   "pack positions section has the wrong size");
    }
}

void PackedGraph::close() noexcept {
    if (base_ != nullptr) {
        ::munmap(const_cast<std::uint8_t*>(base_), mapped_bytes_);
        base_ = nullptr;
        mapped_bytes_ = 0;
        header_ = nullptr;
        table_ = {};
    }
}

std::span<const std::uint8_t> PackedGraph::section(PackSection kind) const noexcept {
    for (const PackSectionEntry& entry : table_) {
        if (entry.kind == static_cast<std::uint32_t>(kind)) {
            return {base_ + entry.offset, entry.bytes};
        }
    }
    return {};
}

PackedParams PackedGraph::params() const {
    GIRG_CHECK(has_params(), "pack has no params section");
    PackedParams result;
    std::memcpy(&result, section(PackSection::kParams).data(), sizeof(result));
    return result;
}

std::span<const double> PackedGraph::weights() const {
    GIRG_CHECK(has_attributes(), "pack has no attribute sections");
    const auto raw = section(PackSection::kWeights);
    return {reinterpret_cast<const double*>(raw.data()), raw.size() / sizeof(double)};
}

std::span<const double> PackedGraph::coords() const {
    GIRG_CHECK(has_attributes(), "pack has no attribute sections");
    const auto raw = section(PackSection::kPositions);
    return {reinterpret_cast<const double*>(raw.data()), raw.size() / sizeof(double)};
}

int PackedGraph::dim() const {
    if (has_params()) return static_cast<int>(params().dim);
    const std::size_t n = header_->num_vertices;
    return n == 0 ? 1 : static_cast<int>(coords().size() / n);
}

void PackedGraph::release_pages(std::span<const std::uint8_t> bytes) const noexcept {
    if (bytes.empty()) return;
    const auto begin = reinterpret_cast<std::uintptr_t>(bytes.data());
    const std::uintptr_t end = begin + bytes.size();
    const auto base = reinterpret_cast<std::uintptr_t>(base_);
    GIRG_CHECK(begin >= base && end <= base + mapped_bytes_, "release_pages outside the mapping");
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const std::uintptr_t first = (begin + page - 1) / page * page;
    const std::uintptr_t last = end / page * page;
    if (first < last) ::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
}

std::span<const std::size_t> PackedGraph::offsets() const noexcept {
    const auto raw = section(PackSection::kOffsets);
    return {reinterpret_cast<const std::size_t*>(raw.data()), raw.size() / 8};
}

GraphView PackedGraph::view() const {
    GIRG_CHECK(!compressed(),
               "compressed pack needs a NeighborScratch; use view(scratch)");
    const auto raw = section(PackSection::kAdjacencyRaw);
    return {num_vertices(), header_->num_arcs, offsets().data(),
            reinterpret_cast<const Vertex*>(raw.data())};
}

GraphView PackedGraph::view(NeighborScratch& scratch) const {
    if (!compressed()) return view();
    scratch.ensure(header_->max_degree);
    const auto blob = section(PackSection::kAdjacencyBlob);
    const auto index = section(PackSection::kBlobIndex);
    return {num_vertices(), header_->num_arcs, offsets().data(), blob.data(),
            reinterpret_cast<const std::uint64_t*>(index.data()), scratch.data()};
}

void PackedGraph::verify() const {
    const std::uint64_t n = header_->num_vertices;
    const auto off = offsets();
    const auto blob = section(PackSection::kAdjacencyBlob);
    const auto* index = reinterpret_cast<const std::uint64_t*>(
        section(PackSection::kBlobIndex).data());
    const auto* raw =
        reinterpret_cast<const Vertex*>(section(PackSection::kAdjacencyRaw).data());
    FingerprintAccumulator fingerprint;
    if (has_attributes()) fingerprint.add_attributes(weights(), coords());
    std::vector<Vertex> row;
    std::vector<std::uint8_t> block;
    for (std::uint64_t v = 0; v < n; ++v) {
        if (compressed()) {
            decode_checked(blob, index[v], index[v + 1], off[v + 1] - off[v], v, n, row);
            // The block must be the row's canonical encoding, no byte more.
            block.clear();
            pack_encode_row(block, row);
            GIRG_CHECK(block.size() == index[v + 1] - index[v], "pack blob block ", v,
                       " has ", index[v + 1] - index[v], " bytes, canonical encode is ",
                       block.size());
        } else {
            row.assign(raw + off[v], raw + off[v + 1]);
        }
        for (std::size_t i = 0; i < row.size(); ++i) {
            GIRG_CHECK(row[i] < n, "pack row ", v, " neighbor ", row[i], " >= n=", n);
            GIRG_CHECK(row[i] != v, "pack row ", v, " contains a self-loop");
            GIRG_CHECK(i == 0 || row[i] > row[i - 1], "pack row ", v,
                       " not strictly increasing at entry ", i);
        }
        fingerprint.add_row(row);
    }
    GIRG_CHECK(!has_attributes() || fingerprint.value() == header_->fingerprint,
               "pack fingerprint mismatch: header records ", header_->fingerprint,
               ", sections hash to ", fingerprint.value());
}

PackFileInfo PackedGraph::info() const noexcept {
    PackFileInfo result;
    result.file_bytes = header_->file_bytes;
    result.num_arcs = header_->num_arcs;
    result.fingerprint = header_->fingerprint;
    result.max_degree = header_->max_degree;
    result.adjacency_bytes = compressed()
                                 ? section(PackSection::kAdjacencyBlob).size() +
                                       section(PackSection::kBlobIndex).size()
                                 : section(PackSection::kAdjacencyRaw).size();
    return result;
}

}  // namespace smallworld
