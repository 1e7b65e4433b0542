#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/check.h"
#include "graph/fingerprint.h"
#include "graph/graph.h"

namespace smallworld {

/// The `.girgpack` on-disk graph format (DESIGN.md §13).
///
/// A pack is a little-endian, sectioned file:
///
///   PackHeader (64 B) | section table (24 B per entry) | sections...
///
/// Every section starts on an 8-byte boundary. The adjacency is stored
/// either raw (the CSR arc array verbatim — a zero-copy mmap serves it with
/// no decode) or as per-vertex delta-varint blocks (Morton relabeling makes
/// neighbor gaps small, so LEB128 gap coding shrinks the rows 2-4x).
/// Attribute sections carry the weights and coordinates that feed the
/// phi vertex records, so a routing process needs nothing but the pack.
///
/// Compatibility policy: the version is bumped on any layout change; readers
/// reject packs whose version or endian tag they do not match, via
/// GIRG_CHECK, loudly and immediately. The header fingerprint is the repo's
/// canonical instance digest (girg/fingerprint.h) — a pure function of
/// (seed, params) — so two packs of the same instance are byte-identical
/// and golden tables can pin expected digests.

inline constexpr char kPackMagic[8] = {'G', 'I', 'R', 'G', 'P', 'A', 'C', 'K'};
inline constexpr std::uint16_t kPackEndianTag = 0x0102;  ///< reads back swapped on BE
inline constexpr std::uint16_t kPackVersion = 1;

enum PackFlags : std::uint32_t {
    kPackFlagCompressed = 1U << 0,     ///< adjacency is delta-varint blocks
    kPackFlagHasParams = 1U << 1,      ///< params section present
    kPackFlagHasAttributes = 1U << 2,  ///< weights + positions sections present
};

enum class PackSection : std::uint32_t {
    kParams = 1,         ///< one PackedParams
    kOffsets = 2,        ///< (n+1) u64 cumulative degrees (both variants)
    kAdjacencyRaw = 3,   ///< num_arcs u32 neighbor ids (raw variant)
    kBlobIndex = 4,      ///< (n+1) u64 byte offsets into the blob (compressed)
    kAdjacencyBlob = 5,  ///< concatenated varint blocks (compressed)
    kWeights = 6,        ///< n doubles
    kPositions = 7,      ///< n * dim doubles, vertex-major
};

/// Fixed 64-byte file header. On-disk struct: layout-pinned below and by
/// girg-lint R7 (layout-pin); never reorder or retype fields without a
/// version bump.
struct PackHeader {
    char magic[8];
    std::uint16_t endian_tag;
    std::uint16_t version;
    std::uint32_t flags;
    std::uint64_t num_vertices;
    std::uint64_t num_arcs;  ///< 2 * num_edges
    std::uint64_t fingerprint;
    std::uint32_t section_count;
    std::uint32_t max_degree;
    std::uint64_t file_bytes;
    std::uint64_t reserved;
};
static_assert(std::is_trivially_copyable_v<PackHeader>, "on-disk struct must be memcpyable");
static_assert(sizeof(PackHeader) == 64, "on-disk layout pin");

/// Section table entry. On-disk struct (girg-lint R7).
struct PackSectionEntry {
    std::uint32_t kind;  ///< PackSection value
    std::uint32_t reserved;
    std::uint64_t offset;  ///< absolute file offset, 8-byte aligned
    std::uint64_t bytes;
};
static_assert(std::is_trivially_copyable_v<PackSectionEntry>,
              "on-disk struct must be memcpyable");
static_assert(sizeof(PackSectionEntry) == 24, "on-disk layout pin");

/// Model parameters as stored in the pack — an on-disk struct (girg-lint
/// R7) of plain doubles/ints so the graph layer stays independent of girg
/// headers; girg/pack_io converts to and from GirgParams. `seed` is the
/// generation seed when known, 0 otherwise.
struct PackedParams {
    double n;
    double alpha;
    double beta;
    double wmin;
    double edge_scale;
    std::uint32_t dim;
    std::uint32_t norm;  ///< Norm enum value
    std::uint64_t seed;
    std::uint64_t reserved;
};
static_assert(std::is_trivially_copyable_v<PackedParams>, "on-disk struct must be memcpyable");
static_assert(sizeof(PackedParams) == 64, "on-disk layout pin");

/// Per-thread decode buffer for the compressed variant: each worker routing
/// over one mmap'd pack owns a scratch and gets its own GraphView, so row
/// decodes never race. Sized to the pack's max degree by PackedGraph::view.
class NeighborScratch {
public:
    NeighborScratch() = default;
    explicit NeighborScratch(std::size_t max_degree) : buffer_(max_degree) {}

    void ensure(std::size_t max_degree) {
        if (buffer_.size() < max_degree) buffer_.resize(max_degree);
    }
    [[nodiscard]] Vertex* data() noexcept { return buffer_.data(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return buffer_.size(); }

private:
    std::vector<Vertex> buffer_;
};

/// Appends the LEB128 encoding of `value` to `out`.
inline void pack_append_varint(std::vector<std::uint8_t>& out, std::uint32_t value) {
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value) | 0x80U);
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

/// Appends one adjacency row's varint block: first neighbor verbatim, every
/// later one as gap-minus-one (rows are strictly increasing). The exact
/// inverse of GraphView::decode_row.
inline void pack_encode_row(std::vector<std::uint8_t>& out, std::span<const Vertex> row) {
    Vertex previous = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
        pack_append_varint(out, i == 0 ? row[i] : row[i] - previous - 1);
        previous = row[i];
    }
}

/// Byte sizes and section accounting returned by PackWriter::finish and
/// PackedGraph::info-style queries; the bench derives pack ratios from it.
struct PackFileInfo {
    std::uint64_t file_bytes = 0;
    std::uint64_t adjacency_bytes = 0;  ///< raw arcs or blob + blob index
    std::uint64_t num_arcs = 0;
    std::uint64_t fingerprint = 0;
    std::uint32_t max_degree = 0;
};

/// Streaming `.girgpack` writer: attributes and params up front, then one
/// sorted row per vertex in vertex order (resident CSR rows or the
/// out-of-core merge's output — both produce byte-identical files), then
/// finish() patches the header, section table, offsets and blob index.
/// Buffered state is O(n) (the offset/index tables), never O(arcs).
class PackWriter {
public:
    PackWriter(const std::string& path, Vertex num_vertices, const PackedParams& params,
               std::span<const double> weights, std::span<const double> coords,
               bool compress);
    ~PackWriter();

    PackWriter(const PackWriter&) = delete;
    PackWriter& operator=(const PackWriter&) = delete;

    /// Appends vertex `next_vertex()`'s adjacency row; must be sorted,
    /// strictly increasing, self-loop-free and within [0, n).
    void add_row(std::span<const Vertex> row);

    [[nodiscard]] Vertex next_vertex() const noexcept {
        return static_cast<Vertex>(offsets_.size() - 1);
    }

    /// Requires exactly n rows added. Closes the file.
    PackFileInfo finish();

private:
    void write_bytes(const void* data, std::size_t bytes);
    void write_at(std::uint64_t offset, const void* data, std::size_t bytes);

    std::FILE* file_ = nullptr;
    std::string path_;
    Vertex n_ = 0;
    bool compress_ = false;
    bool finished_ = false;
    std::uint32_t flags_ = 0;
    FingerprintAccumulator fingerprint_;     // streaming FNV-1a digest
    std::vector<std::uint64_t> offsets_;     // cumulative degrees, offsets_[0] = 0
    std::vector<std::uint64_t> blob_index_;  // cumulative blob bytes (compressed)
    std::vector<std::uint8_t> encode_buffer_;
    std::uint32_t max_degree_ = 0;
    std::uint64_t adjacency_start_ = 0;  // file offset where rows are appended
    std::uint64_t adjacency_bytes_ = 0;
    std::uint64_t offsets_section_ = 0;  // reserved section offsets to patch
    std::uint64_t index_section_ = 0;
    std::vector<PackSectionEntry> sections_;  // fixed at ctor except byte counts
};

/// A memory-mapped `.girgpack`. Opening validates via GIRG_CHECK what keeps
/// every row read in bounds, in O(n) and without touching the adjacency:
/// header, endianness, version, section bounds and sizes, monotone offsets
/// and blob index, and max_degree equal to the largest degree. verify() is
/// the rest of the trust check (DESIGN.md §13): every row decoded with
/// bounds checks, sorted, in range and canonically encoded, and the header
/// fingerprint recomputed when the attributes are present. Until verify()
/// has passed, a compressed row's bytes are not known to decode inside
/// their block. The mapping is read-only and shared: any number of threads
/// may read concurrently; compressed-row decoding stays thread-private
/// through per-view NeighborScratch.
class PackedGraph {
public:
    PackedGraph() = default;
    explicit PackedGraph(const std::string& path);
    ~PackedGraph();

    PackedGraph(PackedGraph&& other) noexcept;
    PackedGraph& operator=(PackedGraph&& other) noexcept;
    PackedGraph(const PackedGraph&) = delete;
    PackedGraph& operator=(const PackedGraph&) = delete;

    [[nodiscard]] const PackHeader& header() const noexcept { return *header_; }
    [[nodiscard]] Vertex num_vertices() const noexcept {
        return static_cast<Vertex>(header_->num_vertices);
    }
    [[nodiscard]] std::size_t num_edges() const noexcept { return header_->num_arcs / 2; }
    [[nodiscard]] bool compressed() const noexcept {
        return (header_->flags & kPackFlagCompressed) != 0;
    }
    [[nodiscard]] bool has_params() const noexcept {
        return (header_->flags & kPackFlagHasParams) != 0;
    }
    [[nodiscard]] bool has_attributes() const noexcept {
        return (header_->flags & kPackFlagHasAttributes) != 0;
    }
    [[nodiscard]] std::uint64_t fingerprint() const noexcept { return header_->fingerprint; }
    [[nodiscard]] std::uint32_t max_degree() const noexcept { return header_->max_degree; }
    [[nodiscard]] std::uint64_t file_bytes() const noexcept { return header_->file_bytes; }

    /// Raw bytes of one section; empty span when absent.
    [[nodiscard]] std::span<const std::uint8_t> section(PackSection kind) const noexcept;

    [[nodiscard]] PackedParams params() const;  // requires has_params()
    [[nodiscard]] std::span<const double> weights() const;
    /// Vertex-major coordinates; n * dim doubles.
    [[nodiscard]] std::span<const double> coords() const;
    [[nodiscard]] int dim() const;  // from params, or coords size / n
    [[nodiscard]] std::span<const std::size_t> offsets() const noexcept;

    /// Drops the resident pages lying wholly inside `bytes`, a range of this
    /// mapping (e.g. a section already copied out). The mapping is read-only
    /// and private, so a later read re-faults the same bytes from the file.
    void release_pages(std::span<const std::uint8_t> bytes) const noexcept;

    /// Zero-copy view of a raw pack (aborts on a compressed one).
    [[nodiscard]] GraphView view() const;
    /// View decoding through `scratch` (resized to max_degree here); the
    /// scratch must outlive the view, one scratch per thread. Works for
    /// both variants — a raw pack ignores the scratch.
    [[nodiscard]] GraphView view(NeighborScratch& scratch) const;

    /// The deep check (GIRG_CHECK aborts on violation): every row decoded
    /// inside its block, strictly increasing, in range and self-loop-free,
    /// each compressed block exactly its row's canonical encoding, and the
    /// header fingerprint equal to the sections' when attributes are present.
    void verify() const;

    /// Bytes actually spent on adjacency storage (raw arcs, or blob plus
    /// blob index), for pack-ratio reporting.
    [[nodiscard]] PackFileInfo info() const noexcept;

private:
    void open(const std::string& path);
    void close() noexcept;

    const std::uint8_t* base_ = nullptr;
    std::size_t mapped_bytes_ = 0;
    const PackHeader* header_ = nullptr;
    std::span<const PackSectionEntry> table_;
};

}  // namespace smallworld
