#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"

namespace smallworld {

class ChunkedEdgeList;

using Vertex = std::uint32_t;
using Edge = std::pair<Vertex, Vertex>;

inline constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

/// std::allocator variant whose value-less construct() default-initializes,
/// so `resize(n)` on a vector of trivial elements leaves the new elements
/// uninitialized instead of zero-filling them. For the adjacency array this
/// is a peak-RSS property, not a speed hack: a 2*m-element zero-fill would
/// touch every page *before* the streaming CSR scatter starts retiring edge
/// chunks, forcing edge storage and adjacency to fully coexist. Left
/// untouched, pages become resident only as the scatter claims slots — and
/// every slot is written exactly once (counts and scatter skip the same
/// self-loops), so no code ever reads an uninitialized element.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };

    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
        ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

/// Immutable undirected graph in compressed sparse row form. Each undirected
/// edge {u,v} is stored twice (as u->v and v->u); neighbor lists are sorted,
/// enabling O(log deg) adjacency queries and deterministic iteration order,
/// which in turn makes every routing run reproducible.
class Graph {
public:
    Graph() = default;

    /// Builds from an undirected edge list. Self-loops are dropped and
    /// parallel edges are collapsed (the model never produces either, but
    /// test inputs might).
    ///
    /// The row passes of graph/row_build.h run over blocks of the list on up
    /// to `threads` workers (0 = all hardware threads); one worker, or a
    /// single block, runs them inline on the calling thread. The result is
    /// byte-identical at any thread count: the scatter order differs, but
    /// every row is then sorted, and duplicates are equal values, so the
    /// sorted/deduped CSR is a pure function of the edge multiset.
    Graph(Vertex num_vertices, std::span<const Edge> edges, unsigned threads = 0);

    /// CSR-direct construction from a chunked edge stream (see
    /// graph/edge_stream.h): a count pass over the chunks, a prefix sum, and
    /// a scatter pass that *retires each chunk as it is consumed*, so the
    /// contiguous edge list of the span constructor never exists and edge
    /// storage drains while the adjacency array fills. Produces a CSR
    /// byte-identical to `Graph(n, stream.to_vector(), threads)` — the CSR
    /// is a pure function of the edge multiset (rows are sorted, duplicates
    /// collapsed), independent of chunk boundaries and thread count.
    Graph(Vertex num_vertices, ChunkedEdgeList&& edges, unsigned threads = 0);

    [[nodiscard]] Vertex num_vertices() const noexcept {
        return static_cast<Vertex>(offsets_.empty() ? 0 : offsets_.size() - 1);
    }
    [[nodiscard]] std::size_t num_edges() const noexcept { return adjacency_.size() / 2; }

    [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
        GIRG_DCHECK(v < num_vertices(), "neighbors(", v, ") with n=", num_vertices());
        return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
    }
    [[nodiscard]] std::size_t degree(Vertex v) const noexcept {
        GIRG_DCHECK(v < num_vertices(), "degree(", v, ") with n=", num_vertices());
        return offsets_[v + 1] - offsets_[v];
    }
    [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept;

    [[nodiscard]] double average_degree() const noexcept {
        return num_vertices() == 0
                   ? 0.0
                   : 2.0 * static_cast<double>(num_edges()) / static_cast<double>(num_vertices());
    }

    /// Reconstructs the undirected edge list (u < v, sorted lexicographically)
    /// from the CSR form — the inverse of construction after self-loop and
    /// duplicate cleanup. Used to rebuild a graph under a vertex relabeling.
    [[nodiscard]] std::vector<Edge> edge_list() const;

    /// Heap bytes held by the CSR arrays (offsets + adjacency) — the
    /// denominator of the generation peak-memory ratio in
    /// bench_generator_memory.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return offsets_.capacity() * sizeof(std::size_t) +
               adjacency_.capacity() * sizeof(Vertex);
    }

    /// Raw CSR arrays — the serialization surface pack_io writes and
    /// GraphView wraps. offsets has num_vertices + 1 entries; adjacency has
    /// 2 * num_edges entries (each row sorted, deduplicated).
    [[nodiscard]] std::span<const std::size_t> raw_offsets() const noexcept { return offsets_; }
    [[nodiscard]] std::span<const Vertex> raw_adjacency() const noexcept { return adjacency_; }

    /// Process-unique token of these rows: each build draws a fresh one, and
    /// copies and moves carry it with the rows (0 for a default graph).
    /// Caches derived from the rows key on it, not on addresses: a graph
    /// assigned in place of another may reuse the freed storage.
    [[nodiscard]] std::uint64_t identity() const noexcept { return identity_; }

private:
    /// Both builds: the row passes of graph/row_build.h over one range
    /// holding every vertex, with degree counts and scatter cursors living
    /// inside offsets_ itself, so construction needs no n-sized scratch
    /// array. `count_item` and `scatter_item` read work item i's edges (the
    /// scatter's may also free them once read).
    template <typename CountItem, typename ScatterItem>
    void build_csr(Vertex num_vertices, unsigned threads, std::size_t items,
                   CountItem&& count_item, ScatterItem&& scatter_item);

    /// Collapses the duplicates of sorted rows (parallel over vertex blocks).
    void compact_duplicates(unsigned threads);

    using AdjacencyVector = std::vector<Vertex, DefaultInitAllocator<Vertex>>;

    std::vector<std::size_t> offsets_;  // size num_vertices + 1
    AdjacencyVector adjacency_;         // size 2 * num_edges
    std::uint64_t identity_ = 0;
};

/// Non-owning, uniform read surface over adjacency storage: a resident
/// Graph, a raw (zero-copy mmap) packed CSR, or a delta-varint compressed
/// packed CSR (graph/packed_graph.h). Routers, BFS and the simulators
/// consume this seam, so one routing implementation serves all three
/// backings with identical results.
///
/// The compressed variant decodes one row at a time into caller-owned
/// scratch: such a view is strictly single-threaded, and neighbors(v)
/// invalidates the span returned by the previous call. Every consumer in
/// the repo drains each row before requesting the next; code that needs
/// concurrent row access (parallel BFS) checks flat() and falls back to a
/// serial pass otherwise.
class GraphView {
public:
    GraphView() = default;

    /// Implicit on purpose: every existing `const Graph&` call site routes
    /// through the view seam without a change.
    GraphView(const Graph& graph) noexcept  // NOLINT(*-explicit-constructor)
        : n_(graph.num_vertices()),
          num_arcs_(graph.raw_adjacency().size()),
          offsets_(graph.raw_offsets().data()),
          flat_(graph.raw_adjacency().data()) {}

    /// Directly addressable rows (resident CSR or raw-packed mmap section).
    GraphView(Vertex num_vertices, std::size_t num_arcs, const std::size_t* offsets,
              const Vertex* flat_adjacency) noexcept
        : n_(num_vertices), num_arcs_(num_arcs), offsets_(offsets), flat_(flat_adjacency) {}

    /// Delta-varint compressed rows: `blob_offsets[v]` is the byte offset of
    /// v's block inside `blob`, and `scratch` is a caller-owned buffer of at
    /// least max-degree capacity that decoded rows are written into.
    GraphView(Vertex num_vertices, std::size_t num_arcs, const std::size_t* offsets,
              const std::uint8_t* blob, const std::uint64_t* blob_offsets,
              Vertex* scratch) noexcept
        : n_(num_vertices),
          num_arcs_(num_arcs),
          offsets_(offsets),
          blob_(blob),
          blob_offsets_(blob_offsets),
          scratch_(scratch) {}

    [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }
    [[nodiscard]] std::size_t num_edges() const noexcept { return num_arcs_ / 2; }

    [[nodiscard]] std::size_t degree(Vertex v) const noexcept {
        GIRG_DCHECK(v < n_, "degree(", v, ") with n=", n_);
        return offsets_[v + 1] - offsets_[v];
    }

    [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
        GIRG_DCHECK(v < n_, "neighbors(", v, ") with n=", n_);
        if (blob_ == nullptr) [[likely]] {
            return {flat_ + offsets_[v], flat_ + offsets_[v + 1]};
        }
        return decode_row(v);
    }

    /// True when rows are directly addressable; false for the compressed
    /// variant, whose spans live in (and are recycled through) the decode
    /// scratch. Discriminated on blob_, not flat_: an edgeless graph has a
    /// null adjacency data pointer but is still flat.
    [[nodiscard]] bool flat() const noexcept { return blob_ == nullptr; }

    /// Software-prefetches the leading cache lines of v's row — walk loops
    /// call this on the chosen next hop so the row is (at least partially)
    /// resident when its scan begins. A hint only: no observable effect
    /// besides timing. Capped at 4 lines; longer rows are scanned front to
    /// back anyway, and the hardware prefetcher takes over. The compressed
    /// variant prefetches the leading *blob* bytes of v's block — it must
    /// never decode here, since that would clobber the live scratch row.
    void prefetch_neighbors(Vertex v) const noexcept {
        GIRG_DCHECK(v < n_, "prefetch_neighbors(", v, ") with n=", n_);
        constexpr std::size_t kMaxLines = 4;
        if (blob_ == nullptr) {
            const std::size_t begin = offsets_[v];
            const std::size_t degree_v = offsets_[v + 1] - begin;
            constexpr std::size_t kVerticesPerLine = 64 / sizeof(Vertex);
            const std::size_t lines =
                std::min(kMaxLines, (degree_v + kVerticesPerLine - 1) / kVerticesPerLine);
            for (std::size_t line = 0; line < lines; ++line) {
                __builtin_prefetch(flat_ + begin + line * kVerticesPerLine, 0, 1);
            }
            return;
        }
        const std::size_t begin = blob_offsets_[v];
        const std::size_t bytes = blob_offsets_[v + 1] - begin;
        const std::size_t lines = std::min(kMaxLines, (bytes + 63) / 64);
        for (std::size_t line = 0; line < lines; ++line) {
            __builtin_prefetch(blob_ + begin + line * 64, 0, 1);
        }
    }

    [[nodiscard]] double average_degree() const noexcept {
        return n_ == 0 ? 0.0
                       : 2.0 * static_cast<double>(num_edges()) / static_cast<double>(n_);
    }

private:
    /// Out-of-line LEB128 decode of v's row into scratch_ (graph.cpp).
    [[nodiscard]] std::span<const Vertex> decode_row(Vertex v) const noexcept;

    Vertex n_ = 0;
    std::size_t num_arcs_ = 0;
    const std::size_t* offsets_ = nullptr;  // n + 1 cumulative degrees (both variants)
    const Vertex* flat_ = nullptr;          // resident / raw-packed rows; null => compressed
    const std::uint8_t* blob_ = nullptr;    // varint blocks (compressed variant)
    const std::uint64_t* blob_offsets_ = nullptr;  // n + 1 block byte offsets
    Vertex* scratch_ = nullptr;                    // caller-owned decode buffer
};

}  // namespace smallworld
