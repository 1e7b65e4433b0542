#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/check.h"
#include "core/thread_pool.h"
#include "graph/edge_stream.h"
#include "graph/row_build.h"

namespace smallworld {

namespace {

/// Items per parallel work block: large enough that the per-block dispatch
/// (one std::function call, one fetch_add) is noise, small enough to load
/// balance skewed degree distributions.
constexpr std::size_t kBlockSize = 8192;

[[nodiscard]] std::size_t block_count(std::size_t items) noexcept {
    return (items + kBlockSize - 1) / kBlockSize;
}

/// The last identity a build drew.
std::atomic<std::uint64_t> last_identity{0};

}  // namespace

Graph::Graph(Vertex num_vertices, std::span<const Edge> edges, unsigned threads) {
    // The row passes over fixed-size blocks of the span: atomic degree
    // count, serial prefix sum, atomic-cursor scatter, then chunked per-row
    // sort/dedup (graph/row_build.h). The scatter writes each row in a
    // nondeterministic order, but sorting normalizes it — and duplicates are
    // equal values — so the CSR is byte-identical at any thread count, and
    // threads = 1 runs the same passes inline.
    //
    // Counts and cursors live *inside* offsets_, so no n-sized scratch
    // array exists — at 2^22 vertices that scratch would cost as much as
    // the offsets array itself.
    const auto for_each_block = [&](std::size_t block, auto&& fn) {
        const std::size_t begin = block * kBlockSize;
        const std::size_t end = std::min(begin + kBlockSize, edges.size());
        for (std::size_t i = begin; i < end; ++i) fn(edges[i]);
    };
    build_csr(num_vertices, threads, block_count(edges.size()), for_each_block, for_each_block);
    GIRG_CHECK(offsets_.front() == 0 && offsets_.back() == adjacency_.size(),
               "CSR invariant broken after span build");
}

Graph::Graph(Vertex num_vertices, ChunkedEdgeList&& edges, unsigned threads) {
    // A chunk stream whose recorded total disagrees with its chunks (e.g. a
    // chunk retired or mutated between production and the build) would make
    // the count and scatter passes see different edge multisets and corrupt
    // the CSR silently; fail loudly instead.
    GIRG_CHECK(edges.chunk_sizes_consistent(),
               "chunk totals mismatch: list size ", edges.size());
    // Streaming CSR-direct build. Same passes as the span build, but they
    // iterate the chunk stream instead of a contiguous array, and
    // the scatter pass retires each chunk right after draining it — edge
    // storage shrinks chunk by chunk while the adjacency array grows, so the
    // two never fully coexist and peak memory stays near max(edges,
    // adjacency) instead of their sum.
    build_csr(
        num_vertices, threads, edges.chunk_count(),
        [&](std::size_t ci, auto&& fn) {
            for (const Edge& edge : edges.chunk(ci)) fn(edge);
        },
        [&](std::size_t ci, auto&& fn) {
            for (const Edge& edge : edges.chunk(ci)) fn(edge);
            edges.release_chunk(ci);
        });
    edges.mark_drained();
    GIRG_CHECK(offsets_.front() == 0 && offsets_.back() == adjacency_.size(),
               "CSR invariant broken after streaming build");
}

template <typename CountItem, typename ScatterItem>
void Graph::build_csr(Vertex num_vertices, unsigned threads, std::size_t items,
                      CountItem&& count_item, ScatterItem&& scatter_item) {
    identity_ = last_identity.fetch_add(1) + 1;
    offsets_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
    const std::span<std::size_t> counts(offsets_);
    row_build::count_arcs(counts, items, threads, count_item);
    adjacency_.resize(row_build::begin_range(counts, 0, num_vertices));
    row_build::scatter_arcs(counts, 0, num_vertices, adjacency_.data(), items, threads,
                            scatter_item);
    // The advanced cursors are the row offsets; sort, then collapse
    // parallel edges if there were any.
    if (row_build::sort_rows(std::span<const std::size_t>(offsets_), 0, num_vertices,
                             adjacency_.data(), threads)) {
        compact_duplicates(threads);
    }
}

void Graph::compact_duplicates(unsigned threads) {
    const std::size_t n = num_vertices();
    const std::size_t vertex_blocks = block_count(n);
    // Compact in parallel: per-vertex unique counts, prefix sum, then a
    // second pass copies each deduplicated list into its final slot.
    std::vector<std::size_t> unique(n, 0);
    parallel_for(
        vertex_blocks,
        [&](std::size_t block) {
            const std::size_t begin = block * kBlockSize;
            const std::size_t end = std::min(begin + kBlockSize, n);
            for (std::size_t v = begin; v < end; ++v) {
                const Vertex* first = adjacency_.data() + offsets_[v];
                const Vertex* last = adjacency_.data() + offsets_[v + 1];
                std::size_t kept = 0;
                Vertex prev = kNoVertex;
                for (const Vertex* it = first; it != last; ++it) {
                    if (*it != prev) ++kept;
                    prev = *it;
                }
                unique[v] = kept;
            }
        },
        threads);

    std::vector<std::size_t> new_offsets(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) new_offsets[v + 1] = new_offsets[v] + unique[v];

    AdjacencyVector compact(new_offsets.back());
    parallel_for(
        vertex_blocks,
        [&](std::size_t block) {
            const std::size_t begin = block * kBlockSize;
            const std::size_t end = std::min(begin + kBlockSize, n);
            for (std::size_t v = begin; v < end; ++v) {
                const Vertex* first = adjacency_.data() + offsets_[v];
                const Vertex* last = adjacency_.data() + offsets_[v + 1];
                Vertex* out = compact.data() + new_offsets[v];
                Vertex prev = kNoVertex;
                for (const Vertex* it = first; it != last; ++it) {
                    if (*it != prev) *out++ = *it;
                    prev = *it;
                }
            }
        },
        threads);
    offsets_ = std::move(new_offsets);
    adjacency_ = std::move(compact);
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::span<const Vertex> GraphView::decode_row(Vertex v) const noexcept {
    // LEB128 per value: the first neighbor verbatim, every later one as
    // gap-minus-one from its predecessor (rows are strictly increasing, so
    // gaps are >= 1 and the encoder never wastes a bit on zero gaps). The
    // writer (girg/pack_io) validated block bounds at pack time and the
    // loader re-validated them against the offset table, so the decode loop
    // itself runs unchecked.
    const std::size_t degree_v = offsets_[v + 1] - offsets_[v];
    const std::uint8_t* in = blob_ + blob_offsets_[v];
    Vertex* out = scratch_;
    Vertex previous = 0;
    for (std::size_t i = 0; i < degree_v; ++i) {
        std::uint32_t value = 0;
        int shift = 0;
        std::uint8_t byte;
        do {
            byte = *in++;
            value |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
            shift += 7;
        } while ((byte & 0x80) != 0);
        previous = i == 0 ? value : previous + value + 1;
        out[i] = previous;
    }
    return {scratch_, degree_v};
}

std::vector<Edge> Graph::edge_list() const {
    std::vector<Edge> edges;
    edges.reserve(num_edges());
    for (Vertex u = 0; u < num_vertices(); ++u) {
        for (const Vertex v : neighbors(u)) {
            if (u < v) edges.emplace_back(u, v);
        }
    }
    return edges;
}

}  // namespace smallworld
