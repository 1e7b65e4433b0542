#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>

#include "core/check.h"
#include "core/thread_pool.h"
#include "graph/graph.h"

/// The passes that turn an undirected edge source into sorted adjacency
/// rows, shared by Graph's constructors (one range holding every vertex)
/// and the out-of-core pack builder (consecutive vertex ranges through one
/// bounded buffer, graph/edge_stream.h).
///
/// The source is read through `for_each_item(item, fn)`, which calls
/// fn(edge) for every edge of work item `item` in [0, items) — a chunk of a
/// ChunkedEdgeList or a block of a span. Items run in parallel.
///
/// One array of n + 1 counters carries the whole build, updated through
/// std::atomic_ref: count_arcs tallies vertex v's arcs into counts[v + 1];
/// begin_range turns a range's tallies into write cursors in place; the
/// scatter advances each cursor to its row's end, so afterwards counts[v]
/// and counts[v + 1] bound row v (relative to the range's buffer) with no
/// shift pass and no second array. Self-loops are dropped throughout.
namespace smallworld::row_build {

/// Vertices per parallel block of the per-row passes.
inline constexpr std::size_t kVertexBlock = 8192;

/// Pass 1: counts[v + 1] += number of arcs leaving v. Every endpoint is
/// checked against n = counts.size() - 1.
template <typename Count, typename ForEachItem>
void count_arcs(std::span<Count> counts, std::size_t items, unsigned threads,
                ForEachItem&& for_each_item) {
    const std::size_t n = counts.size() - 1;
    static_assert(std::atomic_ref<Count>::required_alignment <= alignof(Count),
                  "counters are not aligned for std::atomic_ref");
    // LINT-ALLOW(relaxed): degree tallies are independent increments; the
    // parallel_for join is the only ordering begin_range needs.
    constexpr auto relaxed = std::memory_order_relaxed;
    parallel_for(
        items,
        [&](std::size_t item) {
            for_each_item(item, [&](const Edge& edge) {
                const auto& [u, v] = edge;
                GIRG_CHECK(u < n && v < n, "edge (", u, ",", v, ") out of range for n=", n);
                if (u == v) return;
                std::atomic_ref<Count>(counts[u + 1]).fetch_add(1, relaxed);
                std::atomic_ref<Count>(counts[v + 1]).fetch_add(1, relaxed);
            });
        },
        threads);
}

/// Pass 2: turns the tallies of range [lo, hi) into write cursors, so that
/// counts[lo] = 0 and counts[v + 1] = arcs of the range's rows before v's.
/// Returns the range's arc count. Overwrites counts[lo], vertex lo - 1's
/// slot, so ranges begin in increasing order, each once the previous
/// range's rows are consumed.
template <typename Count>
std::size_t begin_range(std::span<Count> counts, Vertex lo, Vertex hi) noexcept {
    std::size_t total = 0;
    for (std::size_t v = lo; v < hi; ++v) {
        const std::size_t degree = counts[v + 1];
        counts[v + 1] = static_cast<Count>(total);
        total += degree;
    }
    counts[lo] = 0;
    return total;
}

/// Pass 3: writes every arc whose source lies in [lo, hi) into `rows` at its
/// source's cursor, in any order (sort_rows normalizes it). Rows are
/// disjoint, and the parallel_for join publishes every write.
template <typename Count, typename ForEachItem>
void scatter_arcs(std::span<Count> counts, Vertex lo, Vertex hi, Vertex* rows,
                  std::size_t items, unsigned threads, ForEachItem&& for_each_item) {
    const Vertex width = hi - lo;
    // LINT-ALLOW(relaxed): slot claims are independent; the pool barrier publishes
    constexpr auto relaxed = std::memory_order_relaxed;
    const auto claim = [&](Vertex v) {
        return std::atomic_ref<Count>(counts[v + 1]).fetch_add(1, relaxed);
    };
    parallel_for(
        items,
        [&](std::size_t item) {
            for_each_item(item, [&](const Edge& edge) {
                const auto& [u, v] = edge;
                if (u == v) return;
                // Unsigned wrap: x - lo < width  <=>  lo <= x < hi.
                if (u - lo < width) rows[claim(u)] = v;
                if (v - lo < width) rows[claim(v)] = u;
            });
        },
        threads);
}

/// Pass 4: sorts every row of the scattered range [lo, hi) in parallel.
/// Returns whether any row holds a duplicate (a parallel edge).
template <typename Count>
[[nodiscard]] bool sort_rows(std::span<const Count> counts, Vertex lo, Vertex hi, Vertex* rows,
                             unsigned threads) {
    const std::size_t width = hi - lo;
    std::atomic<bool> duplicates{false};
    parallel_for(
        (width + kVertexBlock - 1) / kVertexBlock,
        [&](std::size_t block) {
            const std::size_t begin = lo + block * kVertexBlock;
            const std::size_t end = std::min<std::size_t>(begin + kVertexBlock, hi);
            bool local = false;
            for (std::size_t v = begin; v < end; ++v) {
                Vertex* first = rows + counts[v];
                Vertex* last = rows + counts[v + 1];
                std::sort(first, last);
                if (std::adjacent_find(first, last) != last) local = true;
            }
            // LINT-ALLOW(relaxed): single write-once flag, read only after the barrier
            if (local) duplicates.store(true, std::memory_order_relaxed);
        },
        threads);
    // LINT-ALLOW(relaxed): the parallel_for join ordered every store above
    return duplicates.load(std::memory_order_relaxed);
}

}  // namespace smallworld::row_build
