#include "graph/edge_stream.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/annotations.h"
#include "graph/row_build.h"

#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
#define SMALLWORLD_EDGE_STREAM_MMAP 1
#include <sys/mman.h>
#include <vector>
#else
#define SMALLWORLD_EDGE_STREAM_MMAP 0
#endif

namespace smallworld {

namespace {

/// Slabs go through mmap directly (not operator new) so that retiring one
/// is a guaranteed munmap — glibc's dynamic mmap threshold otherwise starts
/// serving 1 MiB blocks from sbrk after the first few frees, and RSS would
/// stop shrinking exactly when the scatter pass needs it to.
std::byte* map_slab(std::size_t bytes) {
#if SMALLWORLD_EDGE_STREAM_MMAP
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
    return static_cast<std::byte*>(mem);
#else
    return static_cast<std::byte*>(::operator new(bytes));
#endif
}

void unmap_slab(std::byte* mem, std::size_t bytes) noexcept {
#if SMALLWORLD_EDGE_STREAM_MMAP
    ::munmap(mem, bytes);
#else
    ::operator delete(mem);
    (void)bytes;
#endif
}

}  // namespace

namespace detail {

std::byte* map_pages(std::size_t bytes) { return map_slab(bytes); }

void unmap_pages(std::byte* mem, std::size_t bytes) noexcept { unmap_slab(mem, bytes); }

}  // namespace detail

EdgeArena::~EdgeArena() {
    // Destruction is single-threaded by contract, but the analysis cannot
    // know that; taking the (uncontended) lock keeps the proof uniform.
    const MutexLock lock(mutex_);
    for (Slab& slab : slabs_) release_slab(slab);
}

void EdgeArena::release_slab(Slab& slab) noexcept {
    if (slab.mem != nullptr) {
        unmap_slab(slab.mem, slab.bytes);
        slab.mem = nullptr;
    }
}

EdgeArena::Chunk EdgeArena::allocate(std::uint32_t capacity) {
    const std::size_t bytes = static_cast<std::size_t>(capacity) * sizeof(Edge);
    // Sequentially-assigned thread lane: guarantees distinct lanes for up to
    // kLanes allocating threads (a thread-id hash would collide at random,
    // silently interleaving two producers' chunks and defeating
    // shrink_to_fit's bump-tip check).
    static std::atomic<unsigned> lane_counter{0};
    // LINT-ALLOW(relaxed): lane ids only need to be distinct, not ordered
    thread_local const unsigned thread_lane =
        lane_counter.fetch_add(1, std::memory_order_relaxed);
    const std::size_t lane = thread_lane % kLanes;
    const MutexLock lock(mutex_);

    std::size_t& current = current_[lane];
    if (current == kNoSlab || slabs_[current].bytes - slabs_[current].used < bytes) {
        // Close the lane's previous bump target; if everything carved from
        // it has already been retired it can go back to the OS right now.
        if (current != kNoSlab) {
            Slab& old = slabs_[current];
            old.open = false;
            if (old.live_chunks == 0) release_slab(old);
        }
        Slab slab;
        slab.bytes = std::max(kSlabBytes, bytes);
        slab.mem = map_slab(slab.bytes);
        slabs_.push_back(slab);
        current = slabs_.size() - 1;
    }

    Slab& slab = slabs_[current];
    Chunk chunk;
    chunk.data = reinterpret_cast<Edge*>(slab.mem + slab.used);
    chunk.capacity = capacity;
    chunk.size = 0;
    chunk.slab = static_cast<std::uint32_t>(current);
    slab.used += bytes;
    ++slab.live_chunks;
    return chunk;
}

void EdgeArena::shrink_to_fit(Chunk& chunk) noexcept {
    if (chunk.data == nullptr || chunk.size == chunk.capacity) return;
    const MutexLock lock(mutex_);
    Slab& slab = slabs_[chunk.slab];
    const std::size_t chunk_end =
        static_cast<std::size_t>(reinterpret_cast<std::byte*>(chunk.data) - slab.mem) +
        static_cast<std::size_t>(chunk.capacity) * sizeof(Edge);
    if (slab.used == chunk_end) {
        slab.used -= static_cast<std::size_t>(chunk.capacity - chunk.size) * sizeof(Edge);
        chunk.capacity = chunk.size;
    }
}

void EdgeArena::retire(const Chunk& chunk) noexcept {
    const MutexLock lock(mutex_);
    Slab& slab = slabs_[chunk.slab];
    GIRG_CHECK(slab.live_chunks > 0, "retire on slab ", chunk.slab,
               " with no live chunks (double retire?)");
    --slab.live_chunks;
    if (slab.live_chunks == 0 && !slab.open) release_slab(slab);
}

std::size_t EdgeArena::mapped_bytes() const noexcept {
    const MutexLock lock(mutex_);
    std::size_t total = 0;
    for (const Slab& slab : slabs_) {
        if (slab.mem != nullptr) total += slab.bytes;
    }
    return total;
}

void ChunkedEdgeSink::grow() {
    std::uint32_t next = kFirstChunkEdges;
    if (open_.data != nullptr) {
        next = std::min(open_.capacity * 2U, kMaxChunkEdges);
        seal();
    }
    open_ = list_.arena()->allocate(next);
}

void ChunkedEdgeSink::seal() {
    if (open_.data == nullptr) return;
    // Chunks sealed by grow() are always full; the one sealed by take() is
    // the task's final, usually underfull chunk — hand its tail back.
    list_.arena()->shrink_to_fit(open_);
    list_.size_ += open_.size;
    list_.chunks_.push_back(open_);
    open_ = {};
}

RowBuildStats build_rows(Vertex num_vertices, ChunkedEdgeList&& edges, unsigned threads,
                         const std::function<void(std::span<const Vertex>)>& row,
                         std::size_t range_arcs) {
    ChunkedEdgeList stream = std::move(edges);
    GIRG_CHECK(stream.chunk_sizes_consistent(),
               "chunk totals mismatch: list size ", stream.size());
    GIRG_CHECK(range_arcs > 0, "row range budget must be positive");
    // u32 counters: a vertex has at most one arc per edge of the stream, and
    // a range's arcs exceed the budget only for a lone vertex, so every
    // count and cursor fits when the stream and the budget do.
    constexpr std::size_t kCountMax = std::numeric_limits<std::uint32_t>::max();
    GIRG_CHECK(stream.size() <= kCountMax && range_arcs <= kCountMax,
               "edge stream of ", stream.size(), " edges exceeds the 32-bit row counters");

    // Pass 1 also records each chunk's endpoint span: with the samplers'
    // spatially ordered tasks and the Morton relabeling, a chunk's edges
    // stay within a narrow id window, so each range pass reads only the
    // chunks that reach into it and frees every chunk no later range needs.
    struct Span {
        Vertex lo;
        Vertex hi;  // inclusive; lo > hi for an empty chunk
    };
    PageVector<Span> spans(stream.chunk_count());
    PageVector<std::uint32_t> counts(static_cast<std::size_t>(num_vertices) + 1, 0);
    const std::span<std::uint32_t> tallies(counts);
    row_build::count_arcs(tallies, stream.chunk_count(), threads,
                          [&](std::size_t ci, auto&& fn) {
                              Span span{kNoVertex, 0};
                              for (const Edge& edge : stream.chunk(ci)) {
                                  fn(edge);
                                  span.lo = std::min({span.lo, edge.first, edge.second});
                                  span.hi = std::max({span.hi, edge.first, edge.second});
                              }
                              spans[ci] = span;
                          });

    // Range cut on the tallies (begin_range overwrites them). A range only
    // ever starts at a vertex with arcs, so no range but an edgeless
    // graph's single one is empty.
    RowBuildStats stats;
    std::vector<Vertex> cuts;
    std::size_t buffer_arcs = 0;
    std::size_t in_range = 0;
    for (Vertex v = 0; v < num_vertices; ++v) {
        const std::size_t degree = counts[static_cast<std::size_t>(v) + 1];
        if (v == 0 || (degree > 0 && in_range > 0 && in_range + degree > range_arcs)) {
            cuts.push_back(v);
            in_range = 0;
        }
        in_range += degree;
        buffer_arcs = std::max(buffer_arcs, in_range);
        stats.arcs += degree;
    }
    cuts.push_back(num_vertices);
    stats.ranges = cuts.size() - 1;

    PageVector<Vertex> buffer(buffer_arcs);
    for (std::size_t r = 0; r < stats.ranges; ++r) {
        const Vertex lo = cuts[r];
        const Vertex hi = cuts[r + 1];
        (void)row_build::begin_range(tallies, lo, hi);
        row_build::scatter_arcs(tallies, lo, hi, buffer.data(), stream.chunk_count(), threads,
                                [&](std::size_t ci, auto&& fn) {
                                    const Span span = spans[ci];
                                    if (span.hi < lo || span.lo >= hi) return;
                                    for (const Edge& edge : stream.chunk(ci)) fn(edge);
                                    if (span.hi < hi) stream.release_chunk(ci);
                                });
        (void)row_build::sort_rows(std::span<const std::uint32_t>(counts), lo, hi,
                                   buffer.data(), threads);
        for (std::size_t v = lo; v < hi; ++v) {
            Vertex* first = buffer.data() + counts[v];
            Vertex* last = std::unique(first, buffer.data() + counts[v + 1]);
            row(std::span<const Vertex>(first, last));
        }
    }
    return stats;
}

}  // namespace smallworld
