#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.h"
#include "core/check.h"
#include "graph/graph.h"

namespace smallworld {

/// Chunked edge storage for the generation pipeline.
///
/// Materializing every sampled edge in one contiguous `std::vector<Edge>`
/// before the CSR build would make peak memory during generation the edge
/// list *plus* the adjacency array (plus vector doubling slack). The types
/// here hold the edges as a stream of bounded chunks instead, which (a)
/// never reallocate-copy while the samplers emit, and (b) can be returned
/// to the OS one by one while the CSR scatter pass consumes them — so the
/// edge storage and the adjacency array never fully coexist.
///
/// Layout: chunks are bump-allocated from large mmap'd *slabs* (EdgeArena),
/// one bump lane per thread. Each producer task owns a ChunkedEdgeSink whose
/// chunks double in capacity (8 .. 65536 edges); the final, underfull chunk
/// gives its tail back to the bump pointer when the sink is sealed, so the
/// slabs end up packed to within a chunk of the true edge count. A slab is
/// handed back to the OS as soon as every chunk carved from it has been
/// retired, which the CSR build does in its scatter pass; slab granularity
/// (1 MiB) is what makes the release real RSS, not just allocator-internal
/// free lists.
///
/// Determinism: the samplers splice their per-task chunk sequences in task
/// order, so the stream's edge order is a function of the seed alone and
/// the pipeline is byte-identical at any thread count.

namespace detail {
[[nodiscard]] std::byte* map_pages(std::size_t bytes);
void unmap_pages(std::byte* mem, std::size_t bytes) noexcept;
}  // namespace detail

/// Allocator that backs every allocation with a private anonymous mapping,
/// for *large scratch arrays* whose memory must return to the OS the moment
/// they are freed. General-purpose malloc keeps medium-sized frees on its
/// own free lists, where they still count as RSS; a generation-sized
/// scratch vector freed mid-pipeline would then sit dead inside the
/// peak-memory window. Do not use for small or frequently-resized
/// containers — every allocation is a syscall and at least one page.
template <typename T>
struct PageAllocator {
    using value_type = T;

    PageAllocator() noexcept = default;
    template <typename U>
    PageAllocator(const PageAllocator<U>&) noexcept {}

    [[nodiscard]] T* allocate(std::size_t count) {
        return reinterpret_cast<T*>(detail::map_pages(count * sizeof(T)));
    }
    void deallocate(T* p, std::size_t count) noexcept {
        detail::unmap_pages(reinterpret_cast<std::byte*>(p), count * sizeof(T));
    }

    friend bool operator==(const PageAllocator&, const PageAllocator&) noexcept {
        return true;
    }
};

template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// Thread-safe slab allocator for edge chunks. Allocation is a mutex-guarded
/// bump pointer (a few hundred thousand calls per generation, so contention
/// is noise); retirement frees a slab the moment its last chunk dies.
class EdgeArena {
public:
    /// Slab size: large enough to be mmap-backed (so retiring returns RSS to
    /// the OS), small enough that the final slab's bump tail wastes little.
    static constexpr std::size_t kSlabBytes = std::size_t{1} << 20;  // 1 MiB

    struct Chunk {
        Edge* data = nullptr;
        std::uint32_t capacity = 0;  // edges
        std::uint32_t size = 0;      // edges written
        std::uint32_t slab = 0;      // owning slab index
    };

    EdgeArena() = default;
    ~EdgeArena();
    EdgeArena(const EdgeArena&) = delete;
    EdgeArena& operator=(const EdgeArena&) = delete;

    /// Carves a chunk of `capacity` edges out of the calling thread's
    /// current slab (a fresh slab when it does not fit). Thread-safe; each
    /// thread bump-allocates from its own slab lane, so one producer's
    /// consecutive chunks are contiguous even when several producers run.
    [[nodiscard]] Chunk allocate(std::uint32_t capacity);

    /// Returns a chunk's unused tail (capacity - size slots) to its slab if
    /// the chunk is still the slab's bump tip — which per-thread lanes make
    /// the common case for a sink's final, underfull chunk. Without this the
    /// doubling slack of every task's last chunk stays carved out for the
    /// arena's lifetime (~50% of all edge bytes across the sampler's many
    /// small tasks). No-op when the tip has moved on.
    void shrink_to_fit(Chunk& chunk) noexcept;

    /// Releases a chunk's claim on its slab; once a slab is no longer the
    /// bump target and all its chunks are retired, its memory is unmapped.
    void retire(const Chunk& chunk) noexcept;

    /// Bytes currently mapped by live slabs (observability for tests/bench).
    [[nodiscard]] std::size_t mapped_bytes() const noexcept;

private:
    struct Slab {
        std::byte* mem = nullptr;
        std::size_t bytes = 0;
        std::size_t used = 0;
        std::uint32_t live_chunks = 0;
        bool open = true;  // still the bump target (or dedicated, not yet full)
    };

    /// Slab lanes: each thread hashes to a lane with its own bump target, so
    /// per-producer allocation stays sequential (the property shrink_to_fit
    /// relies on). A lane whose thread never allocates costs nothing.
    static constexpr std::size_t kLanes = 8;
    static constexpr std::size_t kNoSlab = static_cast<std::size_t>(-1);

    void release_slab(Slab& slab) noexcept GIRG_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::vector<Slab> slabs_ GIRG_GUARDED_BY(mutex_);
    std::size_t current_[kLanes] GIRG_GUARDED_BY(mutex_) = {
        kNoSlab, kNoSlab, kNoSlab, kNoSlab, kNoSlab, kNoSlab, kNoSlab, kNoSlab};
};

/// An ordered sequence of edge chunks — the streaming replacement for
/// `std::vector<Edge>`. Move-only; retires any chunks it still holds on
/// destruction. Splicing concatenates without copying edges.
class ChunkedEdgeList {
public:
    ChunkedEdgeList() = default;
    explicit ChunkedEdgeList(std::shared_ptr<EdgeArena> arena) : arena_(std::move(arena)) {}
    ~ChunkedEdgeList() { clear(); }

    ChunkedEdgeList(ChunkedEdgeList&& other) noexcept
        : arena_(std::move(other.arena_)), chunks_(std::move(other.chunks_)),
          size_(other.size_) {
        other.size_ = 0;
    }
    ChunkedEdgeList& operator=(ChunkedEdgeList&& other) noexcept {
        if (this != &other) {
            clear();
            arena_ = std::move(other.arena_);
            chunks_ = std::move(other.chunks_);
            size_ = other.size_;
            other.size_ = 0;
        }
        return *this;
    }
    ChunkedEdgeList(const ChunkedEdgeList&) = delete;
    ChunkedEdgeList& operator=(const ChunkedEdgeList&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t chunk_count() const noexcept { return chunks_.size(); }

    [[nodiscard]] std::span<const Edge> chunk(std::size_t i) const noexcept {
        const EdgeArena::Chunk& c = chunks_[i];
        return {c.data, c.size};
    }

    /// Frees chunk i's storage (its span must no longer be read) and drops
    /// its edges from size().
    void retire_chunk(std::size_t i) noexcept {
        size_ -= chunks_[i].size;
        release_chunk(i);
    }

    /// retire_chunk() for concurrent drains: frees chunk i's storage but
    /// leaves the list-wide size() alone, so parallel workers each write
    /// only their own chunk (the arena locks itself). The CSR scatter pass
    /// calls this per consumed chunk so edge memory drains while the
    /// adjacency array fills, then mark_drained() once its workers joined.
    void release_chunk(std::size_t i) noexcept {
        EdgeArena::Chunk& c = chunks_[i];
        if (c.data == nullptr) return;
        arena_->retire(c);
        c.data = nullptr;
        c.size = 0;
    }

    /// Records that every chunk was released: size() becomes 0.
    void mark_drained() noexcept { size_ = 0; }

    /// Appends `other`'s chunks, preserving order. Both lists must share one
    /// arena (the per-task sinks of one sampling run do).
    void splice(ChunkedEdgeList&& other) {
        if (other.chunks_.empty()) {
            other.size_ = 0;
            return;
        }
        if (!arena_) {
            arena_ = other.arena_;
        }
        // Chunks index into their owning arena's slabs; mixing arenas would
        // let retire_chunk free through the wrong slab table.
        GIRG_CHECK(arena_ == other.arena_, "splice across distinct arenas");
        chunks_.insert(chunks_.end(), other.chunks_.begin(), other.chunks_.end());
        size_ += other.size_;
        other.chunks_.clear();
        other.size_ = 0;
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const EdgeArena::Chunk& c : chunks_) {
            for (std::uint32_t i = 0; i < c.size; ++i) fn(c.data[i]);
        }
    }

    /// Materializes the stream (tests and small callers only — this is the
    /// contiguous copy the streaming pipeline exists to avoid).
    [[nodiscard]] std::vector<Edge> to_vector() const {
        std::vector<Edge> out;
        out.reserve(size_);
        for_each([&](const Edge& e) { out.push_back(e); });
        return out;
    }

    [[nodiscard]] const std::shared_ptr<EdgeArena>& arena() const noexcept { return arena_; }

    /// Structural invariant: the recorded total equals the sum of live chunk
    /// sizes. The CSR build checks this before trusting the stream.
    [[nodiscard]] bool chunk_sizes_consistent() const noexcept {
        std::size_t total = 0;
        for (const EdgeArena::Chunk& c : chunks_) total += c.size;
        return total == size_;
    }

private:
    friend class ChunkedEdgeSink;

    void clear() noexcept {
        if (!arena_) return;
        for (EdgeArena::Chunk& c : chunks_) {
            if (c.data != nullptr) arena_->retire(c);
        }
        chunks_.clear();
        size_ = 0;
    }

    std::shared_ptr<EdgeArena> arena_;
    std::vector<EdgeArena::Chunk> chunks_;
    std::size_t size_ = 0;
};

/// Per-producer edge sink: appends into a private chunk sequence, optionally
/// remapping endpoints through a relabeling permutation at emission (the
/// fused Morton relabel — the post-hoc endpoint rewrite pass disappears).
/// Chunk capacities double from kFirstChunkEdges to kMaxChunkEdges, so a
/// task that emits E edges allocates < 2E + kFirstChunkEdges slots and never
/// copies an edge twice. The first chunk is tiny (64 bytes) because the
/// sampler creates one sink per cell-pair task and most tasks emit only a
/// handful of edges — at 8 edges the aggregate slack across ~10^5 tasks
/// stays in the low megabytes.
class ChunkedEdgeSink {
public:
    static constexpr std::uint32_t kFirstChunkEdges = 8;
    static constexpr std::uint32_t kMaxChunkEdges = 1U << 16;

    explicit ChunkedEdgeSink(std::shared_ptr<EdgeArena> arena,
                             const Vertex* relabel = nullptr)
        : list_(std::move(arena)), relabel_(relabel) {}

    ChunkedEdgeSink(ChunkedEdgeSink&& other) noexcept
        : list_(std::move(other.list_)), open_(other.open_), relabel_(other.relabel_) {
        other.open_ = {};
    }
    ChunkedEdgeSink& operator=(ChunkedEdgeSink&& other) noexcept {
        if (this != &other) {
            list_ = std::move(other.list_);
            open_ = other.open_;
            relabel_ = other.relabel_;
            other.open_ = {};
        }
        return *this;
    }

    void emit(Vertex u, Vertex v) {
        if (open_.size == open_.capacity) grow();
        open_.data[open_.size++] =
            relabel_ != nullptr ? Edge{relabel_[u], relabel_[v]} : Edge{u, v};
    }

    /// Seals the open chunk, returning its unused tail slots to the arena.
    /// Call on the *producing* thread the moment the task stops emitting:
    /// the tail is only reclaimable while the chunk is still its lane's
    /// bump tip, and the thread's next task moves the tip. take() may then
    /// run later on any thread.
    void finish() { seal(); }

    /// Closes the open chunk and hands the accumulated sequence over. The
    /// sink must not be used afterwards.
    [[nodiscard]] ChunkedEdgeList take() {
        seal();
        return std::move(list_);
    }

private:
    void grow();
    void seal();

    ChunkedEdgeList list_;
    EdgeArena::Chunk open_;  // chunk currently being filled (data may be null)
    const Vertex* relabel_ = nullptr;
};

/// What build_rows did: the vertex ranges it made and the arcs it fed them.
struct RowBuildStats {
    std::size_t ranges = 0;   ///< vertex ranges, one scatter pass over the stream each
    std::uint64_t arcs = 0;   ///< arcs scattered (both directions, before dedup)
};

/// 2^22 arcs (16 MiB of Vertex slots): build_rows' row buffer budget.
inline constexpr std::size_t kRowRangeArcs = std::size_t{1} << 22;

/// Out-of-core row build: hands `row` the sorted, deduplicated adjacency row
/// of every vertex in [0, num_vertices), in vertex order (empty rows
/// included), without an O(arcs) array — girg/pack_io streams the rows into
/// a PackWriter. The stream stays resident (the samplers materialize it
/// before the build starts), so the passes run over it directly:
///
///  1. one parallel degree pass into u32 counters (self-loops dropped,
///     endpoints checked against num_vertices), which also notes each
///     chunk's endpoint span;
///  2. a cut of [0, n) into consecutive ranges whose arcs fit `range_arcs`
///     (a vertex with more arcs gets a range of its own);
///  3. per range, a parallel atomic-cursor scatter of the arcs whose source
///     lies in it into one reused buffer, then a parallel per-row sort —
///     the row passes Graph's constructors run (graph/row_build.h). A range
///     pass reads only the chunks whose span reaches into it, and releases
///     each chunk no later range needs, so the stream drains as the rows
///     are written and is consumed by the last pass;
///  4. per row, duplicates collapsed on the way to `row`.
///
/// Rows are a pure function of the edge multiset: independent of chunk
/// order, range boundaries, buffer size and thread count (0 = all hardware
/// threads). `range_arcs` is a constant in production; tests shrink it to
/// force many ranges.
RowBuildStats build_rows(Vertex num_vertices, ChunkedEdgeList&& edges, unsigned threads,
                         const std::function<void(std::span<const Vertex>)>& row,
                         std::size_t range_arcs = kRowRangeArcs);

}  // namespace smallworld
