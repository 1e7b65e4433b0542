#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/check.h"
#include "distributed/event.h"

namespace smallworld {

/// Bounded inbound FIFO of one simulated node. Holds query ids only — the
/// message payload itself lives in per-query state, so an entry is the
/// "packet on the wire has landed and waits to be served" marker. `push`
/// refuses (and counts) arrivals beyond `capacity`; capacity 0 means
/// unbounded. Depth high-water and drop counts feed per-node telemetry.
///
/// The queue is intrusive: a query waits in at most one queue at a time, so
/// the successor links of every queue of a batch live in one caller-owned
/// array indexed by query id (`next`), and the queue itself is a few words
/// that never allocate. Every push and pop of a batch must pass that array.
class NodeQueue {
public:
    void set_capacity(std::size_t capacity) noexcept { capacity_ = capacity; }

    /// Enqueues the arrival of `query`, which must not be waiting in any
    /// queue; false when the queue is full (the caller drops the message and
    /// the drop is counted here).
    [[nodiscard]] bool push(QueryId query, std::span<QueryId> next) {
        if (capacity_ != 0 && depth_ >= capacity_) {
            ++drops_;
            return false;
        }
        GIRG_DCHECK(query < next.size(), "NodeQueue::push: query id beyond the link array");
        // The tail's own link is never read: depth says where the queue ends.
        if (depth_ == 0) {
            head_ = query;
        } else {
            next[tail_] = query;
        }
        tail_ = query;
        if (++depth_ > high_water_) high_water_ = depth_;
        return true;
    }

    [[nodiscard]] QueryId pop(std::span<const QueryId> next) {
        GIRG_CHECK(depth_ != 0, "NodeQueue::pop on empty queue");
        const QueryId q = head_;
        head_ = next[q];
        --depth_;
        return q;
    }

    [[nodiscard]] bool empty() const noexcept { return depth_ == 0; }
    [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
    [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
    [[nodiscard]] std::size_t drops() const noexcept { return drops_; }

private:
    std::size_t capacity_ = 0;  // 0 = unbounded
    std::size_t drops_ = 0;
    QueryId head_ = kNoQuery;
    QueryId tail_ = kNoQuery;
    std::uint32_t depth_ = 0;  // a batch holds at most 2^32 query ids
    std::uint32_t high_water_ = 0;
};

}  // namespace smallworld
