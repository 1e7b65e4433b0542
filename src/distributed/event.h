#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "random/splitmix64.h"

namespace smallworld {

/// Simulated time of the discrete-event serving layer, in integer ticks.
/// There is no wall clock anywhere in this layer (girg-lint R1 polices it):
/// latency models and service intervals hand out tick counts, so every
/// timestamp is a pure function of the simulated history.
using SimTime = std::uint64_t;

/// Index of a query in the simulate_many batch.
using QueryId = std::uint32_t;
inline constexpr QueryId kNoQuery = static_cast<QueryId>(-1);

/// One scheduled event: `query`'s message reaches `node`'s inbound queue,
/// or, when `query` is kNoQuery, `node` is free and serves the head of its
/// queue. `node` is the caller's index of the node (simulate_many numbers
/// the nodes its walks wake).
///
/// Events fire in (time, salt) order. `salt` is hash_combine(seed, k) for
/// the k-th event the queue schedules, so simultaneous events fire in an
/// order that is a pure function of (seed, schedule order): reproducible,
/// yet not biased toward low node or query ids. For a fixed seed the salt
/// is a bijection of k (the XOR, the add and splitmix64's finalizer are
/// each invertible), so two events of one queue never tie and the order is
/// total without a sequence number.
struct Event {
    SimTime time = 0;
    std::uint64_t salt = 0;
    std::uint32_t node = 0;
    QueryId query = kNoQuery;
};

/// The pending events of one run, in the order above. Events scheduled with
/// push() go into a binary heap. Events scheduled with inject() go into a
/// backlog that is sorted once, at the next pop, and pop() merges its front
/// with the heap's top. A batch injects its queries up front, so the heap
/// holds only the events in flight. Both kinds of scheduling draw salts from
/// one counter, so where an event was scheduled never changes the order.
class EventQueue {
public:
    explicit EventQueue(std::uint64_t seed) noexcept : seed_(seed) {}

    void push(SimTime time, std::uint32_t node, QueryId query) {
        heap_.push_back(schedule(time, node, query));
        std::push_heap(heap_.begin(), heap_.end(), After{});
    }

    /// Schedules like push(), into the backlog.
    void inject(SimTime time, std::uint32_t node, QueryId query) {
        backlog_.push_back(schedule(time, node, query));
        backlog_sorted_ = false;
    }

    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    /// Pending events: the heap and what is left of the backlog.
    [[nodiscard]] std::size_t size() const noexcept {
        return heap_.size() + backlog_.size() - backlog_next_;
    }
    /// Peak pending-event count, read after every schedule.
    [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
    /// Events scheduled over the queue's lifetime (== the schedule counter).
    [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

    Event pop() {
        if (!backlog_sorted_) sort_backlog();
        if (backlog_next_ < backlog_.size() &&
            (heap_.empty() || After{}(heap_.front(), backlog_[backlog_next_]))) {
            return backlog_[backlog_next_++];
        }
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        const Event e = heap_.back();
        heap_.pop_back();
        return e;
    }

private:
    /// "a fires after b": the heap is a max-heap under this, i.e. a
    /// min-heap in event order.
    struct After {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.time != b.time) return a.time > b.time;
            return a.salt > b.salt;
        }
    };

    Event schedule(SimTime time, std::uint32_t node, QueryId query) {
        const Event e{time, hash_combine(seed_, next_seq_++), node, query};
        high_water_ = std::max(high_water_, size() + 1);
        return e;
    }

    /// Drops the popped prefix and sorts the rest into firing order.
    void sort_backlog() {
        backlog_.erase(backlog_.begin(),
                       backlog_.begin() + static_cast<std::ptrdiff_t>(backlog_next_));
        backlog_next_ = 0;
        std::sort(backlog_.begin(), backlog_.end(),
                  [](const Event& a, const Event& b) { return After{}(b, a); });
        backlog_sorted_ = true;
    }

    std::uint64_t seed_;
    std::uint64_t next_seq_ = 0;
    std::size_t high_water_ = 0;
    std::vector<Event> heap_;
    std::vector<Event> backlog_;  ///< [backlog_next_, end) pending
    std::size_t backlog_next_ = 0;
    bool backlog_sorted_ = true;
};

}  // namespace smallworld
