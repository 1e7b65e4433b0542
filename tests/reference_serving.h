#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "distributed/serving.h"
#include "random/splitmix64.h"

// Test-only oracle: simulate_many as it was before it split into a decide
// phase and a timing phase. It builds every objective of the batch up front
// (fanned out over ServingOptions::threads), keeps them all alive, and calls
// on_start / on_wake from inside the event loop, with its own copies of the
// send chokepoint, of the deque-backed node queue and of the event queue.
// serving_diff_test asserts that the production simulate_many returns
// exactly the ServingResult this does.
namespace smallworld::reference {

// The event queue of distributed/event.h as it was before injections went
// into a backlog: 40-byte events, a kind field, and one binary heap ordered
// by (time, salt, seq) that holds every pending event, injections included.
// The oracle runs on it, and serving_diff_test checks the production queue
// against it.

enum class EventKind : std::uint8_t {
    kArrival,  ///< a query's message reaches `node`'s inbound queue
    kWake,     ///< `node` is free and serves the head of its queue
};

struct Event {
    SimTime time = 0;
    std::uint64_t salt = 0;
    std::uint64_t seq = 0;
    EventKind kind = EventKind::kArrival;
    Vertex node = kNoVertex;
    QueryId query = kNoQuery;
};

class EventQueue {
public:
    explicit EventQueue(std::uint64_t seed) noexcept : seed_(seed) {}

    void push(SimTime time, EventKind kind, Vertex node, QueryId query) {
        Event e;
        e.time = time;
        e.salt = hash_combine(seed_, next_seq_);
        e.seq = next_seq_++;
        e.kind = kind;
        e.node = node;
        e.query = query;
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), After{});
        if (heap_.size() > high_water_) high_water_ = heap_.size();
    }

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
    [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
    [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

    Event pop() {
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        const Event e = heap_.back();
        heap_.pop_back();
        return e;
    }

private:
    struct After {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.time != b.time) return a.time > b.time;
            if (a.salt != b.salt) return a.salt > b.salt;
            return a.seq > b.seq;
        }
    };

    std::uint64_t seed_;
    std::uint64_t next_seq_ = 0;
    std::size_t high_water_ = 0;
    std::vector<Event> heap_;
};

[[nodiscard]] ServingResult simulate_many(const GraphView& graph,
                                          const TargetObjectiveFactory& factory,
                                          const DistributedProtocol& protocol,
                                          std::span<const ServingQuery> queries,
                                          const ServingOptions& options = {});

}  // namespace smallworld::reference
