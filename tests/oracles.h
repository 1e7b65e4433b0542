#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <string>

#include "core/router.h"
#include "distributed/serving.h"

// Test-only oracles written from the paper's pseudocode and DESIGN.md §9-§10,
// not from src/: Algorithm 1 (greedy), Algorithm 2 (Φ-DFS) on the node-local
// model, Section 5's message-history and gravity-pressure, and the serving
// layer's event model. They reuse only the plan models (FaultState's residual
// filter, FaultView's keyed link and loss coins, AdversaryState's lies,
// LinkLatency) and read φ only through Objective::value, one vertex at a time.
// Per-query state lives in std::map, std::set and std::vector. The
// differential tests assert that the optimized code returns exactly what
// these do.
namespace smallworld::reference {

/// Algorithm 1, and under an active regime DESIGN.md §9's per-epoch loop:
/// each epoch re-chooses the best improving neighbor whose link is up.
class GreedyRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "greedy"; }
};

/// Algorithm 2, one node-local wake at a time, with the walk's misroute rule.
class PhiDfsRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "phi-dfs"; }
};

class GravityPressureRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "gravity-pressure"; }
};

class MessageHistoryRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "msg-history"; }
};

enum class EventKind : std::uint8_t {
    kArrival,  ///< a query's message reaches `node`'s inbound queue
    kWake,     ///< `node` is free and serves the head of its queue
};

struct Event {
    SimTime time = 0;
    std::uint64_t salt = 0;
    std::uint64_t seq = 0;  ///< schedule number
    EventKind kind = EventKind::kArrival;
    Vertex node = kNoVertex;
    QueryId query = kNoQuery;
};

/// DESIGN.md §10's event order as a sorted set: every pending event, ordered
/// by (time, salt, seq), where the k-th scheduled event has seq k and salt
/// hash_combine(seed, k).
class EventQueue {
public:
    explicit EventQueue(std::uint64_t seed) noexcept : seed_(seed) {}

    void push(SimTime time, EventKind kind, Vertex node, QueryId query);
    Event pop();

    [[nodiscard]] bool empty() const noexcept { return pending_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return pending_.size(); }
    [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
    [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

private:
    struct Earlier {
        bool operator()(const Event& a, const Event& b) const noexcept;
    };

    std::uint64_t seed_;
    std::uint64_t next_seq_ = 0;
    std::size_t high_water_ = 0;
    std::set<Event, Earlier> pending_;
};

/// The node-local protocols the serving oracle runs at each wake.
enum class Protocol { kGreedy, kPhiDfs };

/// The event model of DESIGN.md §10, with the protocol step run inside each
/// wake: arrivals join FIFO node queues (a full queue refuses the arrival),
/// a free node serves its head for service_ticks, and a forward arrives after
/// the latency keyed by (query << 32 | send index). Objectives are built
/// once per distinct target and all stay alive.
[[nodiscard]] ServingResult simulate_many(const GraphView& graph,
                                          const TargetObjectiveFactory& factory,
                                          Protocol protocol,
                                          std::span<const ServingQuery> queries,
                                          const ServingOptions& options = {});

}  // namespace smallworld::reference
