#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/walk.h"
#include "distributed/event.h"
#include "distributed/latency.h"

namespace smallworld {

/// The discrete-event serving layer (DESIGN.md §10): many concurrent
/// in-flight queries move through one shared graph under simulated time.
/// Each query is the lockstep walk of core/walk.h — same LocalView locality
/// enforcement, same regime, misroute rule and budget convention — but
/// messages now take per-link latency to travel, land in bounded per-node
/// FIFO queues, and wait for the node to serve them one per service
/// interval. With a single query and zero latency the event execution
/// replays the lockstep walk move for move (tested); with thousands of
/// queries it is the "millions of users" serving story: queue depths,
/// drops, wake counts, and busy time become the measured quantities.
///
/// A run decides, then times. Only the message holder is awake and it
/// decides from its own view and the packet, so a query's walk never
/// depends on other queries: phase 1 walks every query to completion on
/// the lockstep walk, target by target, with one objective per target
/// that remembers each holder's decision (GirgObjective::best_above), and
/// phase 2 replays the walks through the event clock (arrivals, queues,
/// service, latency, drops), keeping state only for the nodes the walks
/// wake.

/// One routing request: route a message from `source` to `target`, injected
/// into the source's inbound queue at `start_time`.
struct ServingQuery {
    Vertex source = kNoVertex;
    Vertex target = kNoVertex;
    SimTime start_time = 0;
};

/// Builds the objective bound to one target. simulate_many calls it once
/// per *distinct* target of the batch, one call at a time on the calling
/// thread, in ascending target order; each objective is destroyed before
/// the next is built, and all of its evaluation runs on the calling thread
/// too. So at most one objective (one memo table, one table of remembered
/// decisions) is alive at a time, and every query toward a target shares
/// its objective's decisions.
using TargetObjectiveFactory = std::function<std::unique_ptr<Objective>(Vertex target)>;

struct ServingOptions {
    /// Per-query step budget, fault plan and adversary, exactly as on the
    /// lockstep walk. Query k draws from the per-query fault stream
    /// FaultView(routing.faults, source, k), so query 0 replays the lockstep
    /// stream. The adversary's lies are static per (seed, vertex) — every
    /// query sees the same liars — so it composes with the per-query nonces.
    RoutingOptions routing;

    /// Per-link message latency model.
    LatencyModel latency;
    /// Vertex positions; required iff latency.kind == kDistanceProportional.
    const PointCloud* positions = nullptr;

    /// Ticks a node is busy per served message (wake); the node serves its
    /// queue head again only when free.
    SimTime service_ticks = 1;
    /// Inbound FIFO bound per node; an arrival beyond it is dropped and the
    /// query fails (kDeadEnd, queue_drops telemetry). 0 = unbounded.
    std::size_t queue_capacity = 0;

    /// Root of the same-time event tie-break stream: the firing order of
    /// simultaneous events is a pure function of (seed, event key).
    std::uint64_t seed = 0;

    /// Unused: simulate_many runs entirely on the calling thread (see
    /// TargetObjectiveFactory). Kept so callers that set it still compile;
    /// results are the same for every value.
    unsigned threads = 0;
};

/// Per-run serving telemetry: the clock, the event machinery, and per-node
/// counters (index = vertex id; sized num_vertices).
struct ServingTelemetry {
    SimTime clock_end = 0;           ///< timestamp of the last fired event
    std::uint64_t events_fired = 0;  ///< events processed by the loop
    std::uint64_t events_scheduled = 0;
    std::size_t heap_high_water = 0; ///< peak pending-event count
    std::uint64_t total_wakes = 0;   ///< node service wakes (all queries)
    std::size_t queue_drops = 0;     ///< arrivals refused by full queues
    SimTime busy_ticks_total = 0;    ///< sum of node service intervals

    std::vector<std::uint32_t> node_wakes;
    std::vector<std::uint32_t> node_queue_high_water;
    std::vector<std::uint32_t> node_queue_drops;
    std::vector<SimTime> node_busy_ticks;

    bool operator==(const ServingTelemetry&) const = default;
};

struct ServingResult {
    /// Per-query outcome, index-aligned with the input batch; each entry has
    /// the exact shape (path, status, telemetry) a lockstep run produces.
    std::vector<DistributedResult> queries;
    ServingTelemetry serving;

    [[nodiscard]] std::size_t delivered() const noexcept {
        std::size_t count = 0;
        for (const DistributedResult& q : queries) {
            if (q.routing.success()) ++count;
        }
        return count;
    }

    bool operator==(const ServingResult&) const = default;
};

/// Runs the whole batch to completion under the discrete-event model and
/// returns per-query results plus serving telemetry. Deterministic: a pure
/// function of (graph, factory objectives, queries, options).
[[nodiscard]] ServingResult simulate_many(const GraphView& graph,
                                          const TargetObjectiveFactory& factory,
                                          const DistributedProtocol& protocol,
                                          std::span<const ServingQuery> queries,
                                          const ServingOptions& options = {});

}  // namespace smallworld
