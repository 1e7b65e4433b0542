#include "distributed/serving.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "core/check.h"
#include "core/vertex_table.h"
#include "distributed/queue.h"

namespace smallworld {

namespace {

/// Mutable serving state of one woken node; scattered into
/// ServingTelemetry's per-node vectors at the end.
struct NodeState {
    NodeQueue queue;
    SimTime next_free = 0;  ///< first tick the node can serve again
    SimTime busy_ticks = 0;
    std::uint32_t wakes = 0;
    bool wake_scheduled = false;  ///< exactly one pending wake per busy node
};

/// Protocol wakes of a decided walk: every wake is one on_wake call or one
/// charged retry of the send chokepoint.
std::size_t decided_wakes(const DistributedResult& walk) noexcept {
    return walk.telemetry.wakes - walk.telemetry.retries;
}

}  // namespace

ServingResult simulate_many(const GraphView& graph, const TargetObjectiveFactory& factory,
                            const DistributedProtocol& protocol,
                            std::span<const ServingQuery> queries,
                            const ServingOptions& options) {
    const std::size_t n = graph.num_vertices();
    for (const ServingQuery& q : queries) {
        GIRG_CHECK(q.source < n && q.target < n, "simulate_many: query (", q.source,
                   " -> ", q.target, ") out of range for n=", n);
    }
    GIRG_CHECK(queries.size() < kNoQuery, "simulate_many: ", queries.size(),
               " queries exceed the QueryId range");
    const LinkLatency latency(options.latency, options.positions);
    const bool bounded = options.queue_capacity != 0;

    ServingResult out;
    out.queries.resize(queries.size());

    // Phase 1, decide. A query's walk depends only on its own message and
    // slots, its own fault stream (nonce = batch index) and the static
    // adversary, never on other queries; timing only orders events and
    // decides capacity drops. So each query walks to completion on the
    // lockstep walk, target by target: one objective is alive at a
    // time, and its decisions serve every query toward its target. Bounded
    // queues also keep the telemetry as of each arrival a walk causes, for
    // the queries phase 2 refuses.
    std::vector<SimulationTelemetry> arrivals;
    std::vector<std::size_t> first_arrival(bounded ? queries.size() : 0);
    std::vector<QueryId> order(queries.size());
    std::iota(order.begin(), order.end(), QueryId{0});
    std::stable_sort(order.begin(), order.end(), [&](QueryId a, QueryId b) {
        return queries[a].target < queries[b].target;
    });
    for (std::size_t begin = 0; begin < order.size();) {
        const Vertex target = queries[order[begin]].target;
        const std::unique_ptr<Objective> objective = factory(target);
        GIRG_CHECK(objective != nullptr && objective->target() == target,
                   "simulate_many: the factory must return an objective bound to target ",
                   target);
        for (; begin < order.size() && queries[order[begin]].target == target; ++begin) {
            const QueryId i = order[begin];
            if (bounded) first_arrival[i] = arrivals.size();
            out.queries[i] = detail::simulate_impl(graph, *objective, protocol,
                                                   queries[i].source, options.routing, i,
                                                   bounded ? &arrivals : nullptr);
        }
    }

    // Phase 2, time. Each wake reads its decided outcome: wake k of a query
    // is at path[k], forwards to path[k + 1] with send index k, and its last
    // wake ends it (a hop it put on the path may have been swallowed). Every
    // push happens where a wake that ran the protocol would make it, so the
    // event order, salts and send keys are those of the event model
    // (DESIGN.md §10). Only the nodes of decided wakes ever hold a message,
    // so serving state is kept for them alone, numbered in order of first
    // wake: stops[first_stop[i] + k] is the number of query i's wake k.
    VertexTable<std::uint32_t> number_of;
    std::vector<Vertex> woken;
    std::vector<std::uint32_t> stops;
    std::vector<std::size_t> first_stop(queries.size());
    for (QueryId i = 0; i < queries.size(); ++i) {
        first_stop[i] = stops.size();
        const DistributedResult& run = out.queries[i];
        for (std::size_t k = 0; k < decided_wakes(run); ++k) {
            const auto [number, fresh] = number_of.insert(run.routing.path[k]);
            if (fresh) {
                *number = static_cast<std::uint32_t>(woken.size());
                woken.push_back(run.routing.path[k]);
            }
            stops.push_back(*number);
        }
    }

    std::vector<NodeState> nodes(woken.size());
    if (bounded) {
        for (NodeState& node : nodes) node.queue.set_capacity(options.queue_capacity);
    }
    std::vector<QueryId> links(queries.size());       // NodeQueue successors
    std::vector<std::size_t> served(queries.size());  // wakes served per query
    EventQueue events(options.seed);

    // Injection, in batch order. A crashed source never wakes: nothing is
    // scheduled (lockstep parity).
    for (QueryId i = 0; i < queries.size(); ++i) {
        if (decided_wakes(out.queries[i]) == 0) continue;
        events.inject(queries[i].start_time, stops[first_stop[i]], i);
    }

    while (!events.empty()) {
        const Event e = events.pop();
        ++out.serving.events_fired;
        out.serving.clock_end = e.time;
        NodeState& node = nodes[e.node];

        if (e.query != kNoQuery) {
            // An arrival.
            if (!node.queue.push(e.query, links)) {
                // Full inbound queue: the landing message is refused and the
                // query dies where it stood (the packet is the query), with
                // the telemetry it had when this arrival was caused.
                DistributedResult& run = out.queries[e.query];
                const std::size_t arrival = served[e.query];
                run.telemetry = arrivals[first_arrival[e.query] + arrival];
                run.telemetry.queue_drops = 1;
                run.routing.status = RoutingStatus::kDeadEnd;
                run.routing.path.resize(arrival + 1);
                run.routing.retries = run.telemetry.retries;
                continue;
            }
            if (!node.wake_scheduled) {
                events.push(std::max(e.time, node.next_free), e.node, kNoQuery);
                node.wake_scheduled = true;
            }
            continue;
        }

        // A wake: serve exactly one queued message, then go busy for the
        // service interval.
        node.wake_scheduled = false;
        const QueryId qid = node.queue.pop(links);
        ++node.wakes;
        node.busy_ticks += options.service_ticks;
        node.next_free = e.time + options.service_ticks;

        const DistributedResult& run = out.queries[qid];
        const std::size_t wake = served[qid]++;
        if (wake + 1 < decided_wakes(run)) {
            // Key the latency draw by (query, per-query send index) so
            // concurrent queries crossing one edge jitter independently.
            const Vertex next = run.routing.path[wake + 1];
            const std::uint64_t send_key = (static_cast<std::uint64_t>(qid) << 32) |
                                           static_cast<std::uint32_t>(wake);
            events.push(e.time + latency.delay(woken[e.node], next, send_key),
                        stops[first_stop[qid] + wake + 1], qid);
        }

        if (!node.queue.empty()) {
            events.push(node.next_free, e.node, kNoQuery);
            node.wake_scheduled = true;
        }
    }

    for (QueryId i = 0; i < queries.size(); ++i) {
        GIRG_CHECK(served[i] == decided_wakes(out.queries[i]), "simulate_many: query ", i,
                   " still in flight after the event heap drained");
    }
    out.serving.events_scheduled = events.scheduled();
    out.serving.heap_high_water = events.high_water();
    out.serving.node_wakes.resize(n);
    out.serving.node_queue_high_water.resize(n);
    out.serving.node_queue_drops.resize(n);
    out.serving.node_busy_ticks.resize(n);
    for (std::size_t k = 0; k < woken.size(); ++k) {
        const NodeState& node = nodes[k];
        const Vertex v = woken[k];
        out.serving.node_wakes[v] = node.wakes;
        out.serving.node_queue_high_water[v] =
            static_cast<std::uint32_t>(node.queue.high_water());
        out.serving.node_queue_drops[v] = static_cast<std::uint32_t>(node.queue.drops());
        out.serving.node_busy_ticks[v] = node.busy_ticks;
        out.serving.total_wakes += node.wakes;
        out.serving.queue_drops += node.queue.drops();
        out.serving.busy_ticks_total += node.busy_ticks;
    }
    return out;
}

}  // namespace smallworld
