#include "distributed/simulation.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/regime.h"
#include "core/vertex_table.h"

namespace smallworld {

double LocalView::phi(Vertex u) const {
    if (u != self_) {
        // Locality is judged against the *visible* neighborhood: under an
        // active plan, evaluating a dead neighbor is a violation too.
        if (!std::binary_search(visible_.begin(), visible_.end(), u)) ++*violations_;
    }
    return objective_->value(u);
}

Vertex LocalView::best_neighbor() const {
    // One argmax rule for the whole repo: Objective::best_of's first-maximum
    // tie-break (toward the smaller id on the sorted visible span). The
    // centralized routers use the same entry point, so the tie-break cannot
    // drift between the two execution models.
    return objective_->best_of(visible_).vertex;
}

void DistributedProtocol::on_start(const LocalView& view, ProtocolMessage& message,
                                   NodeSlot& slot) const {
    message.last_visited = view.self();
    (void)slot;
}

namespace detail {

DistributedResult simulate_impl(const GraphView& graph, const Objective& honest,
                                const DistributedProtocol& protocol, Vertex source,
                                const RoutingOptions& options, std::uint64_t fault_nonce,
                                std::vector<SimulationTelemetry>* arrivals) {
    Regime regime(graph, honest, source, options, fault_nonce);
    const Objective& objective = regime.objective();
    const FaultView& faults = regime.faults();
    DistributedResult result;
    SimulationTelemetry& telemetry = result.telemetry;
    if (regime.source_crashed()) {
        // A crashed source never wakes: no slot is touched, nothing is sent.
        result.routing = regime.take();
        return result;
    }

    // One slot per woken node, lookup-only: the walk drives the order and
    // the table is never iterated.
    VertexTable<NodeSlot> slots;
    ProtocolMessage message;
    message.target = objective.target();

    // Residual neighborhood of the awake node, rebuilt per wake into
    // simulator-owned storage (valid for the lifetime of that wake's view).
    // The base row is what the node *advertises*, so the lies reach the
    // protocol through the same LocalView seam the fault filter uses.
    std::vector<Vertex> visible_scratch;
    const auto visible = [&](Vertex v) -> std::span<const Vertex> {
        const auto row = regime.row(v);
        if (!faults.active()) return row;
        visible_scratch.clear();
        for (const Vertex u : row) {
            if (faults.usable(v, u)) {
                visible_scratch.push_back(u);
            } else {
                ++telemetry.skipped_dead_neighbors;
            }
        }
        return visible_scratch;
    };

    // The regime's share of the telemetry: each charged retry is one more
    // wake of the node that re-sends.
    std::size_t wakes = 0;
    const auto sync = [&]() -> const SimulationTelemetry& {
        telemetry.wakes = wakes + regime.result().retries;
        telemetry.retries = regime.result().retries;
        telemetry.message_drops = regime.lost_sends();
        telemetry.audit_flags = regime.swallows();
        telemetry.slots_touched = slots.size();
        return telemetry;
    };
    // Telemetry as of the arrival just caused: what a serving run reports
    // for a query whose message is refused there.
    const auto record_arrival = [&] {
        if (arrivals != nullptr) arrivals->push_back(sync());
    };
    const auto finish = [&](RoutingStatus status) -> DistributedResult {
        sync();
        result.routing = regime.finish(status);
        return std::move(result);
    };

    Vertex current = source;
    {
        const LocalView view(graph, objective, source, &telemetry.locality_violations,
                             visible(source));
        protocol.on_start(view, message, slots[source]);
    }
    record_arrival();

    while (true) {
        ++wakes;
        const auto nbrs = visible(current);
        Vertex next = kNoVertex;
        if (regime.misroutes(current) && current != message.target) {
            // A byzantine holder never runs the honest protocol: the packet
            // goes where the regime's hijack sends it, picked from the
            // visible row; slot state stays untouched.
            next = regime.hijack(current, nbrs);
            if (next == kNoVertex) return finish(regime.result().status);  // isolated liar
            ++telemetry.misroutes_observed;
        } else {
            const LocalView view(graph, objective, current, &telemetry.locality_violations,
                                 nbrs);
            const Action action = protocol.on_wake(view, message, slots[current]);
            switch (action.kind) {
                case ActionKind::kDeliver:
                    return finish(RoutingStatus::kDelivered);
                case ActionKind::kDrop:
                    return finish(RoutingStatus::kDeadEnd);
                case ActionKind::kExhaust:
                    return finish(RoutingStatus::kExhausted);
                case ActionKind::kForward:
                    break;
            }
            if (!std::binary_search(nbrs.begin(), nbrs.end(), action.next)) {
                ++telemetry.illegal_forwards;
                return finish(RoutingStatus::kDeadEnd);
            }
            next = action.next;
        }
        // The regime's chokepoint: losses are retried in-wake until success,
        // drop, or a retry lands on the budget; then the landing swallows,
        // or checks the budget off the target (arrival beats budget).
        if (!regime.send(current, next)) return finish(regime.result().status);
        ++telemetry.messages_sent;
        if (!regime.land(current, next)) return finish(regime.result().status);
        current = next;
        record_arrival();
    }
}

}  // namespace detail

DistributedResult simulate_routing(const GraphView& graph, const Objective& objective,
                                   const DistributedProtocol& protocol, Vertex source,
                                   const RoutingOptions& options) {
    return detail::simulate_impl(graph, objective, protocol, source, options, 0, nullptr);
}

}  // namespace smallworld
