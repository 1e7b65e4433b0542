#include "distributed/simulation.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
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

namespace {

enum class SendOutcome {
    kSent,            ///< message is on the wire toward its next hop
    kDroppedInFlight, ///< max_retries consecutive losses: report kDeadEnd
    kBudgetExhausted, ///< a charged retry landed on the budget: kStepLimit
};

/// The send chokepoint. Precondition: faults.active(). A send lost to
/// per-wake message loss or a down transient link is retried by the same
/// node — one extra wake and one budget-charged retry per attempt, without
/// re-running on_wake (handlers are not idempotent) — until it succeeds,
/// max_retries consecutive losses drop the packet, or a retry lands exactly
/// on the budget (budget beats retry exhaustion, DESIGN.md §9).
SendOutcome faulted_send(FaultView& faults, std::uint64_t& send_attempt, Vertex from,
                         Vertex to, std::size_t max_steps, RoutingResult& routing,
                         SimulationTelemetry& telemetry) {
    int failures = 0;
    while (true) {
        bool lost = faults.message_lost(send_attempt++);
        if (faults.transient()) {
            if (!faults.link_up(from, to)) lost = true;
            faults.advance_epoch();
        }
        if (!lost) return SendOutcome::kSent;
        ++telemetry.message_drops;
        if (failures >= faults.max_retries()) {
            return SendOutcome::kDroppedInFlight;
        }
        ++failures;
        ++telemetry.wakes;
        ++telemetry.retries;
        ++routing.retries;
        if (routing.steps() + routing.retries >= max_steps) {
            return SendOutcome::kBudgetExhausted;
        }
    }
}

}  // namespace

namespace detail {

DistributedResult simulate_impl(const GraphView& graph, const Objective& objective,
                                const DistributedProtocol& protocol, Vertex source,
                                const RoutingOptions& options, const FaultState* fault_state,
                                std::uint64_t fault_nonce, const AdversaryState* adversary_state,
                                std::vector<SimulationTelemetry>* arrivals) {
    DistributedResult result;
    result.routing.path.push_back(source);
    const std::size_t max_steps = options.effective_max_steps(graph.num_vertices());
    FaultView faults(fault_state, source, fault_nonce);
    const AdversaryView adversary(adversary_state);

    if (faults.active() && !faults.vertex_alive(source) &&
        source != objective.target()) {
        // A crashed source never wakes: no slot is touched, nothing is sent.
        result.routing.status = RoutingStatus::kDeadEnd;
        return result;
    }

    // One slot per woken node, lookup-only: the walk drives the order and
    // the table is never iterated.
    VertexTable<NodeSlot> slots;
    ProtocolMessage message;
    message.target = objective.target();

    // Residual neighborhood of the awake node, rebuilt per wake into
    // simulator-owned storage (valid for the lifetime of that wake's view).
    // Under an active adversary the base row is what the node *advertises*
    // (phantom links merged in), so the lies reach the protocol through the
    // same LocalView seam the fault filter uses.
    std::vector<Vertex> visible_scratch;
    std::vector<Vertex> adv_scratch;
    const auto visible = [&](Vertex v) -> std::span<const Vertex> {
        const bool lies = adversary.advertises_phantoms(v);
        if (!faults.active() && !lies) return graph.neighbors(v);
        const auto base = lies ? adversary.advertised_neighbors(graph, v, adv_scratch)
                               : graph.neighbors(v);
        if (!faults.active()) return base;
        visible_scratch.clear();
        for (const Vertex u : base) {
            if (faults.usable(v, u)) {
                visible_scratch.push_back(u);
            } else {
                ++result.telemetry.skipped_dead_neighbors;
            }
        }
        return visible_scratch;
    };

    // Telemetry as of the arrival just caused: what a serving run reports
    // for a query whose message is refused there.
    const auto record_arrival = [&] {
        if (arrivals == nullptr) return;
        arrivals->push_back(result.telemetry);
        arrivals->back().slots_touched = slots.size();
    };

    Vertex current = source;
    {
        const LocalView view(graph, objective, source,
                             &result.telemetry.locality_violations, visible(source));
        protocol.on_start(view, message, slots[source]);
    }
    record_arrival();

    const auto finish = [&](RoutingStatus status) -> DistributedResult {
        result.routing.status = status;
        result.telemetry.slots_touched = slots.size();
        return std::move(result);
    };

    std::uint64_t send_attempt = 0;  // route-global message-loss counter
    while (true) {
        ++result.telemetry.wakes;
        const auto nbrs = visible(current);
        Action action;
        if (adversary.misroutes(current) && current != message.target) {
            // A byzantine holder never runs the honest protocol: the packet
            // goes to its *worst* visible neighbor by claimed value
            // (first-min in span order); slot state stays untouched.
            Vertex worst = kNoVertex;
            double worst_value = 0.0;
            for (const Vertex u : nbrs) {
                const double value = objective.value(u);
                if (worst == kNoVertex || value < worst_value) {
                    worst = u;
                    worst_value = value;
                }
            }
            if (worst == kNoVertex) {
                action = Action::drop();  // isolated liar
            } else {
                action = Action::forward(worst);
                ++result.telemetry.misroutes_observed;
            }
        } else {
            const LocalView view(graph, objective, current,
                                 &result.telemetry.locality_violations, nbrs);
            action = protocol.on_wake(view, message, slots[current]);
        }
        switch (action.kind) {
            case ActionKind::kDeliver:
                return finish(RoutingStatus::kDelivered);
            case ActionKind::kDrop:
                return finish(RoutingStatus::kDeadEnd);
            case ActionKind::kExhaust:
                return finish(RoutingStatus::kExhausted);
            case ActionKind::kForward: {
                if (!std::binary_search(nbrs.begin(), nbrs.end(), action.next)) {
                    ++result.telemetry.illegal_forwards;
                    return finish(RoutingStatus::kDeadEnd);
                }
                if (faults.active()) {
                    // Send chokepoint: losses are retried in-wake until
                    // success, drop, or a retry lands on the budget.
                    switch (faulted_send(faults, send_attempt, current, action.next,
                                         max_steps, result.routing, result.telemetry)) {
                        case SendOutcome::kSent:
                            break;
                        case SendOutcome::kDroppedInFlight:
                            return finish(RoutingStatus::kDeadEnd);
                        case SendOutcome::kBudgetExhausted:
                            return finish(RoutingStatus::kStepLimit);
                    }
                }
                ++result.telemetry.messages_sent;
                result.routing.path.push_back(action.next);
                // A forward along an advertised-but-nonexistent link is
                // swallowed (the hop stays on the trace for the audit); a
                // blackholing byzantine vertex swallows every arrival except
                // at the target, where arrival is delivery.
                if (adversary.advertises_phantoms(current) &&
                    AdversaryView::phantom_link(graph, current, action.next)) {
                    ++result.telemetry.audit_flags;
                    return finish(RoutingStatus::kDeadEnd);
                }
                if (action.next != message.target && adversary.blackholes(action.next)) {
                    ++result.telemetry.audit_flags;
                    return finish(RoutingStatus::kDeadEnd);
                }
                current = action.next;
                // Arrival beats budget (greedy.cpp's boundary convention): a
                // forward that lands on the target with exactly-exhausted
                // budget still wakes it and delivers, so the budget check
                // skips the delivering hop — in the plain and faulted paths
                // alike.
                if (current != message.target &&
                    result.routing.steps() + result.routing.retries >= max_steps) {
                    return finish(RoutingStatus::kStepLimit);
                }
                record_arrival();
                break;
            }
        }
    }
}

}  // namespace detail

namespace {

DistributedResult simulate_dispatch(const GraphView& graph, const Objective& objective,
                                    const DistributedProtocol& protocol, Vertex source,
                                    const RoutingOptions& options,
                                    const FaultState* faults,
                                    const AdversaryState* adversary) {
    if (adversary != nullptr && adversary->plan().any()) {
        // Byzantine regime: every wake evaluates what vertices *claim*.
        const ClaimedObjective claimed(objective, *adversary);
        return detail::simulate_impl(graph, claimed, protocol, source, options, faults, 0,
                                     adversary, nullptr);
    }
    return detail::simulate_impl(graph, objective, protocol, source, options, faults, 0,
                                 nullptr, nullptr);
}

}  // namespace

DistributedResult simulate_routing(const GraphView& graph, const Objective& objective,
                                   const DistributedProtocol& protocol, Vertex source,
                                   const RoutingOptions& options) {
    return simulate_dispatch(graph, objective, protocol, source, options,
                             options.faults, options.adversary);
}

DistributedResult simulate_routing(const GraphView& graph, const Objective& objective,
                                   const DistributedProtocol& protocol, Vertex source,
                                   const FaultedSimulationOptions& options) {
    const FaultState* faults =
        options.faults != nullptr ? options.faults : options.routing.faults;
    const AdversaryState* adversary =
        options.adversary != nullptr ? options.adversary : options.routing.adversary;
    return simulate_dispatch(graph, objective, protocol, source, options.routing,
                             faults, adversary);
}

}  // namespace smallworld
