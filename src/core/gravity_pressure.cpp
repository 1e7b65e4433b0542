#include "core/gravity_pressure.h"

#include <cstddef>
#include <span>
#include <vector>

#include "core/fault.h"
#include "core/vertex_table.h"

namespace smallworld {

namespace {

RoutingResult route_impl(const GraphView& graph, const Objective& objective,
                         Vertex source, const RoutingOptions& options,
                         AdversaryView adversary) {
    RoutingResult result;
    result.path.push_back(source);
    const std::size_t max_steps = options.effective_max_steps(graph.num_vertices());
    const Vertex target = objective.target();
    FaultView faults(options.faults, source);

    if (faults.active() && !faults.vertex_alive(source) && source != target) {
        // A crashed source cannot even emit the packet.
        result.status = RoutingStatus::kDeadEnd;
        return result;
    }

    VertexTable<std::size_t> visits;  // pressure-mode visits per vertex
    std::vector<double> scratch;  // batched neighbor objectives, reused per scan
    std::vector<Vertex> adv_scratch;  // advertised-neighbor merge buffer
    bool pressure = false;
    double escape_value = 0.0;  // objective of the local optimum to beat

    Vertex current = source;
    while (true) {
        // Arrival before budget (PR-1 convention); wait-out hops charge the
        // budget, so steps()+retries is the consumed budget.
        if (current == target) {
            result.status = RoutingStatus::kDelivered;
            return result;
        }
        if (result.steps() + result.retries >= max_steps) {
            result.status = RoutingStatus::kStepLimit;
            return result;
        }

        Vertex next = kNoVertex;
        if (adversary.misroutes(current)) {
            // The byzantine holder ignores the protocol (pressure state and
            // visit counts untouched): the packet goes to the *worst*
            // advertised usable neighbor by claimed value, first-min in list
            // order; the transient chokepoint below retries it verbatim.
            const auto neighborhood =
                adversary.advertised_neighbors(graph, current, adv_scratch);
            double worst_value = 0.0;
            for (const Vertex u : neighborhood) {
                if (!faults.usable(current, u)) continue;
                const double value = objective.value(u);
                if (next == kNoVertex || value < worst_value) {
                    next = u;
                    worst_value = value;
                }
            }
            if (next == kNoVertex) {
                result.status = RoutingStatus::kDeadEnd;  // isolated liar
                return result;
            }
        } else {
            // One batched values() pass over the advertised row serves the
            // step: the gravity argmax and, when that finds no improvement
            // or pressure is already on, the least-visited choice. Under an
            // adversary the row holds phantoms with claimed values; phi is
            // pure, so evaluating dead neighbors changes nothing.
            const std::span<const Vertex> neighbors =
                adversary.active() ? adversary.advertised_neighbors(graph, current, adv_scratch)
                                   : graph.neighbors(current);
            scratch.resize(neighbors.size());
            objective.values(neighbors, scratch.data());
            const bool faulted = faults.active();
            if (!pressure) {
                // best_of's first-maximum argmax over the residual row.
                Vertex best = kNoVertex;
                double best_value = 0.0;
                for (std::size_t i = 0; i < neighbors.size(); ++i) {
                    if (faulted && !faults.usable(current, neighbors[i])) continue;
                    if (best == kNoVertex || scratch[i] > best_value) {
                        best = neighbors[i];
                        best_value = scratch[i];
                    }
                }
                if (best == kNoVertex) {
                    result.status = RoutingStatus::kDeadEnd;  // isolated in the residual graph
                    return result;
                }
                const double current_value = objective.value(current);
                if (best_value > current_value) {
                    next = best;
                } else {
                    pressure = true;
                    escape_value = current_value;
                }
            }
            if (pressure) {
                ++visits[current];
                // Least-visited usable neighbor; ties toward higher objective.
                std::size_t best_visits = 0;
                double best_value = 0.0;
                for (std::size_t i = 0; i < neighbors.size(); ++i) {
                    const Vertex u = neighbors[i];
                    if (faulted && !faults.usable(current, u)) continue;
                    const std::size_t* count = visits.find(u);
                    const std::size_t u_visits = count == nullptr ? 0 : *count;
                    const double u_value = scratch[i];
                    if (next == kNoVertex || u_visits < best_visits ||
                        (u_visits == best_visits && u_value > best_value)) {
                        next = u;
                        best_visits = u_visits;
                        best_value = u_value;
                    }
                }
                if (next == kNoVertex) {
                    result.status = RoutingStatus::kDeadEnd;
                    return result;
                }
                if (best_value > escape_value) pressure = false;
            }
        }
        if (faults.transient()) {
            // Send chokepoint: the chosen move is retried verbatim while its
            // link is down — a wait-out hop per epoch, charged against the
            // budget — so the visit bookkeeping above runs once per decision.
            // After max_retries consecutive waits the packet drops; a wait
            // landing exactly on the budget reports kStepLimit instead.
            int waits = 0;
            while (!faults.link_up(current, next)) {
                faults.advance_epoch();
                if (waits >= faults.max_retries()) {
                    result.status = RoutingStatus::kDeadEnd;  // dropped in flight
                    return result;
                }
                ++waits;
                ++result.retries;
                if (result.steps() + result.retries >= max_steps) {
                    result.status = RoutingStatus::kStepLimit;
                    return result;
                }
            }
            faults.advance_epoch();
        }
        result.path.push_back(next);
        // A forward along an advertised-but-nonexistent link is swallowed;
        // the attempted hop stays on the trace for the audit to flag.
        if (adversary.advertises_phantoms(current) &&
            AdversaryView::phantom_link(graph, current, next)) {
            result.status = RoutingStatus::kDeadEnd;
            return result;
        }
        current = next;
        // Blackholing byzantine vertices swallow everything they receive;
        // arrival at the target is delivery regardless.
        if (current != target && adversary.blackholes(current)) {
            result.status = RoutingStatus::kDeadEnd;
            return result;
        }
    }
}

}  // namespace

RoutingResult GravityPressureRouter::route(const GraphView& graph, const Objective& objective,
                                           Vertex source,
                                           const RoutingOptions& options) const {
    if (options.adversary != nullptr && options.adversary->plan().any()) {
        // Byzantine regime: gravity-pressure maximizes what vertices *claim*.
        const ClaimedObjective claimed(objective, *options.adversary);
        return route_impl(graph, claimed, source, options,
                          AdversaryView(options.adversary));
    }
    return route_impl(graph, objective, source, options, {});
}

}  // namespace smallworld
