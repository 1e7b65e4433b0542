#include "core/gravity_pressure.h"

#include <cstddef>
#include <span>
#include <vector>

#include "core/regime.h"
#include "core/vertex_table.h"

namespace smallworld {

RoutingResult GravityPressureRouter::route(const GraphView& graph, const Objective& honest,
                                           Vertex source,
                                           const RoutingOptions& options) const {
    Regime regime(graph, honest, source, options);
    if (regime.source_crashed()) return regime.take();
    const Objective& objective = regime.objective();
    const FaultView& faults = regime.faults();

    VertexTable<std::size_t> visits;  // pressure-mode visits per vertex
    std::vector<double> scratch;  // batched neighbor objectives, reused per scan
    bool pressure = false;
    double escape_value = 0.0;  // objective of the local optimum to beat

    for (Vertex current = source; current != regime.target();) {
        // A misrouting byzantine holder skips the protocol (pressure state
        // and visit counts untouched): the regime's move picks its hop.
        Vertex next = kNoVertex;
        if (!regime.misroutes(current)) {
            // One batched values() pass over the advertised row serves the
            // step: the gravity argmax and, when that finds no improvement
            // or pressure is already on, the least-visited choice. Under an
            // adversary the row holds phantoms with claimed values; phi is
            // pure, so evaluating dead neighbors changes nothing.
            const std::span<const Vertex> neighbors = regime.row(current);
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
                // Isolated in the residual graph.
                if (best == kNoVertex) return regime.finish(RoutingStatus::kDeadEnd);
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
                if (next == kNoVertex) return regime.finish(RoutingStatus::kDeadEnd);
                if (best_value > escape_value) pressure = false;
            }
        }
        // The send chokepoint retries the chosen move verbatim while it
        // fails, so the visit bookkeeping above runs once per decision.
        current = regime.move(current, next);
        if (current == kNoVertex) return regime.take();
    }
    return regime.finish(RoutingStatus::kDelivered);
}

}  // namespace smallworld
