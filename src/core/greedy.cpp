#include "core/greedy.h"

#include <span>
#include <vector>

#include "core/regime.h"

namespace smallworld {

namespace {

/// Greedy under an active regime (DESIGN.md §9): at each epoch the message
/// goes to the best *available* improving neighbor of the advertised row;
/// with every improving link down, or the send lost, it waits out one hop
/// (charged to the budget) up to max_retries consecutive times, then drops.
/// A misrouting byzantine holder picks its worst available usable neighbor
/// instead, improving or not. The crash check, the row, the landing and the
/// claimed objective are the regime's.
RoutingResult route_greedy_faulted(const GraphView& graph, const Objective& honest,
                                   Vertex source, const RoutingOptions& options) {
    Regime regime(graph, honest, source, options);
    if (regime.source_crashed()) return regime.take();
    const Objective& objective = regime.objective();
    FaultView& faults = regime.faults();
    std::vector<double> values;  // the scanned row's (claimed) objectives
    int streak = 0;              // consecutive wait-out epochs
    for (Vertex current = source; current != regime.target();) {
        // One batched values() call per scan; phi is pure, so evaluating
        // unusable neighbors too changes nothing.
        const std::span<const Vertex> row = regime.row(current);
        values.resize(row.size());
        objective.values(row, values.data());
        Vertex next = kNoVertex;
        bool any_candidate = false;  // a usable candidate, up or down this epoch
        if (regime.misroutes(current)) {
            double worst_value = 0.0;
            for (std::size_t i = 0; i < row.size(); ++i) {
                const Vertex u = row[i];
                if (!faults.usable(current, u)) continue;
                any_candidate = true;
                if (!faults.link_up(current, u)) continue;
                if (next == kNoVertex || values[i] < worst_value) {
                    next = u;
                    worst_value = values[i];
                }
            }
        } else {
            const double current_value = objective.value(current);
            double best_value = current_value;
            for (std::size_t i = 0; i < row.size(); ++i) {
                const Vertex u = row[i];
                if (!faults.usable(current, u)) continue;  // residual filter
                if (!(values[i] > current_value)) continue;
                any_candidate = true;
                if (faults.link_up(current, u) && values[i] > best_value) {
                    next = u;
                    best_value = values[i];
                }
            }
        }
        faults.advance_epoch();
        // A genuine local optimum, or an isolated liar.
        if (!any_candidate) return regime.finish(RoutingStatus::kDeadEnd);
        if (next != kNoVertex && !regime.lost()) {
            streak = 0;
            if (!regime.land(current, next)) return regime.take();
            current = next;
        } else if (!regime.charge_failure(streak)) {
            return regime.take();
        }
    }
    return regime.finish(RoutingStatus::kDelivered);
}

}  // namespace

RoutingResult GreedyRouter::route(const GraphView& graph, const Objective& objective,
                                  Vertex source, const RoutingOptions& options) const {
    if (Regime::active(options)) return route_greedy_faulted(graph, objective, source, options);
    RoutingResult result;
    result.path.push_back(source);
    const std::size_t max_steps = options.effective_max_steps(graph.num_vertices());
    const Vertex target = objective.target();

    Vertex current = source;
    double current_value = objective.value(current);
    while (true) {
        // Arrival is checked before the budget: a packet that reaches the
        // target in exactly max_steps hops is delivered, not step-limited.
        if (current == target) {
            result.status = RoutingStatus::kDelivered;
            return result;
        }
        if (result.steps() >= max_steps) {
            result.status = RoutingStatus::kStepLimit;
            return result;
        }
        // One batched argmax returns the hop and its value together, so the
        // greedy loop costs a single virtual call per visited vertex.
        const BestNeighbor next = objective.best_of(graph.neighbors(current));
        if (next.vertex == kNoVertex || !(next.value > current_value)) {
            result.status = RoutingStatus::kDeadEnd;
            return result;
        }
        // Pull the next hop's adjacency row toward the cache while this
        // iteration finishes bookkeeping; its scan starts a few cycles out.
        graph.prefetch_neighbors(next.vertex);
        result.path.push_back(next.vertex);
        current = next.vertex;
        current_value = next.value;
    }
}

}  // namespace smallworld
