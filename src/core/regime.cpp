#include "core/regime.h"

#include <span>

namespace smallworld {

Regime::Regime(const GraphView& graph, const Objective& objective, Vertex source,
               const RoutingOptions& options, std::uint64_t fault_nonce)
    : graph_(graph),
      objective_(&objective),
      target_(objective.target()),
      max_steps_(options.effective_max_steps(graph.num_vertices())),
      faults_(options.faults, source, fault_nonce),
      adversary_(options.adversary) {
    // Byzantine regime: every decision maximizes what vertices *claim*.
    if (adversary_.active()) objective_ = &claimed_.emplace(objective, *options.adversary);
    result_.path.push_back(source);
}

Vertex Regime::hijack(Vertex from, std::span<const Vertex> candidates) {
    Vertex worst = kNoVertex;
    double worst_value = 0.0;
    for (const Vertex u : candidates) {
        if (!faults_.usable(from, u)) continue;
        const double value = objective_->value(u);
        if (worst == kNoVertex || value < worst_value) {
            worst = u;
            worst_value = value;
        }
    }
    if (worst == kNoVertex) end(RoutingStatus::kDeadEnd);  // isolated liar
    return worst;
}

}  // namespace smallworld
