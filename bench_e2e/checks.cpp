#include "checks.h"

#include <algorithm>
#include <span>
#include <vector>

#include "core/adversary.h"
#include "girg/girg.h"
#include "graph/fingerprint.h"

namespace smallworld::e2e {

Outcome outcome_of(const RoutingResult& result) {
    return {result.status, static_cast<std::uint32_t>(result.steps()),
            static_cast<std::uint32_t>(result.retries),
            result.path.empty() ? kNoVertex : result.path.back()};
}

std::uint64_t fold_outcome(std::uint64_t digest, std::uint64_t index, const Outcome& outcome) {
    const std::uint64_t fields[] = {index, static_cast<std::uint64_t>(outcome.status),
                                    outcome.steps, outcome.retries, outcome.last};
    return fnv1a_bytes(digest, fields, sizeof(fields));
}

const char* check_query(const CheckRules& rules, Vertex source, Vertex target,
                        const Outcome& outcome, std::span<const Vertex> path,
                        PathStats& stats) {
    stats = {};
    if (path.empty() || path.front() != source) return "path does not start at the source";
    if (outcome.steps != path.size() - 1 || outcome.last != path.back()) {
        return "outcome disagrees with its path";
    }
    const std::size_t budget = 8 * static_cast<std::size_t>(rules.graph.num_vertices()) + 64;
    if (outcome.status == RoutingStatus::kStepLimit) return "query ended in kStepLimit";
    if (std::size_t{outcome.steps} + outcome.retries > budget) return "steps + retries > 8n+64";

    const double* target_position =
        rules.attributes != nullptr ? rules.attributes->position(target) : nullptr;
    for (std::size_t i = 1; i < path.size(); ++i) {
        const Vertex u = path[i - 1];
        const Vertex v = path[i];
        stats.row_entries += rules.graph.degree(u);
        const std::span<const Vertex> row = rules.graph.neighbors(u);
        if (!std::binary_search(row.begin(), row.end(), v)) {
            // The one allowed non-edge: a byzantine holder forwarding along
            // a phantom link it advertised, which swallows the packet.
            const bool last_hop = i + 1 == path.size();
            const bool phantom =
                rules.adversary != nullptr && rules.adversary->byzantine(u) &&
                std::binary_search(rules.adversary->phantoms(u).begin(),
                                   rules.adversary->phantoms(u).end(), v);
            if (!(last_hop && phantom && outcome.status == RoutingStatus::kDeadEnd)) {
                return "hop along a non-edge";
            }
            stats.phantom_hop = true;
        }
        if (rules.phi_increases && !(rules.attributes->objective(v, target_position) >
                                     rules.attributes->objective(u, target_position))) {
            return "phi did not strictly increase";
        }
    }
    // A phantom hop is swallowed even when the phantom it names is the
    // target, so only an honest arrival counts.
    const bool arrived = path.back() == target && !stats.phantom_hop;
    if ((outcome.status == RoutingStatus::kDelivered) != arrived) {
        return "delivered does not match ending at the target";
    }
    stats.blackholed = outcome.status == RoutingStatus::kDeadEnd && !stats.phantom_hop &&
                       rules.adversary != nullptr && path.back() != target &&
                       rules.adversary->byzantine(path.back());

    std::vector<Vertex> visited(path.begin(), path.end());
    std::sort(visited.begin(), visited.end());
    stats.distinct = static_cast<std::size_t>(
        std::unique(visited.begin(), visited.end()) - visited.begin());
    return nullptr;
}

}  // namespace smallworld::e2e
