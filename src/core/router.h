#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/objective.h"
#include "graph/graph.h"

namespace smallworld {

class AdversaryState;  // core/adversary.h
class FaultState;      // core/fault.h

/// Outcome of one routing attempt.
enum class RoutingStatus {
    kDelivered,  ///< message reached the target
    kDeadEnd,    ///< packet dropped: greedy local optimum, or (under an
                 ///< active FaultPlan) a crashed source / retries exhausted
    kExhausted,  ///< a patching protocol explored s's whole component: t unreachable
    kStepLimit,  ///< the step budget ran out (steps() + retries reached
                 ///< max_steps): a long exploration, wait-outs on down
                 ///< links, or a misrouting holder that traps a patching
                 ///< protocol in a loop
};

struct RoutingResult {
    RoutingStatus status = RoutingStatus::kDeadEnd;
    /// Vertices in visit order, starting at the source; consecutive entries
    /// are adjacent in the graph. For patching protocols this includes
    /// backtracking moves, so steps() is the true message-forwarding cost.
    std::vector<Vertex> path;
    /// Wait-out hops under transient link faults (core/fault.h): epochs the
    /// message spent parked because its links were down. Each one is charged
    /// against the step budget; always 0 without an active fault plan.
    std::size_t retries = 0;

    [[nodiscard]] bool success() const noexcept { return status == RoutingStatus::kDelivered; }
    [[nodiscard]] std::size_t steps() const noexcept {
        return path.empty() ? 0 : path.size() - 1;
    }
    /// Number of distinct vertices visited (the exploration footprint).
    [[nodiscard]] std::size_t distinct_vertices() const;

    bool operator==(const RoutingResult&) const = default;
};

struct RoutingOptions {
    /// Hard cap on message moves; 0 means "pick a generous default"
    /// (8n + 64, enough for any (P2)/(P3)-conforming exploration of a
    /// component while still catching infinite loops).
    std::size_t max_steps = 0;

    /// Optional fault injection (core/fault.h): when non-null and the plan
    /// is active, every router and simulator runs its route under the plan
    /// through one Regime (core/regime.h): crashed and removed links are
    /// invisible, and sends suffer transient link outages and message loss.
    /// Null or an inactive plan leaves behavior byte-identical to the
    /// unfaulted router. The state is immutable and may be shared across
    /// concurrent route() calls.
    const FaultState* faults = nullptr;

    /// Optional byzantine adversary (core/adversary.h): when non-null and the
    /// plan is active, decisions evaluate the *claimed* objective, scan
    /// advertised neighborhoods (honest edges plus phantom links), and
    /// byzantine vertices blackhole or misroute the packets their lies
    /// attract, all through the same Regime. Null or an inactive plan leaves
    /// behavior byte-identical to the honest router. Immutable and shareable
    /// across concurrent route() calls; composes with `faults`.
    const AdversaryState* adversary = nullptr;

    [[nodiscard]] std::size_t effective_max_steps(std::size_t num_vertices) const noexcept {
        return max_steps != 0 ? max_steps : 8 * num_vertices + 64;
    }
};

/// A decentralized routing protocol: given local neighbor knowledge (the
/// graph adjacency) and the objective (bound to the target), forward a
/// message from `source` until the objective's target is reached or the
/// protocol gives up.
class Router {
public:
    virtual ~Router() = default;

    [[nodiscard]] virtual RoutingResult route(const GraphView& graph, const Objective& objective,
                                              Vertex source,
                                              const RoutingOptions& options = {}) const = 0;

    /// Short identifier for tables ("greedy", "phi-dfs", ...).
    [[nodiscard]] virtual std::string name() const = 0;
};

/// Selects the neighbor of `v` maximizing the objective; ties broken toward
/// the smaller vertex id so every protocol is deterministic given the graph.
/// Returns kNoVertex when v has no neighbors.
[[nodiscard]] Vertex best_neighbor(const GraphView& graph, const Objective& objective, Vertex v);

}  // namespace smallworld
