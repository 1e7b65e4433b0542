#pragma once

#include <string>

#include "core/router.h"
#include "core/walk.h"

namespace smallworld {

/// Algorithm 2 — the paper's distributed exploration protocol satisfying
/// (P1)-(P3) with only a constant number of pointers and objective values
/// stored in the message and in each visited vertex — as a node-local
/// handler: constant per-node slot, constant message payload, one node
/// awake at a time. It is the only Φ-DFS; PhiDfsRouter drives it through
/// the lockstep walk.
///
/// The protocol runs greedy depth-first searches on the subgraph of vertices
/// with objective >= Phi. Whenever a vertex v with a strictly larger
/// objective than everything seen so far is reached (and v has a neighbor at
/// least as good), the current Phi-DFS is paused and a phi(v)-DFS starts at
/// v; if that inner DFS exhausts without finding the target it is discarded
/// and the outer DFS resumes exactly where it left off. Per-vertex state is
/// {Phi, parent, started_new_dfs, previous_Phi} (NodeSlot); the message
/// carries {best_seen_objective, Phi, last_visited_vertex} (ProtocolMessage).
///
/// One honest difference from the pseudocode: the objective of the vertex
/// the message backtracks *from* (which bounds the remaining child scan,
/// line 19's phi(m.last_visited_vertex)) is carried in the message as
/// `backtrack_upper`, because a real node cannot evaluate phi of a
/// non-neighbor. This keeps the payload constant-size and the execution
/// strictly local.
class DistributedPhiDfs final : public DistributedProtocol {
public:
    void on_start(const LocalView& view, ProtocolMessage& message,
                  NodeSlot& slot) const override;
    [[nodiscard]] Action on_wake(const LocalView& view, ProtocolMessage& message,
                                 NodeSlot& slot) const override;
    [[nodiscard]] std::string name() const override { return "dist-phi-dfs"; }
};

/// Algorithm 2 as a Router: DistributedPhiDfs on the lockstep walk
/// (simulate_routing), under the regime `options` name.
///
/// Guarantees (Theorem 3.4): always delivers when source and target are in
/// the same component, and a.a.s. within (2+o(1))/|log(beta-2)| loglog n
/// steps on GIRGs.
class PhiDfsRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "phi-dfs"; }
};

}  // namespace smallworld
