#include "core/phi_dfs.h"

#include <cstddef>
#include <limits>

namespace smallworld {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

/// Line 19: the best u in Gamma(v), u != v.parent, with
/// m.Phi <= phi(u) < m.backtrack_upper, or kNoVertex. The window's top is
/// the objective of the child the message returned from, so the scan
/// proceeds in decreasing order.
Vertex best_unexplored_child(const LocalView& view, const ProtocolMessage& message,
                             const NodeSlot& slot) {
    const auto row = view.neighbors();
    const auto values = view.values();
    Vertex child = kNoVertex;
    double child_value = kNegInf;
    for (std::size_t i = 0; i < row.size(); ++i) {
        const double value = values[i];
        if (row[i] != slot.parent && value >= message.phi &&
            value < message.backtrack_upper && value > child_value) {
            child = row[i];
            child_value = value;
        }
    }
    return child;
}

}  // namespace

void DistributedPhiDfs::on_start(const LocalView& view, ProtocolMessage& message,
                                 NodeSlot& slot) const {
    // ROUTING(s, m), lines 1-6.
    message.best_seen = kNegInf;
    message.phi = kNegInf;
    message.last_visited = view.self();
    message.backtracking = false;
    slot.phi = view.phi(view.self());  // line 5
}

Action DistributedPhiDfs::on_wake(const LocalView& view, ProtocolMessage& message,
                                  NodeSlot& slot) const {
    const Vertex self = view.self();
    if (self == message.target) return Action::deliver();

    if (!message.backtracking) {
        // EXPLORE(self), lines 7-17.
        const double phi_self = view.phi(self);
        const Vertex back = message.last_visited;
        if (slot.phi == message.phi) {
            // Lines 8-9: already visited in the current Phi-DFS. Bounce
            // straight back, reading no row; the sender then continues its
            // child scan below this node's objective.
            message.backtrack_upper = phi_self;
            message.last_visited = self;
            message.backtracking = true;
            return Action::forward(back);
        }
        // Lines 10-17 read one argmax over the row: SET_NEW_PHI's test and
        // the descent (line 15) share it. Both compare with >=, so it is
        // taken over the whole row (no floor).
        const BestNeighbor best = view.best(kNegInf);
        const bool has_best = best.vertex != kNoVertex;
        if (phi_self > message.best_seen) {
            // SET_NEW_PHI(self), lines 30-35.
            message.best_seen = phi_self;
            if (has_best && best.value >= phi_self) {
                slot.started_new_dfs = true;
                slot.previous_phi = message.phi;
                message.phi = phi_self;
            }
        }
        // INIT_VERTEX(self), lines 40-42.
        slot.phi = message.phi;
        slot.parent = back;
        message.last_visited = self;
        // Lines 14-17: descend to the best neighbor if it reaches the
        // current Phi; otherwise backtrack.
        if (has_best && best.value >= message.phi) return Action::forward(best.vertex);
        message.backtrack_upper = phi_self;
        message.backtracking = true;
        if (back != self) return Action::forward(back);
        // The source backtracks in place: scan its own children below.
    }

    // BACKTRACK_TO(self), lines 18-29.
    while (true) {
        const Vertex child = best_unexplored_child(view, message, slot);
        if (child != kNoVertex) {
            // Lines 20-22: continue the DFS into the next-best child.
            message.last_visited = self;
            message.backtracking = false;
            return Action::forward(child);
        }
        if (!slot.started_new_dfs) break;
        // Lines 24-27: the phi(self)-DFS rooted here failed; resume the
        // paused DFS. The paper says the resumed DFS must "treat all
        // vertices visited during the phi(v)-DFS as unvisited"; for that to
        // cover this node's own children (including the ones only reachable
        // through it whose objective lies below phi(self) but at or above
        // the resumed Phi), the resumed DFS rescans the full child list
        // instead of bouncing straight back to the parent — the one place
        // where we deviate from a literal reading of lines 26-27, which
        // would otherwise strand those children and can terminate the
        // search prematurely (e.g. when self is the source and its only
        // neighbor beats phi(s)). The rescan reuses this wake's values.
        slot.started_new_dfs = false;
        message.phi = slot.previous_phi;
        slot.phi = slot.previous_phi;
        message.backtrack_upper = kPosInf;
    }
    if (slot.parent == self || slot.parent == kNoVertex) {
        // Back at the source with nothing left anywhere: the whole
        // component has been explored without meeting the target.
        return Action::exhaust();
    }
    // Line 29: backtrack further.
    message.backtrack_upper = view.phi(self);
    message.last_visited = self;
    return Action::forward(slot.parent);
}

RoutingResult PhiDfsRouter::route(const GraphView& graph, const Objective& objective,
                                  Vertex source, const RoutingOptions& options) const {
    return simulate_routing(graph, objective, DistributedPhiDfs{}, source, options).routing;
}

}  // namespace smallworld
