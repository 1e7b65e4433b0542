#include "core/phi_dfs.h"

#include <limits>
#include <vector>

#include "core/regime.h"
#include "core/vertex_table.h"

namespace smallworld {

namespace {

constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Constant per-vertex memory of Algorithm 2 (lines 30-42).
struct VertexState {
    double phi = kUnset;           // v.Phi: which Phi-DFS last visited v
    double previous_phi = kUnset;  // v.previous_Phi: paused DFS to resume
    Vertex parent = kNoVertex;     // v.parent: backtracking pointer
    bool started_new_dfs = false;  // v.started_new_dfs
};

class Run {
public:
    Run(const GraphView& graph, const Objective& objective, Vertex source,
        const RoutingOptions& options)
        : graph_(graph),
          regime_(graph, objective, source, options),
          objective_(regime_.objective()),
          source_(source) {}

    RoutingResult execute() {
        if (source_ == objective_.target()) return regime_.finish(RoutingStatus::kDelivered);
        if (regime_.source_crashed()) return regime_.take();
        // ROUTING(s, m), lines 1-6.
        best_seen_ = kNegInf;
        message_phi_ = kNegInf;
        last_visited_ = source_;
        state_[source_].phi = objective_.value(source_);

        // The pseudocode's mutually tail-recursive EXPLORE/BACKTRACK_TO pair,
        // flattened into an explicit state machine.
        enum class Op { kExplore, kBacktrack };
        Op op = Op::kExplore;
        Vertex v = source_;

        while (true) {
            if (op == Op::kExplore) {
                const Vertex landed = move_to(v);
                if (landed == kNoVertex) return regime_.take();
                v = landed;  // a misrouting holder may have hijacked the hop
                if (v == objective_.target()) return regime_.finish(RoutingStatus::kDelivered);
                VertexState& st = state_[v];
                const double phi_v = objective_.value(v);
                if (st.phi == message_phi_) {
                    // Line 8-9: already visited in the current Phi-DFS:
                    // bounce straight back to where we came from, which then
                    // continues its child scan below this vertex's objective.
                    const Vertex back = last_visited_;
                    last_visited_ = v;
                    backtrack_upper_ = phi_v;
                    op = Op::kBacktrack;
                    graph_.prefetch_neighbors(back);
                    v = back;
                    continue;
                }
                // Lines 10-17 read one argmax over v's row: SET_NEW_PHI's
                // test and the descent (line 15) share it.
                const BestNeighbor best = best_any_neighbor(v);
                if (phi_v > best_seen_) set_new_phi(st, phi_v, best);
                // INIT_VERTEX(v): mark as visited in the current Phi-DFS.
                st.phi = message_phi_;
                st.parent = last_visited_;
                // Lines 14-17: descend to the best neighbor if any neighbor
                // reaches the current Phi; otherwise backtrack.
                if (best.vertex != kNoVertex && best.value >= message_phi_) {
                    last_visited_ = v;
                    graph_.prefetch_neighbors(best.vertex);
                    v = best.vertex;
                    continue;  // EXPLORE(best)
                }
                const Vertex back = last_visited_;
                last_visited_ = v;
                backtrack_upper_ = phi_v;
                op = Op::kBacktrack;
                graph_.prefetch_neighbors(back);
                v = back;
                continue;
            }

            // BACKTRACK_TO(v, m), lines 18-29. backtrack_upper_ is the
            // objective of the child we returned from; it bounds the
            // remaining children so the scan proceeds in decreasing order.
            const Vertex landed = move_to(v);
            if (landed == kNoVertex) return regime_.take();
            if (landed != v) {
                // The holder hijacked the backtrack: the message arrives at
                // the misroute target instead, which processes it as a fresh
                // exploration (last_visited_ already points at the hijacker).
                op = Op::kExplore;
                v = landed;
                continue;
            }
            VertexState& st = state_[v];
            const Vertex child = best_unexplored_child(v, st.parent);
            if (child != kNoVertex) {
                // Lines 20-22: continue the DFS into the next-best child.
                last_visited_ = v;
                op = Op::kExplore;
                graph_.prefetch_neighbors(child);
                v = child;
                continue;
            }
            if (st.started_new_dfs) {
                // Lines 24-27: the phi(v)-DFS rooted at v failed; resume the
                // paused DFS. The paper says the resumed DFS must "treat all
                // vertices visited during the phi(v)-DFS as unvisited"; for
                // that to cover v's own children (including the ones only
                // reachable through v whose objective lies below phi(v) but
                // at or above the resumed Phi), the resumed DFS rescans v's
                // full child list instead of bouncing straight back to v's
                // parent — the one place where we deviate from a literal
                // reading of lines 26-27, which would otherwise strand those
                // children and can terminate the search prematurely (e.g.
                // when v is the source and its only neighbor beats phi(s)).
                st.started_new_dfs = false;
                message_phi_ = st.previous_phi;
                st.phi = st.previous_phi;
                backtrack_upper_ = std::numeric_limits<double>::infinity();
                continue;  // re-enter kBacktrack at v with the old Phi
            }
            if (st.parent == v || st.parent == kNoVertex) {
                // Back at the source with nothing left anywhere: the whole
                // component has been explored without meeting the target.
                return regime_.finish(RoutingStatus::kExhausted);
            }
            // Line 29: backtrack further.
            const Vertex up = st.parent;
            last_visited_ = v;
            backtrack_upper_ = objective_.value(v);
            graph_.prefetch_neighbors(up);
            v = up;
        }
    }

private:
    /// SET_NEW_PHI(v, m), lines 30-35, given v's state and best neighbor.
    void set_new_phi(VertexState& st, double phi_v, const BestNeighbor& best) {
        best_seen_ = phi_v;
        if (best.vertex != kNoVertex && best.value >= phi_v) {
            st.started_new_dfs = true;
            st.previous_phi = message_phi_;
            message_phi_ = phi_v;
        }
    }

    /// argmax over all neighbors (line 15); ties toward smaller id. Under an
    /// active plan the argmax runs over the residual neighborhood, so a dead
    /// neighbor can never be chosen — the DFS backtracks past it exactly as
    /// if it had been explored (graceful degradation, not a protocol error).
    [[nodiscard]] BestNeighbor best_any_neighbor(Vertex v) {
        const auto neighbors = regime_.row(v);
        const FaultView& faults = regime_.faults();
        if (!faults.active()) return objective_.best_of(neighbors);
        scratch_.resize(neighbors.size());
        objective_.values(neighbors, scratch_.data());
        BestNeighbor best;
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
            if (!faults.usable(v, neighbors[i])) continue;
            if (best.vertex == kNoVertex || scratch_[i] > best.value) {
                best.vertex = neighbors[i];
                best.value = scratch_[i];
            }
        }
        return best;
    }

    /// Line 19: best u in Gamma(v) with u != v.parent and
    /// m.Phi <= phi(u) < (objective of the child we returned from). The
    /// neighbor objectives come from one batched values() call.
    [[nodiscard]] Vertex best_unexplored_child(Vertex v, Vertex parent) {
        const double upper = backtrack_upper_;
        const auto neighbors = regime_.row(v);
        const FaultView& faults = regime_.faults();
        scratch_.resize(neighbors.size());
        objective_.values(neighbors, scratch_.data());
        Vertex best = kNoVertex;
        double best_value = kNegInf;
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
            const Vertex u = neighbors[i];
            if (u == parent) continue;
            if (faults.active() && !faults.usable(v, u)) continue;
            const double value = scratch_[i];
            if (value >= message_phi_ && value < upper && value > best_value) {
                best = u;
                best_value = value;
            }
        }
        return best;
    }

    /// Sends the message to v through the regime's chokepoint and returns
    /// the vertex it lands on (== v honestly; a byzantine misrouting holder
    /// hijacks the forward), or kNoVertex when the route ended there.
    Vertex move_to(Vertex v) {
        const Vertex from = regime_.holder();
        if (from == v) return v;  // reprocessing in place, not a send
        return regime_.move(from, v);
    }

    const GraphView& graph_;
    Regime regime_;              // faults, liars, budget and the result
    const Objective& objective_; // the regime's (claimed) objective
    Vertex source_;

    VertexTable<VertexState> state_;  // the vertices this query touched
    std::vector<double> scratch_;     // neighbor objectives, reused per scan
    double best_seen_ = kNegInf;
    double message_phi_ = kNegInf;
    double backtrack_upper_ = kNegInf;
    Vertex last_visited_ = kNoVertex;
};

}  // namespace

RoutingResult PhiDfsRouter::route(const GraphView& graph, const Objective& objective,
                                  Vertex source, const RoutingOptions& options) const {
    return Run(graph, objective, source, options).execute();
}

}  // namespace smallworld
