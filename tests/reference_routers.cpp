#include "reference_routers.h"

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/greedy.h"

// Copies of the pre-rework router code (see reference_routers.h); only
// namespaces and comments differ, and the Φ-DFS copy's send draws message
// loss once per attempt, as the send chokepoint does (core/regime.h). Keep
// the code as it is: it is the oracle.
namespace smallworld::reference {

ClaimedObjective::ClaimedObjective(const Objective& base, const AdversaryState& adversary)
    : base_(&base),
      adversary_(&adversary),
      target_position_(adversary.positions() != nullptr
                           ? adversary.positions()->point(base.target())
                           : nullptr) {}

double ClaimedObjective::value(Vertex v) const {
    // The target's value stays the honest +infinity: delivery is decided by
    // *arrival*, not by a claim, and inf * factor would be NaN-prone anyway.
    if (v == base_->target()) return base_->value(v);
    return base_->value(v) * adversary_->claim_factor(v, target_position_);
}

void ClaimedObjective::values(std::span<const Vertex> vertices, double* out) const {
    base_->values(vertices, out);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        const Vertex v = vertices[i];
        if (v == base_->target()) continue;
        out[i] *= adversary_->claim_factor(v, target_position_);
    }
}

RoutingResult route_greedy_faulted(const GraphView& graph, const Objective& objective,
                                   Vertex source, const RoutingOptions& options,
                                   FaultView faults, AdversaryView adversary) {
    RoutingResult result;
    result.path.push_back(source);
    const std::size_t max_steps = options.effective_max_steps(graph.num_vertices());
    const Vertex target = objective.target();

    Vertex current = source;
    if (!faults.vertex_alive(current) && current != target) {
        // A crashed source cannot even emit the packet.
        result.status = RoutingStatus::kDeadEnd;
        return result;
    }
    std::vector<Vertex> scratch;  // advertised-neighbor merge buffer
    int streak = 0;  // consecutive all-improving-links-down epochs
    std::uint64_t send_attempt = 0;  // message-loss key
    while (true) {
        // Arrival before budget (the boundary convention), budget
        // before any further decision: a wait-out hop that lands exactly on
        // the budget reports kStepLimit, not kDeadEnd.
        if (current == target) {
            result.status = RoutingStatus::kDelivered;
            return result;
        }
        if (result.steps() + result.retries >= max_steps) {
            result.status = RoutingStatus::kStepLimit;
            return result;
        }
        const bool holder_lies = adversary.advertises_phantoms(current);
        const std::span<const Vertex> neighborhood =
            adversary.active() ? adversary.advertised_neighbors(graph, current, scratch)
                               : graph.neighbors(current);
        Vertex next = kNoVertex;
        if (adversary.misroutes(current)) {
            // A misrouting holder ignores the protocol: the packet goes to
            // the *worst* advertised usable neighbor by claimed value
            // (first-min in list order), improving or not.
            double worst_value = 0.0;
            bool any_usable = false;
            for (const Vertex u : neighborhood) {
                if (!faults.usable(current, u)) continue;
                any_usable = true;
                if (!faults.link_up(current, u)) continue;
                const double value = objective.value(u);
                if (next == kNoVertex || value < worst_value) {
                    next = u;
                    worst_value = value;
                }
            }
            faults.advance_epoch();
            if (next == kNoVertex && !any_usable) {
                result.status = RoutingStatus::kDeadEnd;  // isolated liar
                return result;
            }
        } else {
            const double current_value = objective.value(current);
            double best_value = current_value;
            bool any_improving = false;
            for (const Vertex u : neighborhood) {
                if (!faults.usable(current, u)) continue;  // residual filter
                const double value = objective.value(u);
                if (!(value > current_value)) continue;
                any_improving = true;
                if (faults.link_up(current, u) && value > best_value) {
                    next = u;
                    best_value = value;
                }
            }
            faults.advance_epoch();
            if (next == kNoVertex && !any_improving) {
                result.status = RoutingStatus::kDeadEnd;  // genuine local optimum
                return result;
            }
        }
        // A chosen hop is sent once per epoch, and may be lost in flight:
        // the loss draw comes after the choice, keyed by the route's
        // send-attempt counter.
        if (next != kNoVertex && !faults.message_lost(send_attempt++)) {
            streak = 0;
            result.path.push_back(next);
            // A forward along an advertised-but-nonexistent link is
            // swallowed; the attempted hop stays on the trace for the
            // P-checker audit to flag as a non-edge move.
            if (holder_lies && AdversaryView::phantom_link(graph, current, next)) {
                result.status = RoutingStatus::kDeadEnd;
                return result;
            }
            current = next;
            // Blackholing byzantine vertices swallow everything they
            // receive; arrival at the target is delivery regardless.
            if (current != target && adversary.blackholes(current)) {
                result.status = RoutingStatus::kDeadEnd;
                return result;
            }
            continue;
        }
        // Every usable link is down this epoch, or the send was lost: wait
        // out one hop, give up after max_retries consecutive waits.
        if (streak >= faults.max_retries()) {
            result.status = RoutingStatus::kDeadEnd;
            return result;
        }
        ++streak;
        ++result.retries;
    }
}

RoutingResult GreedyRouter::route(const GraphView& graph, const Objective& objective,
                                  Vertex source, const RoutingOptions& options) const {
    const bool faulted = options.faults != nullptr && options.faults->plan().any();
    const bool adversarial =
        options.adversary != nullptr && options.adversary->plan().any();
    if (adversarial) {
        const ClaimedObjective claimed(objective, *options.adversary);
        return reference::route_greedy_faulted(graph, claimed, source, options,
                                               FaultView(options.faults, source),
                                               AdversaryView(options.adversary));
    }
    if (faulted) {
        return reference::route_greedy_faulted(graph, objective, source, options,
                                               FaultView(options.faults, source));
    }
    return smallworld::GreedyRouter{}.route(graph, objective, source, options);
}

namespace phi_dfs {

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
          objective_(objective),
          source_(source),
          max_steps_(options.effective_max_steps(graph.num_vertices())),
          faults_(options.faults, source),
          adversary_(options.adversary) {}

    RoutingResult execute() {
        result_.path.push_back(source_);
        if (source_ == objective_.target()) {
            result_.status = RoutingStatus::kDelivered;
            return result_;
        }
        if (faults_.active() && !faults_.vertex_alive(source_)) {
            // A crashed source cannot even emit the packet.
            result_.status = RoutingStatus::kDeadEnd;
            return result_;
        }
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
                if (landed == kNoVertex) return result_;
                v = landed;  // a misrouting holder may have hijacked the hop
                if (v == objective_.target()) {
                    result_.status = RoutingStatus::kDelivered;
                    return result_;
                }
                VertexState& st = state_[v];
                if (st.phi == message_phi_) {
                    // Line 8-9: already visited in the current Phi-DFS:
                    // bounce straight back to where we came from, which then
                    // continues its child scan below this vertex's objective.
                    const Vertex back = last_visited_;
                    last_visited_ = v;
                    backtrack_upper_ = objective_.value(v);
                    op = Op::kBacktrack;
                    v = back;
                    continue;
                }
                // Lines 10-13.
                const double phi_v = objective_.value(v);
                if (phi_v > best_seen_) set_new_phi(v, phi_v);
                // INIT_VERTEX(v): mark as visited in the current Phi-DFS.
                st.phi = message_phi_;
                st.parent = last_visited_;
                // Lines 14-17: descend to the best neighbor if any neighbor
                // reaches the current Phi; otherwise backtrack.
                const BestNeighbor best = best_any_neighbor(v);
                if (best.vertex != kNoVertex && best.value >= message_phi_) {
                    last_visited_ = v;
                    v = best.vertex;
                    continue;  // EXPLORE(best)
                }
                const Vertex back = last_visited_;
                last_visited_ = v;
                backtrack_upper_ = objective_.value(v);
                op = Op::kBacktrack;
                v = back;
                continue;
            }

            // BACKTRACK_TO(v, m), lines 18-29. backtrack_upper_ is the
            // objective of the child we returned from; it bounds the
            // remaining children so the scan proceeds in decreasing order.
            const Vertex landed = move_to(v);
            if (landed == kNoVertex) return result_;
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
                result_.status = RoutingStatus::kExhausted;
                return result_;
            }
            // Line 29: backtrack further.
            const Vertex up = st.parent;
            last_visited_ = v;
            backtrack_upper_ = objective_.value(v);
            v = up;
        }
    }

private:
    /// SET_NEW_PHI(v, m), lines 30-35.
    void set_new_phi(Vertex v, double phi_v) {
        best_seen_ = phi_v;
        const BestNeighbor best = best_any_neighbor(v);
        if (best.vertex != kNoVertex && best.value >= phi_v) {
            VertexState& st = state_[v];
            st.started_new_dfs = true;
            st.previous_phi = message_phi_;
            message_phi_ = phi_v;
        }
    }

    /// The neighborhood the protocol at v decides over: the honest adjacency
    /// row, or — under an active adversary — the *advertised* row (phantom
    /// links merged in when v is byzantine; the claimed objective is what
    /// `objective_` already evaluates, wrapped by the route() dispatch).
    [[nodiscard]] std::span<const Vertex> scan_neighbors(Vertex v) const {
        return adversary_.active()
                   ? adversary_.advertised_neighbors(graph_, v, adv_scratch_)
                   : graph_.neighbors(v);
    }

    /// argmax over all neighbors (line 15); ties toward smaller id. Under an
    /// active plan the argmax runs over the residual neighborhood, so a dead
    /// neighbor can never be chosen — the DFS backtracks past it exactly as
    /// if it had been explored (graceful degradation, not a protocol error).
    [[nodiscard]] BestNeighbor best_any_neighbor(Vertex v) const {
        const auto neighbors = scan_neighbors(v);
        if (!faults_.active()) return objective_.best_of(neighbors);
        scratch_.resize(neighbors.size());
        objective_.values(neighbors, scratch_.data());
        BestNeighbor best;
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
            if (!faults_.usable(v, neighbors[i])) continue;
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
    [[nodiscard]] Vertex best_unexplored_child(Vertex v, Vertex parent) const {
        const double upper = backtrack_upper_;
        const auto neighbors = scan_neighbors(v);
        scratch_.resize(neighbors.size());
        objective_.values(neighbors, scratch_.data());
        Vertex best = kNoVertex;
        double best_value = kNegInf;
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
            const Vertex u = neighbors[i];
            if (u == parent) continue;
            if (faults_.active() && !faults_.usable(v, u)) continue;
            const double value = scratch_[i];
            if (value >= message_phi_ && value < upper && value > best_value) {
                best = u;
                best_value = value;
            }
        }
        return best;
    }

    /// Appends a message move and returns the vertex the packet actually
    /// lands on (== v honestly; a byzantine misrouting holder hijacks the
    /// forward to its worst advertised usable neighbor); kNoVertex when the
    /// step budget is exhausted or the packet drops — in flight, into a
    /// phantom link, or into a blackhole. Under faults the move is the send
    /// chokepoint: every attempt draws message loss (keyed by the route's
    /// send-attempt counter) and, under transient link faults, the link
    /// state of one epoch. A lost message or a down link is a retry charged
    /// against the budget, up to max_retries consecutive times, then the
    /// packet is dropped (kDeadEnd). A retry landing exactly on the budget
    /// reports kStepLimit — budget beats retry exhaustion, matching the
    /// greedy loop's convention.
    Vertex move_to(Vertex v) {
        const Vertex from = result_.path.back();
        if (from == v) return v;  // reprocessing in place, not a send
        if (adversary_.misroutes(from)) {
            // The holder ignores the protocol's choice: worst advertised
            // usable neighbor by claimed value (first-min in list order).
            const auto neighborhood =
                adversary_.advertised_neighbors(graph_, from, adv_scratch_);
            Vertex worst = kNoVertex;
            double worst_value = 0.0;
            for (const Vertex u : neighborhood) {
                if (!faults_.usable(from, u)) continue;
                const double value = objective_.value(u);
                if (worst == kNoVertex || value < worst_value) {
                    worst = u;
                    worst_value = value;
                }
            }
            if (worst == kNoVertex) {
                result_.status = RoutingStatus::kDeadEnd;  // isolated liar
                return kNoVertex;
            }
            v = worst;
        }
        if (faults_.active()) {
            int waits = 0;
            for (;;) {
                bool failed = faults_.message_lost(send_attempt_++);
                if (faults_.transient()) {
                    if (!faults_.link_up(from, v)) failed = true;
                    faults_.advance_epoch();
                }
                if (!failed) break;
                if (waits >= faults_.max_retries()) {
                    result_.status = RoutingStatus::kDeadEnd;  // dropped in flight
                    return kNoVertex;
                }
                ++waits;
                ++result_.retries;
                if (result_.steps() + result_.retries >= max_steps_) {
                    result_.status = RoutingStatus::kStepLimit;
                    return kNoVertex;
                }
            }
        }
        result_.path.push_back(v);
        // A forward along an advertised-but-nonexistent link is swallowed;
        // the attempted hop stays on the trace for the audit to flag.
        if (adversary_.advertises_phantoms(from) &&
            AdversaryView::phantom_link(graph_, from, v)) {
            result_.status = RoutingStatus::kDeadEnd;
            return kNoVertex;
        }
        // Blackholing byzantine vertices swallow everything they receive;
        // arrival at the target is delivery regardless.
        if (v != objective_.target() && adversary_.blackholes(v)) {
            result_.status = RoutingStatus::kDeadEnd;
            return kNoVertex;
        }
        // Arrival before budget, budget before any further decision.
        if (v != objective_.target() && result_.steps() + result_.retries >= max_steps_) {
            result_.status = RoutingStatus::kStepLimit;
            return kNoVertex;
        }
        return v;
    }

    const GraphView& graph_;
    const Objective& objective_;
    Vertex source_;
    std::size_t max_steps_;
    FaultView faults_;        // route-scoped; inactive when no plan is set
    AdversaryView adversary_; // shared-state view; inactive when no plan is set

    // Audited lookup-only (operator[]/find): never iterated, so hash order
    // cannot reach the DFS decisions or any reported statistic.
    std::unordered_map<Vertex, VertexState> state_;
    mutable std::vector<double> scratch_;  // neighbor objectives, reused per scan
    mutable std::vector<Vertex> adv_scratch_;  // advertised-neighbor merges
    double best_seen_ = kNegInf;
    double message_phi_ = kNegInf;
    double backtrack_upper_ = kNegInf;
    Vertex last_visited_ = kNoVertex;
    std::uint64_t send_attempt_ = 0;  // message-loss key
    RoutingResult result_;
};

}  // namespace phi_dfs

RoutingResult PhiDfsRouter::route(const GraphView& graph, const Objective& objective,
                                  Vertex source, const RoutingOptions& options) const {
    if (options.adversary != nullptr && options.adversary->plan().any()) {
        // Byzantine regime: the DFS maximizes what vertices *claim*.
        const ClaimedObjective claimed(objective, *options.adversary);
        return phi_dfs::Run(graph, claimed, source, options).execute();
    }
    return phi_dfs::Run(graph, objective, source, options).execute();
}

namespace gravity {

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

    // Audited lookup-only (find/operator[]): per-vertex visit counts are
    // only queried point-wise, never iterated.
    std::unordered_map<Vertex, std::size_t> visits;
    std::vector<double> scratch;  // batched neighbor objectives, reused per scan
    std::vector<Vertex> adv_scratch;  // advertised-neighbor merge buffer
    bool pressure = false;
    double escape_value = 0.0;  // objective of the local optimum to beat
    std::uint64_t send_attempt = 0;  // message-loss key

    Vertex current = source;
    while (true) {
        // Arrival before budget (the boundary convention); wait-out hops charge the
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
        } else if (!pressure) {
            Vertex best = kNoVertex;
            double best_value = 0.0;
            bool any_neighbor = false;
            if (!faults.active() && !adversary.active()) {
                const BestNeighbor bn = objective.best_of(graph.neighbors(current));
                best = bn.vertex;
                best_value = bn.value;
                any_neighbor = best != kNoVertex;
            } else {
                // Same first-maximum argmax as best_of, restricted to the
                // residual neighborhood — and under an adversary run over the
                // *advertised* row (phantoms included, claimed values). One
                // batched values() call; phi is pure, so evaluating dead
                // neighbors changes nothing.
                const auto neighbors =
                    adversary.active()
                        ? adversary.advertised_neighbors(graph, current, adv_scratch)
                        : graph.neighbors(current);
                scratch.resize(neighbors.size());
                objective.values(neighbors, scratch.data());
                for (std::size_t i = 0; i < neighbors.size(); ++i) {
                    const Vertex u = neighbors[i];
                    if (!faults.usable(current, u)) continue;
                    any_neighbor = true;
                    const double value = scratch[i];
                    if (best == kNoVertex || value > best_value) {
                        best = u;
                        best_value = value;
                    }
                }
            }
            if (best != kNoVertex && best_value > objective.value(current)) {
                next = best;
            } else if (!any_neighbor) {
                result.status = RoutingStatus::kDeadEnd;  // isolated in the residual graph
                return result;
            } else {
                pressure = true;
                escape_value = objective.value(current);
            }
        }
        if (next == kNoVertex && pressure) {
            ++visits[current];
            // Least-visited usable neighbor; ties toward higher objective.
            // Neighbor objectives come from one batched values() call.
            const auto neighbors =
                adversary.active()
                    ? adversary.advertised_neighbors(graph, current, adv_scratch)
                    : graph.neighbors(current);
            scratch.resize(neighbors.size());
            objective.values(neighbors, scratch.data());
            std::size_t best_visits = 0;
            double best_value = 0.0;
            for (std::size_t i = 0; i < neighbors.size(); ++i) {
                const Vertex u = neighbors[i];
                if (faults.active() && !faults.usable(current, u)) continue;
                const auto it = visits.find(u);
                const std::size_t u_visits = it == visits.end() ? 0 : it->second;
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
        if (faults.active()) {
            // Send chokepoint: every attempt draws message loss (keyed by the
            // route's send-attempt counter) and, under transient link faults,
            // the link state of one epoch. The chosen move is retried
            // verbatim — a wait-out hop per failed attempt, charged against
            // the budget — so the visit bookkeeping above runs once per
            // decision. After max_retries consecutive failures the packet
            // drops; a retry landing exactly on the budget reports kStepLimit
            // instead.
            int waits = 0;
            for (;;) {
                bool failed = faults.message_lost(send_attempt++);
                if (faults.transient()) {
                    if (!faults.link_up(current, next)) failed = true;
                    faults.advance_epoch();
                }
                if (!failed) break;
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

}  // namespace gravity

RoutingResult GravityPressureRouter::route(const GraphView& graph, const Objective& objective,
                                           Vertex source,
                                           const RoutingOptions& options) const {
    if (options.adversary != nullptr && options.adversary->plan().any()) {
        // Byzantine regime: gravity-pressure maximizes what vertices *claim*.
        const ClaimedObjective claimed(objective, *options.adversary);
        return gravity::route_impl(graph, claimed, source, options,
                                   AdversaryView(options.adversary));
    }
    return gravity::route_impl(graph, objective, source, options, {});
}

namespace msg_history {

/// Candidate exploration edge (from a visited vertex to an unvisited one),
/// ordered by objective of the far endpoint; ties toward smaller ids keep
/// runs deterministic.
struct Candidate {
    double value;
    Vertex from;
    Vertex to;

    bool operator<(const Candidate& other) const noexcept {
        if (value != other.value) return value < other.value;
        if (to != other.to) return to > other.to;
        return from > other.from;
    }
};

class Run {
public:
    Run(const GraphView& graph, const Objective& objective, Vertex source,
        const RoutingOptions& options)
        : graph_(graph),
          objective_(objective),
          source_(source),
          max_steps_(options.effective_max_steps(graph.num_vertices())),
          faults_(options.faults, source),
          adversary_(options.adversary) {}

    RoutingResult execute() {
        result_.path.push_back(source_);
        if (faults_.active() && !faults_.vertex_alive(source_) &&
            source_ != objective_.target()) {
            // A crashed source cannot even emit the packet.
            result_.status = RoutingStatus::kDeadEnd;
            return result_;
        }
        Vertex current = source_;
        bool first_visit = true;
        while (true) {
            if (current == objective_.target()) {
                result_.status = RoutingStatus::kDelivered;
                return result_;
            }
            if (visited_.insert(current).second) {
                // One batched values() call per frontier fill; phi is pure,
                // so evaluating dead or already-visited neighbors too changes
                // nothing beyond warming the memo. Under an adversary the
                // fill scans the *advertised* row, so phantom links enter the
                // frontier with their claimed values.
                const auto neighbors = scan_neighbors(current);
                scratch_.resize(neighbors.size());
                objective_.values(neighbors, scratch_.data());
                for (std::size_t i = 0; i < neighbors.size(); ++i) {
                    const Vertex u = neighbors[i];
                    // A dead neighbor never enters the frontier: the protocol
                    // degrades as if the edge had been explored and
                    // backtracked, and delivery is judged on the residual
                    // graph.
                    if (faults_.active() && !faults_.usable(current, u)) continue;
                    if (!visited_.contains(u)) {
                        frontier_.push({scratch_[i], current, u});
                    }
                }
            }

            // (P1) first-visit rule: from a newly visited vertex with a
            // strictly better neighbor, proceed to the best neighbor.
            if (first_visit) {
                const Vertex best = best_usable_neighbor(current);
                if (best != kNoVertex &&
                    objective_.value(best) > objective_.value(current)) {
                    if (!move_to(best)) return result_;
                    // A misrouting holder may have landed the packet
                    // somewhere other than `best`; resync from the trace.
                    current = result_.path.back();
                    first_visit = !visited_.contains(current);
                    continue;
                }
            }

            // Local optimum (or revisit): jump to the globally best
            // unexplored edge, paying for the walk back through the visited
            // subgraph.
            const auto candidate = pop_best_candidate();
            if (!candidate) {
                result_.status = RoutingStatus::kExhausted;
                return result_;
            }
            if (candidate->from != current) {
                if (!walk_within_visited(current, candidate->from)) return result_;
                current = result_.path.back();
                if (current != candidate->from) {
                    // Hijacked mid-walk: keep the unexplored edge for a later
                    // retry and resume the protocol where the packet landed.
                    frontier_.push(*candidate);
                    first_visit = !visited_.contains(current);
                    continue;
                }
            }
            if (!move_to(candidate->to)) return result_;
            current = result_.path.back();
            first_visit = !visited_.contains(current);
        }
    }

private:
    /// The neighborhood the protocol at v decides over: honest adjacency, or
    /// the *advertised* row (phantoms merged) under an active adversary.
    [[nodiscard]] std::span<const Vertex> scan_neighbors(Vertex v) const {
        return adversary_.active()
                   ? adversary_.advertised_neighbors(graph_, v, adv_scratch_)
                   : graph_.neighbors(v);
    }

    /// best_neighbor() restricted to the residual neighborhood under an
    /// active plan; plain best_neighbor() (batched argmax) otherwise.
    [[nodiscard]] Vertex best_usable_neighbor(Vertex v) const {
        if (!faults_.active() && !adversary_.active()) {
            return best_neighbor(graph_, objective_, v);
        }
        const auto neighbors = scan_neighbors(v);
        scratch_.resize(neighbors.size());
        objective_.values(neighbors, scratch_.data());
        Vertex best = kNoVertex;
        double best_value = 0.0;
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
            const Vertex u = neighbors[i];
            if (!faults_.usable(v, u)) continue;
            const double value = scratch_[i];
            if (best == kNoVertex || value > best_value) {
                best = u;
                best_value = value;
            }
        }
        return best;
    }

    /// Lazy-deletion pop: skip entries whose far endpoint got visited since.
    [[nodiscard]] std::optional<Candidate> pop_best_candidate() {
        while (!frontier_.empty()) {
            Candidate top = frontier_.top();
            frontier_.pop();
            if (!visited_.contains(top.to)) return top;
        }
        return std::nullopt;
    }

    /// BFS inside the visited subgraph (always connected: it grows along
    /// traversed edges), appending the walk to the path.
    bool walk_within_visited(Vertex from, Vertex to) {
        // Audited lookup-only (contains/at): BFS expands the deterministic
        // visited-subgraph adjacency; the map is never iterated.
        std::unordered_map<Vertex, Vertex> parent;
        std::deque<Vertex> queue{from};
        parent[from] = from;
        while (!queue.empty()) {
            const Vertex v = queue.front();
            queue.pop_front();
            if (v == to) break;
            for (const Vertex u : graph_.neighbors(v)) {
                // Permanent faults only: the visited subgraph grew along
                // usable edges, so the residual visited subgraph stays
                // connected and parent.at() below cannot miss.
                if (faults_.active() && !faults_.usable(v, u)) continue;
                if (!visited_.contains(u) || parent.contains(u)) continue;
                parent[u] = v;
                queue.push_back(u);
            }
        }
        std::vector<Vertex> walk;
        for (Vertex v = to; v != from; v = parent.at(v)) walk.push_back(v);
        for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
            if (!move_to(*it)) return false;
            // A misrouting holder diverted the walk; the caller resyncs from
            // the trace and resumes the protocol at the landing vertex.
            if (result_.path.back() != *it) return true;
        }
        return true;
    }

    /// Appends a message move; false when the budget is exhausted or the
    /// packet drops in flight. Under faults this is the send chokepoint:
    /// every attempt draws message loss (keyed by the route's send-attempt
    /// counter) and, under transient link faults, the link state of one
    /// epoch. A lost message or a down link parks the message for an epoch
    /// (a wait-out hop charged against the budget) up to max_retries
    /// consecutive times, then the packet is dropped. A wait landing exactly
    /// on the budget reports kStepLimit — budget beats retry exhaustion.
    bool move_to(Vertex v) {
        const Vertex from = result_.path.back();
        if (adversary_.misroutes(from) && from != v) {
            // The holder ignores the protocol's choice: worst advertised
            // usable neighbor by claimed value (first-min in list order).
            const auto neighborhood =
                adversary_.advertised_neighbors(graph_, from, adv_scratch_);
            Vertex worst = kNoVertex;
            double worst_value = 0.0;
            for (const Vertex u : neighborhood) {
                if (!faults_.usable(from, u)) continue;
                const double value = objective_.value(u);
                if (worst == kNoVertex || value < worst_value) {
                    worst = u;
                    worst_value = value;
                }
            }
            if (worst == kNoVertex) {
                result_.status = RoutingStatus::kDeadEnd;  // isolated liar
                return false;
            }
            v = worst;
        }
        if (faults_.active()) {
            int waits = 0;
            for (;;) {
                bool failed = faults_.message_lost(send_attempt_++);
                if (faults_.transient()) {
                    if (!faults_.link_up(from, v)) failed = true;
                    faults_.advance_epoch();
                }
                if (!failed) break;
                if (waits >= faults_.max_retries()) {
                    result_.status = RoutingStatus::kDeadEnd;  // dropped in flight
                    return false;
                }
                ++waits;
                ++result_.retries;
                if (result_.steps() + result_.retries >= max_steps_) {
                    result_.status = RoutingStatus::kStepLimit;
                    return false;
                }
            }
        }
        result_.path.push_back(v);
        // A forward along an advertised-but-nonexistent link is swallowed;
        // the attempted hop stays on the trace for the audit to flag.
        if (adversary_.advertises_phantoms(from) &&
            AdversaryView::phantom_link(graph_, from, v)) {
            result_.status = RoutingStatus::kDeadEnd;
            return false;
        }
        // Blackholing byzantine vertices swallow everything they receive;
        // arrival at the target is delivery regardless.
        if (v != objective_.target() && adversary_.blackholes(v)) {
            result_.status = RoutingStatus::kDeadEnd;
            return false;
        }
        // Arrival before budget, budget before any further decision.
        if (v != objective_.target() && result_.steps() + result_.retries >= max_steps_) {
            result_.status = RoutingStatus::kStepLimit;
            return false;
        }
        return true;
    }

    const GraphView& graph_;
    const Objective& objective_;
    Vertex source_;
    std::size_t max_steps_;
    FaultView faults_;        // route-scoped; inactive when no plan is set
    AdversaryView adversary_; // shared-state view; inactive when no plan is set

    // Audited lookup-only (contains/insert): membership probe, never iterated.
    std::unordered_set<Vertex> visited_;
    std::priority_queue<Candidate> frontier_;
    mutable std::vector<double> scratch_;  // batched neighbor objectives
    mutable std::vector<Vertex> adv_scratch_;  // advertised-neighbor merges
    std::uint64_t send_attempt_ = 0;  // message-loss key
    RoutingResult result_;
};

}  // namespace msg_history

RoutingResult MessageHistoryRouter::route(const GraphView& graph, const Objective& objective,
                                          Vertex source,
                                          const RoutingOptions& options) const {
    if (options.adversary != nullptr && options.adversary->plan().any()) {
        // Byzantine regime: the walk maximizes what vertices *claim*.
        const ClaimedObjective claimed(objective, *options.adversary);
        return msg_history::Run(graph, claimed, source, options).execute();
    }
    return msg_history::Run(graph, objective, source, options).execute();
}

}  // namespace smallworld::reference
