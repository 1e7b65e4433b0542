#include "oracles.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
#include "distributed/latency.h"
#include "random/splitmix64.h"

namespace smallworld::reference {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();
constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

/// One message's route under its regime, written from DESIGN.md §9's five
/// rules: (1) a crashed source cannot emit the packet; (2) decisions see the
/// row the holder advertises, less the neighbors the residual filter hides;
/// (3) a misrouting liar sends to its worst visible neighbor instead; (4) a
/// send retries each failed attempt, charged to the budget, until
/// max_retries consecutive failures drop the packet; (5) the landing puts the
/// hop on the path, then a phantom link or a blackhole swallows it, arrival
/// at the target is delivery, and otherwise a spent budget ends the route.
/// `out` also carries the walk's telemetry for the rules it counts.
class Route {
public:
    Route(const GraphView& graph, const Objective& phi, Vertex source,
          const RoutingOptions& options, std::uint64_t fault_nonce)
        : graph_(graph),
          phi_(&phi),
          max_steps_(options.effective_max_steps(graph.num_vertices())),
          faults_(options.faults, source, fault_nonce),
          liars_(options.adversary != nullptr && options.adversary->plan().any()
                     ? options.adversary
                     : nullptr) {
        if (liars_ != nullptr && liars_->positions() != nullptr) {
            target_position_ = liars_->positions()->point(phi.target());
        }
        out.routing.path.push_back(source);
    }

    DistributedResult out;

    [[nodiscard]] const GraphView& graph() const noexcept { return graph_; }
    [[nodiscard]] Vertex target() const noexcept { return phi_->target(); }
    [[nodiscard]] Vertex holder() const noexcept { return out.routing.path.back(); }
    [[nodiscard]] FaultView& faults() noexcept { return faults_; }

    /// φ(v) as v claims it: a liar's claim factor scales it, never at the
    /// target.
    [[nodiscard]] double claim(Vertex v) const {
        const double value = phi_->value(v);
        if (liars_ == nullptr || v == target()) return value;
        return value * liars_->claim_factor(v, target_position_);
    }

    /// Rule 2: v's honest neighbors and phantoms in id order, less the ones
    /// the residual filter hides; `hidden` counts those.
    [[nodiscard]] std::vector<Vertex> row(Vertex v, std::size_t* hidden = nullptr) const {
        const auto honest = graph_.neighbors(v);
        const auto phantoms = liars_ != nullptr ? liars_->phantoms(v) : std::span<const Vertex>{};
        std::vector<Vertex> advertised;
        std::set_union(honest.begin(), honest.end(), phantoms.begin(), phantoms.end(),
                       std::back_inserter(advertised));
        std::vector<Vertex> visible;
        for (const Vertex u : advertised) {
            if (faults_.usable(v, u)) {
                visible.push_back(u);
            } else if (hidden != nullptr) {
                ++*hidden;
            }
        }
        return visible;
    }

    /// Rule 1.
    [[nodiscard]] bool source_crashed() {
        const Vertex source = holder();
        if (source == target() || faults_.vertex_alive(source)) return false;
        return !end(RoutingStatus::kDeadEnd);
    }

    [[nodiscard]] bool misroutes(Vertex v) const {
        return liars_ != nullptr && liars_->plan().misroute && liars_->byzantine(v);
    }

    /// Rule 3: the first vertex of `row` with the least claim; kNoVertex
    /// ends the route kDeadEnd (an isolated liar).
    [[nodiscard]] Vertex worst(const std::vector<Vertex>& row) {
        Vertex least = kNoVertex;
        for (const Vertex u : row) {
            if (least == kNoVertex || claim(u) < claim(least)) least = u;
        }
        if (least == kNoVertex) (void)end(RoutingStatus::kDeadEnd);
        return least;
    }

    /// The loss coin of the route's next send attempt.
    [[nodiscard]] bool lost() { return faults_.message_lost(attempts_++); }

    /// Rule 4's charge for the failure after `failures` consecutive ones:
    /// false when the route ended.
    [[nodiscard]] bool retry(int failures) {
        if (failures >= faults_.max_retries()) return end(RoutingStatus::kDeadEnd);
        ++out.routing.retries;
        ++out.telemetry.retries;
        ++out.telemetry.wakes;  // the sender wakes again to re-send
        if (spent()) return end(RoutingStatus::kStepLimit);
        return true;
    }

    /// Rule 4: each attempt draws the loss coin and, under transient faults,
    /// the link state of one epoch.
    [[nodiscard]] bool send(Vertex from, Vertex to) {
        for (int failures = 0;; ++failures) {
            bool failed = lost();
            if (faults_.transient()) {
                failed = !faults_.link_up(from, to) || failed;
                faults_.advance_epoch();
            }
            if (!failed) return true;
            ++out.telemetry.message_drops;
            if (!retry(failures)) return false;
        }
    }

    /// Rule 5.
    [[nodiscard]] bool land(Vertex from, Vertex to) {
        out.routing.path.push_back(to);
        const auto honest = graph_.neighbors(from);
        if (std::find(honest.begin(), honest.end(), to) == honest.end() ||
            (to != target() && liars_ != nullptr && liars_->plan().blackhole &&
             liars_->byzantine(to))) {
            ++out.telemetry.audit_flags;
            return end(RoutingStatus::kDeadEnd);
        }
        if (to != target() && spent()) return end(RoutingStatus::kStepLimit);
        return true;
    }

    /// Rules 3-5 for one move of the holder toward `to`: where the packet
    /// landed, or kNoVertex when the route ended.
    [[nodiscard]] Vertex move(Vertex to) {
        const Vertex from = holder();
        if (misroutes(from)) to = worst(row(from));
        if (to == kNoVertex || !send(from, to) || !land(from, to)) return kNoVertex;
        return to;
    }

    [[nodiscard]] bool end(RoutingStatus status) {
        out.routing.status = status;
        return false;
    }
    [[nodiscard]] RoutingResult finish(RoutingStatus status) {
        out.routing.status = status;
        return out.routing;
    }

private:
    [[nodiscard]] bool spent() const {
        return out.routing.steps() + out.routing.retries >= max_steps_;
    }

    GraphView graph_;
    const Objective* phi_;
    std::size_t max_steps_;
    FaultView faults_;
    const AdversaryState* liars_;
    const double* target_position_ = nullptr;
    std::uint64_t attempts_ = 0;  // the loss coins' key
};

/// The first vertex of `row` with the largest claim above `floor`.
Vertex best_above(const Route& route, const std::vector<Vertex>& row, double floor) {
    Vertex best = kNoVertex;
    for (const Vertex u : row) {
        const double value = route.claim(u);
        if (value > floor) {
            best = u;
            floor = value;
        }
    }
    return best;
}

/// Algorithm 2's per-vertex memory (lines 30-42).
struct Slot {
    double phi = kUnset;           // v.Φ
    double previous_phi = kUnset;  // the paused DFS to resume
    Vertex parent = kNoVertex;
    bool started_new_dfs = false;
};

/// The message: the target's address and Algorithm 2's m.* fields, plus
/// the first deviation, the objective of the child a backtrack returns from.
struct Message {
    double best_seen = kNegInf;
    double phi = kNegInf;  // m.Φ
    Vertex last_visited = kNoVertex;
    double backtrack_upper = kNegInf;
    bool backtracking = false;
};

struct Action {
    enum Kind { kForward, kDeliver, kDrop, kExhaust } kind;
    Vertex next = kNoVertex;
};

/// One query on the node-local model: only the holder is awake, it sees
/// itself, its visible row and the message, and keeps one slot.
class Walk {
public:
    Walk(const GraphView& graph, const Objective& phi, Protocol protocol, Vertex source,
         const RoutingOptions& options, std::uint64_t fault_nonce)
        : route(graph, phi, source, options, fault_nonce), protocol_(protocol) {}

    Route route;

    /// Injection; false when a crashed source cannot emit the packet.
    [[nodiscard]] bool start() {
        if (route.source_crashed()) return false;
        const Vertex source = route.holder();
        message_.last_visited = source;
        Slot& slot = slots_[source];
        if (protocol_ == Protocol::kPhiDfs) slot.phi = route.claim(source);  // line 5
        return true;
    }

    /// One wake of the holder: its step, the misroute rule, the send and the
    /// landing. True when the message travels on to a new holder.
    [[nodiscard]] bool wake() {
        const Vertex self = route.holder();
        ++route.out.telemetry.wakes;
        Slot& slot = slots_[self];
        // The wake reads its row when a decision first needs a neighbor.
        std::optional<std::vector<Vertex>> row;
        const auto visible = [&]() -> const std::vector<Vertex>& {
            if (!row) row = route.row(self, &route.out.telemetry.skipped_dead_neighbors);
            return *row;
        };
        Action action = protocol_ == Protocol::kGreedy ? greedy(self, visible)
                                                       : phi_dfs(self, slot, visible);
        if (route.misroutes(self) &&
            (action.kind == Action::kForward || action.kind == Action::kDrop)) {
            // The misroute rule: the step ran; the packet goes to the worst
            // visible neighbor, as an exploration the holder sent unless that
            // is the step's own choice.
            const Vertex hijacked = route.worst(visible());
            if (hijacked == kNoVertex) return false;
            ++route.out.telemetry.misroutes_observed;
            if (hijacked != action.next) {
                message_.last_visited = self;
                message_.backtracking = false;
            }
            action = {Action::kForward, hijacked};
        } else if (action.kind != Action::kForward) {
            return route.end(action.kind == Action::kDeliver   ? RoutingStatus::kDelivered
                             : action.kind == Action::kExhaust ? RoutingStatus::kExhausted
                                                               : RoutingStatus::kDeadEnd);
        } else {
            const std::vector<Vertex> legal = route.row(self);  // counts nothing
            if (std::find(legal.begin(), legal.end(), action.next) == legal.end()) {
                ++route.out.telemetry.illegal_forwards;
                return route.end(RoutingStatus::kDeadEnd);
            }
        }
        if (!route.send(self, action.next)) return false;
        ++route.out.telemetry.messages_sent;
        return route.land(self, action.next);
    }

    /// A full inbound queue refused the message that just arrived.
    void refuse() {
        route.out.telemetry.queue_drops = 1;
        (void)route.end(RoutingStatus::kDeadEnd);
    }

    [[nodiscard]] DistributedResult result() {
        route.out.telemetry.slots_touched = slots_.size();
        return route.out;
    }

private:
    /// Algorithm 1's step: forward to the best neighbor if it beats the holder.
    template <class Visible>
    Action greedy(Vertex self, const Visible& visible) const {
        if (self == route.target()) return {Action::kDeliver, kNoVertex};
        const Vertex best = best_above(route, visible(), route.claim(self));
        if (best == kNoVertex) return {Action::kDrop, kNoVertex};
        return {Action::kForward, best};
    }

    /// Algorithm 2's step at `self` (line numbers of the paper's listing).
    template <class Visible>
    Action phi_dfs(Vertex self, Slot& slot, const Visible& visible) {
        Message& m = message_;
        if (self == route.target()) return {Action::kDeliver, kNoVertex};
        const double phi_self = route.claim(self);
        if (!m.backtracking) {
            // EXPLORE(self), lines 7-17.
            const Vertex back = m.last_visited;
            m.last_visited = self;
            if (slot.phi == m.phi) {
                // Lines 8-9: visited in the current Φ-DFS; bounce back.
                m.backtrack_upper = phi_self;
                m.backtracking = true;
                return {Action::kForward, back};
            }
            const Vertex best = best_above(route, visible(), kNegInf);
            const double best_phi = best == kNoVertex ? kNegInf : route.claim(best);
            if (phi_self > m.best_seen) {
                // Lines 10-11, SET_NEW_PHI (lines 30-35).
                m.best_seen = phi_self;
                if (best != kNoVertex && best_phi >= phi_self) {
                    slot.started_new_dfs = true;
                    slot.previous_phi = m.phi;
                    m.phi = phi_self;
                }
            }
            slot.phi = m.phi;  // INIT_VERTEX, lines 40-42
            slot.parent = back;
            if (best != kNoVertex && best_phi >= m.phi) return {Action::kForward, best};
            m.backtrack_upper = phi_self;  // lines 16-17
            m.backtracking = true;
            if (back != self) return {Action::kForward, back};
            // The source backtracks in place.
        }
        // BACKTRACK_TO(self), lines 18-29.
        while (true) {
            // Line 19: the best child below the one just returned from.
            Vertex child = kNoVertex;
            double child_phi = kNegInf;
            for (const Vertex u : visible()) {
                const double value = route.claim(u);
                if (u != slot.parent && value >= m.phi && value < m.backtrack_upper &&
                    (child == kNoVertex || value > child_phi)) {
                    child = u;
                    child_phi = value;
                }
            }
            if (child != kNoVertex) {
                m.last_visited = self;  // lines 20-22
                m.backtracking = false;
                return {Action::kForward, child};
            }
            if (!slot.started_new_dfs) break;
            // Lines 24-27: the φ(self)-DFS failed; the paused DFS resumes,
            // rescanning self's children (the second deviation).
            slot.started_new_dfs = false;
            m.phi = slot.previous_phi;
            slot.phi = slot.previous_phi;
            m.backtrack_upper = kPosInf;
        }
        // Back at the source with nothing left: the component is exhausted.
        if (slot.parent == self || slot.parent == kNoVertex) return {Action::kExhaust, kNoVertex};
        m.backtrack_upper = phi_self;  // line 29
        m.last_visited = self;
        return {Action::kForward, slot.parent};
    }

    Protocol protocol_;
    Message message_;
    std::map<Vertex, Slot> slots_;
};

/// Message-history's frontier order: claim desc, then `to` asc, `from` asc.
struct Candidate {
    double value;
    Vertex to;
    Vertex from;
    bool operator<(const Candidate& other) const noexcept {
        return std::tie(other.value, to, from) < std::tie(value, other.to, other.from);
    }
};

/// Walks the holder to `to` along a shortest path of usable honest edges
/// inside `visited`. False when the route ended; a hijacked hop returns
/// early with the packet wherever it landed.
bool walk_back(Route& route, const std::set<Vertex>& visited, Vertex to) {
    const Vertex from = route.holder();
    std::map<Vertex, Vertex> parent{{from, from}};
    std::vector<Vertex> queue{from};
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const Vertex v = queue[head];
        for (const Vertex u : route.graph().neighbors(v)) {
            if (visited.contains(u) && !parent.contains(u) && route.faults().usable(v, u)) {
                parent[u] = v;
                queue.push_back(u);
            }
        }
    }
    std::vector<Vertex> hops;
    for (Vertex v = to; v != from; v = parent.at(v)) hops.push_back(v);
    for (auto hop = hops.rbegin(); hop != hops.rend(); ++hop) {
        if (route.move(*hop) == kNoVertex) return false;
        if (route.holder() != *hop) return true;
    }
    return true;
}

}  // namespace

RoutingResult GreedyRouter::route(const GraphView& graph, const Objective& objective,
                                  Vertex source, const RoutingOptions& options) const {
    Route route(graph, objective, source, options, 0);
    if (route.source_crashed()) return route.out.routing;
    for (int waits = 0; route.holder() != route.target();) {
        // One epoch: the best improving neighbor whose link is up (a liar:
        // its worst usable one); a candidate whose link is down still
        // counts, so only a local optimum or an isolated liar drops.
        const Vertex v = route.holder();
        const double here = route.claim(v);
        const bool misroutes = route.misroutes(v);
        Vertex next = kNoVertex;
        bool any = false;
        for (const Vertex u : route.row(v)) {
            const double value = route.claim(u);
            if (!misroutes && !(value > here)) continue;
            any = true;
            if (!route.faults().link_up(v, u)) continue;
            if (next == kNoVertex ||
                (misroutes ? value < route.claim(next) : value > route.claim(next))) {
                next = u;
            }
        }
        route.faults().advance_epoch();
        if (!any) return route.finish(RoutingStatus::kDeadEnd);
        if (next != kNoVertex && !route.lost()) {
            waits = 0;
            if (!route.land(v, next)) return route.out.routing;
        } else if (!route.retry(waits++)) {
            return route.out.routing;
        }
    }
    return route.finish(RoutingStatus::kDelivered);
}

RoutingResult PhiDfsRouter::route(const GraphView& graph, const Objective& objective,
                                  Vertex source, const RoutingOptions& options) const {
    Walk walk(graph, objective, Protocol::kPhiDfs, source, options, 0);
    if (walk.start()) {
        while (walk.wake()) {
        }
    }
    return walk.route.out.routing;
}

RoutingResult GravityPressureRouter::route(const GraphView& graph, const Objective& objective,
                                           Vertex source, const RoutingOptions& options) const {
    Route route(graph, objective, source, options, 0);
    if (route.source_crashed()) return route.out.routing;
    std::map<Vertex, std::size_t> visits;  // pressure-mode visits per vertex
    bool pressure = false;
    double escape = 0.0;  // the claim of the local optimum to beat
    for (Vertex v = source; v != route.target();) {
        Vertex next = kNoVertex;  // a liar's move picks its own hop
        if (!route.misroutes(v)) {
            const std::vector<Vertex> row = route.row(v);
            if (!pressure) {
                // Gravity: the best neighbor, if it improves.
                const Vertex best = best_above(route, row, kNegInf);
                if (best == kNoVertex) return route.finish(RoutingStatus::kDeadEnd);
                if (route.claim(best) > route.claim(v)) {
                    next = best;
                } else {
                    pressure = true;
                    escape = route.claim(v);
                }
            }
            if (pressure) {
                // Pressure: the least-visited neighbor, ties toward the
                // larger claim, then the row's first.
                ++visits[v];
                const auto count = [&](Vertex u) { return visits.contains(u) ? visits[u] : 0; };
                for (const Vertex u : row) {
                    if (next == kNoVertex || count(u) < count(next) ||
                        (count(u) == count(next) && route.claim(u) > route.claim(next))) {
                        next = u;
                    }
                }
                if (next == kNoVertex) return route.finish(RoutingStatus::kDeadEnd);
                if (route.claim(next) > escape) pressure = false;
            }
        }
        v = route.move(next);
        if (v == kNoVertex) return route.out.routing;
    }
    return route.finish(RoutingStatus::kDelivered);
}

RoutingResult MessageHistoryRouter::route(const GraphView& graph, const Objective& objective,
                                          Vertex source, const RoutingOptions& options) const {
    Route route(graph, objective, source, options, 0);
    if (route.source_crashed()) return route.out.routing;
    std::set<Vertex> visited;
    std::set<Candidate> frontier;  // every usable edge out of a visited vertex
    for (Vertex v = source; v != route.target();) {
        if (visited.insert(v).second) {
            // (P1): a first visit records its edges and goes to its best
            // neighbor when that improves on it.
            Vertex best = kNoVertex;
            for (const Vertex u : route.row(v)) {
                frontier.insert({route.claim(u), u, v});
                if (best == kNoVertex || route.claim(u) > route.claim(best)) best = u;
            }
            if (best != kNoVertex && route.claim(best) > route.claim(v)) {
                if (route.move(best) == kNoVertex) return route.out.routing;
                v = route.holder();
                continue;
            }
        }
        // A local optimum or a revisit: the best edge to an unvisited vertex,
        // walking back through the visited subgraph to its near end.
        while (!frontier.empty() && visited.contains(frontier.begin()->to)) {
            frontier.erase(frontier.begin());
        }
        if (frontier.empty()) return route.finish(RoutingStatus::kExhausted);
        const Candidate edge = *frontier.begin();
        if (edge.from != v) {
            if (!walk_back(route, visited, edge.from)) return route.out.routing;
            v = route.holder();
            if (v != edge.from) continue;  // hijacked: the edge stays for later
        }
        frontier.erase(edge);  // a move consumes its edge, even a hijacked one
        if (route.move(edge.to) == kNoVertex) return route.out.routing;
        v = route.holder();
    }
    return route.finish(RoutingStatus::kDelivered);
}

void EventQueue::push(SimTime time, EventKind kind, Vertex node, QueryId query) {
    pending_.insert({time, hash_combine(seed_, next_seq_), next_seq_, kind, node, query});
    ++next_seq_;
    high_water_ = std::max(high_water_, pending_.size());
}

Event EventQueue::pop() {
    const Event e = *pending_.begin();
    pending_.erase(pending_.begin());
    return e;
}

bool EventQueue::Earlier::operator()(const Event& a, const Event& b) const noexcept {
    return std::tie(a.time, a.salt, a.seq) < std::tie(b.time, b.salt, b.seq);
}

ServingResult simulate_many(const GraphView& graph, const TargetObjectiveFactory& factory,
                            Protocol protocol, std::span<const ServingQuery> queries,
                            const ServingOptions& options) {
    std::map<Vertex, std::unique_ptr<Objective>> objectives;
    for (const ServingQuery& q : queries) {
        if (!objectives.contains(q.target)) objectives[q.target] = factory(q.target);
    }
    // Query i draws from fault stream nonce i.
    std::vector<Walk> walks;
    walks.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        walks.emplace_back(graph, *objectives.at(queries[i].target), protocol, queries[i].source,
                           options.routing, i);
    }

    struct Node {
        std::deque<QueryId> queue;
        SimTime next_free = 0;
        bool wake_pending = false;
        std::uint32_t wakes = 0;
        std::uint32_t high_water = 0;
        std::uint32_t drops = 0;
        SimTime busy = 0;
    };
    std::vector<Node> nodes(graph.num_vertices());
    std::vector<std::uint32_t> sends(queries.size());
    const LinkLatency latency(options.latency, options.positions);
    EventQueue events(options.seed);
    ServingResult out;

    // Injection in batch order; a crashed source never wakes.
    for (std::size_t i = 0; i < queries.size(); ++i) {
        if (walks[i].start()) {
            events.push(queries[i].start_time, EventKind::kArrival, queries[i].source,
                        static_cast<QueryId>(i));
        }
    }
    while (!events.empty()) {
        const Event e = events.pop();
        ++out.serving.events_fired;
        out.serving.clock_end = e.time;
        Node& node = nodes[e.node];
        if (e.kind == EventKind::kArrival) {
            if (options.queue_capacity != 0 && node.queue.size() >= options.queue_capacity) {
                ++node.drops;
                walks[e.query].refuse();
                continue;
            }
            node.queue.push_back(e.query);
            node.high_water =
                std::max(node.high_water, static_cast<std::uint32_t>(node.queue.size()));
            if (!node.wake_pending) {
                events.push(std::max(e.time, node.next_free), EventKind::kWake, e.node, kNoQuery);
                node.wake_pending = true;
            }
            continue;
        }
        // A wake serves the queue's head, then the node is busy.
        node.wake_pending = false;
        const QueryId q = node.queue.front();
        node.queue.pop_front();
        ++node.wakes;
        node.busy += options.service_ticks;
        node.next_free = e.time + options.service_ticks;
        if (walks[q].wake()) {
            const Vertex next = walks[q].route.holder();
            const std::uint64_t key = (std::uint64_t{q} << 32) | sends[q]++;
            events.push(e.time + latency.delay(e.node, next, key), EventKind::kArrival, next, q);
        }
        if (!node.queue.empty()) {
            events.push(node.next_free, EventKind::kWake, e.node, kNoQuery);
            node.wake_pending = true;
        }
    }

    out.serving.events_scheduled = events.scheduled();
    out.serving.heap_high_water = events.high_water();
    for (const Node& node : nodes) {
        out.serving.node_wakes.push_back(node.wakes);
        out.serving.node_queue_high_water.push_back(node.high_water);
        out.serving.node_queue_drops.push_back(node.drops);
        out.serving.node_busy_ticks.push_back(node.busy);
        out.serving.total_wakes += node.wakes;
        out.serving.queue_drops += node.drops;
        out.serving.busy_ticks_total += node.busy;
    }
    for (Walk& walk : walks) out.queries.push_back(walk.result());
    return out;
}

}  // namespace smallworld::reference
