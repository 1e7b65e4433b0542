#include "reference_serving.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/check.h"
#include "core/fault.h"
#include "core/thread_pool.h"

// Copies of the pre-split serving code (see reference_serving.h); only
// namespaces, the NodeQueue and SendOutcome scoping, and comments differ,
// plus the walk's later contract: a wake's view reads its visible row on
// first use (QueryRows; the forward check reads the advertised row
// instead), and a misrouting holder runs its step before its hijack.
// Keep the code as it is: it is the oracle.
namespace smallworld::reference {

namespace {

enum class SendOutcome {
    kSent,            ///< message is on the wire toward its next hop
    kDroppedInFlight, ///< max_retries consecutive losses: report kDeadEnd
    kBudgetExhausted, ///< a charged retry landed on the budget: kStepLimit
};

SendOutcome faulted_send(FaultView& faults, std::uint64_t& send_attempt, Vertex from,
                         Vertex to, std::size_t max_steps, RoutingResult& routing,
                         SimulationTelemetry& telemetry) {
    int failures = 0;
    while (true) {
        bool lost = faults.message_lost(send_attempt++);
        if (faults.transient()) {
            if (!faults.link_up(from, to)) lost = true;
            faults.advance_epoch();
        }
        if (!lost) return SendOutcome::kSent;
        ++telemetry.message_drops;
        if (failures >= faults.max_retries()) {
            return SendOutcome::kDroppedInFlight;
        }
        ++failures;
        ++telemetry.wakes;
        ++telemetry.retries;
        ++routing.retries;
        if (routing.steps() + routing.retries >= max_steps) {
            return SendOutcome::kBudgetExhausted;
        }
    }
}

/// The deque-backed node queue of distributed/queue.h before it became
/// intrusive.
class NodeQueue {
public:
    NodeQueue() = default;

    void set_capacity(std::size_t capacity) noexcept { capacity_ = capacity; }

    /// Enqueues the arrival; false when the queue is full (the caller drops
    /// the message and the drop is counted here).
    [[nodiscard]] bool push(QueryId query) {
        if (capacity_ != 0 && fifo_.size() >= capacity_) {
            ++drops_;
            return false;
        }
        fifo_.push_back(query);
        if (fifo_.size() > high_water_) high_water_ = fifo_.size();
        return true;
    }

    [[nodiscard]] QueryId pop() {
        GIRG_CHECK(!fifo_.empty(), "NodeQueue::pop on empty queue");
        const QueryId q = fifo_.front();
        fifo_.pop_front();
        return q;
    }

    [[nodiscard]] bool empty() const noexcept { return fifo_.empty(); }
    [[nodiscard]] std::size_t depth() const noexcept { return fifo_.size(); }
    [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
    [[nodiscard]] std::size_t drops() const noexcept { return drops_; }

private:
    std::size_t capacity_ = 0;  // 0 = unbounded
    std::size_t high_water_ = 0;
    std::size_t drops_ = 0;
    std::deque<QueryId> fifo_;
};

/// Everything one in-flight query owns. The message payload lives here (a
/// node queue holds only the query id), as do the per-query fault stream and
/// the per-wake protocol state, so queries interact exclusively through
/// simulated time: queue waits, service order, and capacity drops.
struct QueryRun {
    ProtocolMessage message;
    DistributedResult result;
    // Audited lookup-only (operator[]/size): one slot per woken node; the
    // event loop drives the order, the map is never iterated.
    std::unordered_map<Vertex, NodeSlot> slots;
    FaultView faults;
    const Objective* objective = nullptr;
    std::uint64_t send_attempt = 0;  ///< message-loss counter (chokepoint)
    std::uint32_t sends = 0;         ///< successful forwards (latency keying)
    bool done = false;
};

/// Mutable per-node serving state; drained into ServingTelemetry at the end.
struct NodeState {
    NodeQueue queue;
    SimTime next_free = 0;      ///< first tick the node can serve again
    bool wake_scheduled = false;  ///< exactly one pending kWake per busy node
    std::uint32_t wakes = 0;
    SimTime busy_ticks = 0;
};

/// The loop's visible() bound to one query: what a LocalView reads on first
/// use.
template <class Visible>
class QueryRows final : public RowSource {
public:
    QueryRows(const Visible& visible, QueryRun& run) : visible_(&visible), run_(&run) {}
    [[nodiscard]] std::span<const Vertex> visible_row(Vertex self) override {
        return (*visible_)(*run_, self);
    }

private:
    const Visible* visible_;
    QueryRun* run_;
};

}  // namespace

ServingResult simulate_many(const GraphView& graph, const TargetObjectiveFactory& factory,
                            const DistributedProtocol& protocol,
                            std::span<const ServingQuery> queries,
                            const ServingOptions& options) {
    const std::size_t n = graph.num_vertices();
    for (const ServingQuery& q : queries) {
        GIRG_CHECK(q.source < n && q.target < n, "simulate_many: query (", q.source,
                   " -> ", q.target, ") out of range for n=", n);
    }

    // One objective per *distinct* target, shared by every query routing to
    // it — the cohort seam: all queries toward a target share one memo table
    // (and, for girg objectives, the graph's SoA attribute view), and all
    // evaluation happens on the event loop, so the single-threaded objective
    // contract holds. Construction (the expensive part for memoizing
    // objectives) fans out over setup workers; each build is independent and
    // lands at a deterministic index, so the thread count cannot leak into
    // results.
    std::vector<Vertex> targets;
    targets.reserve(queries.size());
    for (const ServingQuery& q : queries) targets.push_back(q.target);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    std::vector<std::unique_ptr<Objective>> objectives(targets.size());
    parallel_for(
        targets.size(), [&](std::size_t i) { objectives[i] = factory(targets[i]); },
        options.threads);

    const FaultState* fault_state = options.routing.faults;
    const AdversaryState* adversary_state = options.routing.adversary;
    const AdversaryView adversary(
        adversary_state != nullptr && adversary_state->plan().any() ? adversary_state
                                                                    : nullptr);
    // Byzantine regime: every wake evaluates what vertices *claim*. One
    // claimed decorator per distinct target, over the honest cohort-shared
    // objective (reserve pins the addresses run.objective captures).
    std::vector<ClaimedObjective> claimed;
    if (adversary.active()) {
        claimed.reserve(targets.size());
        for (std::size_t i = 0; i < targets.size(); ++i) {
            claimed.emplace_back(*objectives[i], *adversary_state);
        }
    }
    const std::size_t max_steps = options.routing.effective_max_steps(n);
    const LinkLatency latency(options.latency, options.positions);

    std::vector<NodeState> nodes(n);
    if (options.queue_capacity != 0) {
        for (NodeState& node : nodes) node.queue.set_capacity(options.queue_capacity);
    }

    EventQueue events(options.seed);
    std::vector<QueryRun> runs(queries.size());
    ServingResult out;

    // Residual neighborhood of the awake node, rebuilt per row read into
    // loop-owned storage (the event loop is sequential, so one scratch
    // buffer serves every query).
    std::vector<Vertex> visible_scratch;
    std::vector<Vertex> adv_scratch;
    std::vector<double> values_scratch;
    const auto visible = [&](QueryRun& run, Vertex v) -> std::span<const Vertex> {
        const bool lies = adversary.advertises_phantoms(v);
        if (!run.faults.active() && !lies) return graph.neighbors(v);
        const auto base = lies ? adversary.advertised_neighbors(graph, v, adv_scratch)
                               : graph.neighbors(v);
        if (!run.faults.active()) return base;
        visible_scratch.clear();
        for (const Vertex u : base) {
            if (run.faults.usable(v, u)) {
                visible_scratch.push_back(u);
            } else {
                ++run.result.telemetry.skipped_dead_neighbors;
            }
        }
        return visible_scratch;
    };

    const auto finish = [](QueryRun& run, RoutingStatus status) {
        run.result.routing.status = status;
        run.result.telemetry.slots_touched = run.slots.size();
        run.done = true;
    };

    // Injection, in batch order: query i draws from fault stream nonce i, so
    // query 0 replays the lockstep simulator's draws bit for bit.
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const ServingQuery& q = queries[i];
        QueryRun& run = runs[i];
        run.result.routing.path.push_back(q.source);
        const auto it = std::lower_bound(targets.begin(), targets.end(), q.target);
        const auto target_index = static_cast<std::size_t>(it - targets.begin());
        run.objective = adversary.active()
                            ? static_cast<const Objective*>(&claimed[target_index])
                            : objectives[target_index].get();
        run.faults = FaultView(fault_state, q.source, static_cast<std::uint64_t>(i));

        if (run.faults.active() && !run.faults.vertex_alive(q.source) &&
            q.source != q.target) {
            // A crashed source never wakes: no slot touched, nothing sent,
            // no event scheduled (lockstep parity).
            run.result.routing.status = RoutingStatus::kDeadEnd;
            run.done = true;
            continue;
        }

        run.message.target = q.target;
        QueryRows rows(visible, run);
        const LocalView view(*run.objective, q.source, rows, values_scratch,
                             run.result.telemetry.locality_violations);
        protocol.on_start(view, run.message, run.slots[q.source]);
        events.push(q.start_time, EventKind::kArrival, q.source, static_cast<QueryId>(i));
    }

    while (!events.empty()) {
        const Event e = events.pop();
        ++out.serving.events_fired;
        out.serving.clock_end = e.time;
        NodeState& node = nodes[e.node];

        if (e.kind == EventKind::kArrival) {
            QueryRun& run = runs[e.query];
            if (!node.queue.push(e.query)) {
                // Full inbound queue: the landing message is refused and the
                // query dies where it stood (the packet is the query).
                ++run.result.telemetry.queue_drops;
                finish(run, RoutingStatus::kDeadEnd);
                continue;
            }
            if (!node.wake_scheduled) {
                events.push(std::max(e.time, node.next_free), EventKind::kWake, e.node,
                            kNoQuery);
                node.wake_scheduled = true;
            }
            continue;
        }

        // kWake: serve exactly one queued message, then go busy for the
        // service interval.
        node.wake_scheduled = false;
        const QueryId qid = node.queue.pop();
        QueryRun& run = runs[qid];
        ++node.wakes;
        node.busy_ticks += options.service_ticks;
        node.next_free = e.time + options.service_ticks;

        const Vertex self = e.node;
        ++run.result.telemetry.wakes;
        QueryRows rows(visible, run);
        const LocalView view(*run.objective, self, rows, values_scratch,
                             run.result.telemetry.locality_violations);
        Action action = protocol.on_wake(view, run.message, run.slots[self]);
        if (adversary.misroutes(self) &&
            (action.kind == ActionKind::kForward || action.kind == ActionKind::kDrop)) {
            // A byzantine holder runs its step like any other, then the
            // packet goes to its *worst* visible neighbor by claimed value
            // (first-min in span order) instead: as sent when that is the
            // step's own choice, else as an exploration the holder sent.
            Vertex worst = kNoVertex;
            double worst_value = 0.0;
            for (const Vertex u : view.neighbors()) {
                const double value = run.objective->value(u);
                if (worst == kNoVertex || value < worst_value) {
                    worst = u;
                    worst_value = value;
                }
            }
            if (worst == kNoVertex) {
                action = Action::drop();  // isolated liar
            } else {
                if (worst != action.next) {
                    run.message.last_visited = self;
                    run.message.backtracking = false;
                }
                action = Action::forward(worst);
                ++run.result.telemetry.misroutes_observed;
            }
        }
        switch (action.kind) {
            case ActionKind::kDeliver:
                finish(run, RoutingStatus::kDelivered);
                break;
            case ActionKind::kDrop:
                finish(run, RoutingStatus::kDeadEnd);
                break;
            case ActionKind::kExhaust:
                finish(run, RoutingStatus::kExhausted);
                break;
            case ActionKind::kForward: {
                // Legal along the advertised row, to a usable neighbor; the
                // check reads no visible row.
                const auto advertised =
                    adversary.advertises_phantoms(self)
                        ? adversary.advertised_neighbors(graph, self, adv_scratch)
                        : graph.neighbors(self);
                if (!std::binary_search(advertised.begin(), advertised.end(), action.next) ||
                    !run.faults.usable(self, action.next)) {
                    ++run.result.telemetry.illegal_forwards;
                    finish(run, RoutingStatus::kDeadEnd);
                    break;
                }
                if (run.faults.active()) {
                    // Same chokepoint as the lockstep simulator: in-wake
                    // retries consume budget but no simulated time (latency
                    // is paid by the send that finally gets through).
                    bool failed = false;
                    switch (faulted_send(run.faults, run.send_attempt, self,
                                                 action.next, max_steps,
                                                 run.result.routing,
                                                 run.result.telemetry)) {
                        case SendOutcome::kSent:
                            break;
                        case SendOutcome::kDroppedInFlight:
                            finish(run, RoutingStatus::kDeadEnd);
                            failed = true;
                            break;
                        case SendOutcome::kBudgetExhausted:
                            finish(run, RoutingStatus::kStepLimit);
                            failed = true;
                            break;
                    }
                    if (failed) break;
                }
                ++run.result.telemetry.messages_sent;
                run.result.routing.path.push_back(action.next);
                // Byzantine packet kills, in the same order as simulate_impl
                // (lockstep parity): phantom swallow, then blackhole, then
                // the budget check.
                if (adversary.advertises_phantoms(self) &&
                    AdversaryView::phantom_link(graph, self, action.next)) {
                    ++run.result.telemetry.audit_flags;
                    finish(run, RoutingStatus::kDeadEnd);
                    break;
                }
                if (action.next != run.message.target &&
                    adversary.blackholes(action.next)) {
                    ++run.result.telemetry.audit_flags;
                    finish(run, RoutingStatus::kDeadEnd);
                    break;
                }
                // Arrival beats budget, exactly as in simulate_impl: the
                // delivering hop is exempt from the budget check.
                if (action.next != run.message.target &&
                    run.result.routing.steps() + run.result.routing.retries >=
                        max_steps) {
                    finish(run, RoutingStatus::kStepLimit);
                    break;
                }
                // Key the latency draw by (query, per-query send index) so
                // concurrent queries crossing one edge jitter independently.
                const std::uint64_t send_key =
                    (static_cast<std::uint64_t>(qid) << 32) | run.sends++;
                events.push(e.time + latency.delay(self, action.next, send_key),
                            EventKind::kArrival, action.next, qid);
                break;
            }
        }

        if (!node.queue.empty()) {
            events.push(node.next_free, EventKind::kWake, e.node, kNoQuery);
            node.wake_scheduled = true;
        }
    }

    out.serving.events_scheduled = events.scheduled();
    out.serving.heap_high_water = events.high_water();
    out.serving.node_wakes.resize(n);
    out.serving.node_queue_high_water.resize(n);
    out.serving.node_queue_drops.resize(n);
    out.serving.node_busy_ticks.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        const NodeState& node = nodes[v];
        out.serving.node_wakes[v] = node.wakes;
        out.serving.node_queue_high_water[v] =
            static_cast<std::uint32_t>(node.queue.high_water());
        out.serving.node_queue_drops[v] = static_cast<std::uint32_t>(node.queue.drops());
        out.serving.node_busy_ticks[v] = node.busy_ticks;
        out.serving.total_wakes += node.wakes;
        out.serving.queue_drops += node.queue.drops();
        out.serving.busy_ticks_total += node.busy_ticks;
    }

    out.queries.resize(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        GIRG_CHECK(runs[i].done, "simulate_many: query ", i,
                   " still in flight after the event heap drained");
        out.queries[i] = std::move(runs[i].result);
    }
    return out;
}

}  // namespace smallworld::reference
