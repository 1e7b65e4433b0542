#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/router.h"

namespace smallworld {

/// The distributed execution model of the paper (Sections 1, 2.2, 5):
/// exactly one node is awake at a time — the current message holder — and
/// it can see only its own address, the addresses of its direct neighbors,
/// and the target's address written on the packet. Each node stores a
/// constant number of pointers and objective values; so does the message.
///
/// This layer runs routing protocols under that model *enforced*: the
/// objective can only be evaluated for the awake node and its neighbors
/// (anything else is recorded as a locality violation), per-node state is a
/// fixed-size slot, and the message payload is a fixed-size struct. The
/// simulator reports telemetry so tests can assert the paper's
/// memory/energy claims, and the protocols are required (by tests) to
/// reproduce the centralized routers' paths move for move.

/// Fixed-size per-node storage: exactly the fields Algorithm 2 needs
/// ("for each value of Phi, the Phi-DFS requires a constant memory in each
/// vertex" — and never more than one Phi at a time).
struct NodeSlot {
    double phi = std::numeric_limits<double>::quiet_NaN();           // v.Phi
    double previous_phi = std::numeric_limits<double>::quiet_NaN();  // paused DFS
    Vertex parent = kNoVertex;
    bool started_new_dfs = false;
};

/// Fixed-size message payload ("the address of the target is written on the
/// packet", plus Algorithm 2's m.* fields and the explore/backtrack mode).
struct ProtocolMessage {
    Vertex target = kNoVertex;
    double best_seen = -std::numeric_limits<double>::infinity();
    double phi = -std::numeric_limits<double>::infinity();  // m.Phi
    Vertex last_visited = kNoVertex;
    double backtrack_upper = -std::numeric_limits<double>::infinity();
    bool backtracking = false;
};

/// What the awake node is allowed to see. phi() enforces locality. Under an
/// active FaultPlan the simulator passes the *residual* neighborhood as the
/// visible span, so dead neighbors are invisible to the protocol — the seam
/// through which every protocol degrades gracefully without fault-specific
/// code.
class LocalView {
public:
    LocalView(const GraphView& graph, const Objective& objective, Vertex self,
              std::size_t* violations) noexcept
        : LocalView(graph, objective, self, violations, graph.neighbors(self)) {}

    /// `visible` overrides the adjacency (must be a sorted subsequence of
    /// it); the simulator owns the backing storage for the view's lifetime.
    LocalView(const GraphView& graph, const Objective& objective, Vertex self,
              std::size_t* violations, std::span<const Vertex> visible) noexcept
        : graph_(graph),
          objective_(&objective),
          self_(self),
          violations_(violations),
          visible_(visible) {}

    [[nodiscard]] Vertex self() const noexcept { return self_; }
    [[nodiscard]] std::span<const Vertex> neighbors() const noexcept { return visible_; }

    /// Objective of this node or one of its neighbors. Evaluating any other
    /// vertex is possible (the value is returned so the protocol keeps
    /// running) but counted as a locality violation.
    [[nodiscard]] double phi(Vertex u) const;

    /// Best neighbor by objective, ties toward smaller id (kNoVertex if
    /// isolated) — the argmax every protocol of the paper uses.
    [[nodiscard]] Vertex best_neighbor() const;

private:
    GraphView graph_;  // by value: views are cheap pointer bundles
    const Objective* objective_;
    Vertex self_;
    std::size_t* violations_;
    std::span<const Vertex> visible_;  // residual neighborhood under faults
};

enum class ActionKind {
    kForward,  ///< send the message to `next` (must be a neighbor)
    kDeliver,  ///< self is the target
    kDrop,     ///< give up: dead end (pure greedy)
    kExhaust,  ///< give up: whole component explored (patching protocols)
};

struct Action {
    ActionKind kind = ActionKind::kDrop;
    Vertex next = kNoVertex;

    static Action forward(Vertex next) noexcept { return {ActionKind::kForward, next}; }
    static Action deliver() noexcept { return {ActionKind::kDeliver, kNoVertex}; }
    static Action drop() noexcept { return {ActionKind::kDrop, kNoVertex}; }
    static Action exhaust() noexcept { return {ActionKind::kExhaust, kNoVertex}; }
};

/// Node-local protocol logic. on_wake is invoked with the awake node's view,
/// the message, and the node's slot, and decides a single move.
class DistributedProtocol {
public:
    virtual ~DistributedProtocol() = default;

    /// Initializes message/source-slot state before the first wake.
    virtual void on_start(const LocalView& view, ProtocolMessage& message,
                          NodeSlot& slot) const;

    [[nodiscard]] virtual Action on_wake(const LocalView& view, ProtocolMessage& message,
                                         NodeSlot& slot) const = 0;

    [[nodiscard]] virtual std::string name() const = 0;
};

struct SimulationTelemetry {
    std::size_t wakes = 0;               ///< node activations (energy)
    std::size_t messages_sent = 0;       ///< successful forwards (== path steps)
    std::size_t slots_touched = 0;       ///< nodes holding any state
    std::size_t locality_violations = 0; ///< non-local phi evaluations
    std::size_t illegal_forwards = 0;    ///< forwards to invisible/non-neighbors

    // Fault telemetry (core/fault.h); all zero without an active plan.
    std::size_t message_drops = 0;          ///< send attempts lost in flight
    std::size_t retries = 0;                ///< re-send attempts (each +1 wake)
    std::size_t skipped_dead_neighbors = 0; ///< adjacency entries filtered per wake

    // Serving-layer telemetry (distributed/serving.h); always zero in the
    // lockstep simulator, where no node queue exists.
    std::size_t queue_drops = 0;            ///< arrivals refused by a full node queue

    // Adversary telemetry (core/adversary.h); all zero without an active
    // plan. audit_flags counts byzantine packet kills the simulator itself
    // witnesses: forwards along advertised-but-nonexistent (phantom) links
    // and arrivals swallowed by blackholing vertices. misroutes_observed
    // counts forwards where a byzantine holder overrode the protocol.
    std::size_t audit_flags = 0;         ///< phantom swallows + blackhole drops
    std::size_t misroutes_observed = 0;  ///< byzantine forwarding overrides
};

struct DistributedResult {
    RoutingResult routing;
    SimulationTelemetry telemetry;
};

/// Runs a protocol under the distributed model. Forwards to non-neighbors
/// (or, under faults, to dead neighbors) are refused (counted, message
/// dropped) so a buggy protocol cannot teleport. `options.faults` and
/// `options.adversary` put the walk under a regime (core/regime.h): the
/// awake node sees its residual advertised row, wakes evaluate claimed
/// objectives, byzantine holders blackhole or misroute, and a send lost to
/// message loss or a down link is retried by the same node — one extra wake
/// and one retry charged against the step budget per attempt, without
/// re-invoking on_wake (protocol handlers are not idempotent) — until it
/// succeeds or max_retries consecutive failures drop the packet (kDeadEnd).
/// Null or inactive plans leave the walk byte-identical to the honest one.
[[nodiscard]] DistributedResult simulate_routing(const GraphView& graph,
                                                 const Objective& objective,
                                                 const DistributedProtocol& protocol,
                                                 Vertex source,
                                                 const RoutingOptions& options = {});

namespace detail {

/// One query's lockstep walk: the engine under simulate_routing (fault
/// nonce 0) and under simulate_many's decide phase (nonce = batch index, so
/// the query draws from FaultView(options.faults, source, nonce)).
/// `objective` is the honest one; the walk's Regime wraps it in the claims
/// every wake evaluates under an active adversary.
///
/// With `arrivals` non-null the walk also appends, for every arrival it
/// causes — the injection at the source, then each forward that travels on
/// (not one that ends the walk) — the telemetry as of that moment,
/// slots_touched included: entry a belongs to arrival a, 0 being the
/// injection. A serving run that refuses arrival a reports entry a.
[[nodiscard]] DistributedResult simulate_impl(const GraphView& graph, const Objective& objective,
                                              const DistributedProtocol& protocol, Vertex source,
                                              const RoutingOptions& options,
                                              std::uint64_t fault_nonce,
                                              std::vector<SimulationTelemetry>* arrivals);

}  // namespace detail

}  // namespace smallworld
