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
/// The lockstep walk runs node-local protocols under that model *enforced*:
/// the objective can only be evaluated for the awake node and its neighbors
/// (anything else is recorded as a locality violation), per-node state is a
/// fixed-size slot, and the message payload is a fixed-size struct. It is
/// the one engine every node-local protocol runs on: PhiDfsRouter drives
/// Algorithm 2 through it (core/phi_dfs.h), and the serving layer decides
/// every query with it (distributed/serving.h). Its telemetry lets tests
/// assert the paper's memory/energy claims.

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

/// Builds the awake node's visible row when a LocalView first needs it: the
/// row the node advertises, less the neighbors faults make unusable. The
/// storage behind the span is the implementer's and must stay valid for the
/// rest of the wake.
class RowSource {
public:
    [[nodiscard]] virtual std::span<const Vertex> visible_row(Vertex self) = 0;

protected:
    ~RowSource() = default;
};

/// What the awake node is allowed to see: itself, its visible row, and the
/// objective of both. Under an active regime the visible row is the
/// residual advertised one, so dead neighbors are invisible and phantom
/// links visible — the seam through which every protocol degrades, and is
/// lied to, without regime-specific code. A view lives for one wake: it
/// reads the row on first use and evaluates it in at most one batched pass,
/// so a wake that needs neither (a Φ-DFS bounce) reads no row at all.
class LocalView {
public:
    /// `values` is the walk's scratch for the batched pass; `violations`
    /// counts non-local evaluations.
    LocalView(const Objective& objective, Vertex self, RowSource& rows,
              std::vector<double>& values, std::size_t& violations) noexcept
        : objective_(&objective),
          self_(self),
          rows_(&rows),
          values_(&values),
          violations_(&violations) {}

    [[nodiscard]] Vertex self() const noexcept { return self_; }

    /// The visible row, sorted by id.
    [[nodiscard]] std::span<const Vertex> neighbors() const;

    /// phi of every visible neighbor, index-aligned with neighbors(): one
    /// batched Objective::values pass, made once per view.
    [[nodiscard]] std::span<const double> values() const;

    /// The visible neighbor with the largest phi among those whose phi
    /// exceeds `floor`, and that phi; ties toward the smaller id,
    /// {kNoVertex, 0.0} when none does. It is Objective::best_above: the
    /// first-maximum argmax every router of the paper uses, filtered. Under
    /// an inactive regime on a resident view the visible row is the graph's
    /// own: GirgObjective then remembers each holder's decision, and skips
    /// the blocks of a hub's row that cannot beat the floor or the best so
    /// far.
    [[nodiscard]] BestNeighbor best(double floor) const;

    /// Objective of this node or one of its neighbors. Evaluating any other
    /// vertex is possible (the value is returned so the protocol keeps
    /// running) but counted as a locality violation.
    [[nodiscard]] double phi(Vertex u) const;

private:
    const Objective* objective_;
    Vertex self_;
    RowSource* rows_;
    std::vector<double>* values_;
    std::size_t* violations_;
    // Filled on first use.
    mutable std::span<const Vertex> row_;
    mutable bool has_row_ = false;
    mutable bool has_values_ = false;
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
    std::size_t skipped_dead_neighbors = 0; ///< row entries filtered per row read

    // Serving-layer telemetry (distributed/serving.h); always zero in the
    // lockstep walk, where no node queue exists.
    std::size_t queue_drops = 0;            ///< arrivals refused by a full node queue

    // Adversary telemetry (core/adversary.h); all zero without an active
    // plan. audit_flags counts byzantine packet kills the walk itself
    // witnesses: forwards along advertised-but-nonexistent (phantom) links
    // and arrivals swallowed by blackholing vertices. misroutes_observed
    // counts forwards where a byzantine holder overrode the protocol.
    std::size_t audit_flags = 0;         ///< phantom swallows + blackhole drops
    std::size_t misroutes_observed = 0;  ///< byzantine forwarding overrides

    bool operator==(const SimulationTelemetry&) const = default;
};

struct DistributedResult {
    RoutingResult routing;
    SimulationTelemetry telemetry;

    bool operator==(const DistributedResult&) const = default;
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
///
/// The misroute rule: a misrouting holder runs its step like any other
/// holder. If the step forwards or drops, the packet goes to the regime's
/// hijack target instead; a delivery or an exhaustion stands. A hijack that
/// picked the step's own choice travels as sent; any other arrives as an
/// exploration the holder sent (last_visited = holder, not backtracking).
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
