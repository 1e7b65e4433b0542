#include "core/walk.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/regime.h"
#include "core/vertex_table.h"

namespace smallworld {

std::span<const Vertex> LocalView::neighbors() const {
    if (!has_row_) {
        row_ = rows_->visible_row(self_);
        has_row_ = true;
    }
    return row_;
}

std::span<const double> LocalView::values() const {
    const auto row = neighbors();
    if (!has_values_) {
        values_->resize(row.size());
        objective_->values(row, values_->data());
        has_values_ = true;
    }
    return {values_->data(), row.size()};
}

BestNeighbor LocalView::best(double floor) const {
    // One argmax rule for the whole repo: Objective::best_of's first-maximum
    // tie-break (toward the smaller id on the sorted visible row), filtered
    // by the floor.
    return objective_->best_above(self_, neighbors(), floor);
}

double LocalView::phi(Vertex u) const {
    if (u != self_) {
        // Locality is judged against the *visible* row: under an active
        // plan, evaluating a dead neighbor is a violation too.
        const auto row = neighbors();
        if (!std::binary_search(row.begin(), row.end(), u)) ++*violations_;
    }
    return objective_->value(u);
}

void DistributedProtocol::on_start(const LocalView& view, ProtocolMessage& message,
                                   NodeSlot& slot) const {
    message.last_visited = view.self();
    (void)slot;
}

namespace {

/// The walk's visible rows: the row the awake node advertises, filtered to
/// its usable neighbors under an active fault plan. Every entry filtered
/// out is one skipped dead neighbor.
class RegimeRows final : public RowSource {
public:
    RegimeRows(Regime& regime, std::size_t& skipped) noexcept
        : regime_(&regime), skipped_(&skipped) {}

    [[nodiscard]] std::span<const Vertex> visible_row(Vertex self) override {
        const auto row = regime_->row(self);
        const FaultView& faults = regime_->faults();
        if (!faults.active()) return row;
        usable_.clear();
        for (const Vertex u : row) {
            if (faults.usable(self, u)) {
                usable_.push_back(u);
            } else {
                ++*skipped_;
            }
        }
        return usable_;
    }

private:
    Regime* regime_;
    std::size_t* skipped_;
    std::vector<Vertex> usable_;
};

}  // namespace

namespace detail {

DistributedResult simulate_impl(const GraphView& graph, const Objective& honest,
                                const DistributedProtocol& protocol, Vertex source,
                                const RoutingOptions& options, std::uint64_t fault_nonce,
                                std::vector<SimulationTelemetry>* arrivals) {
    Regime regime(graph, honest, source, options, fault_nonce);
    const Objective& objective = regime.objective();
    DistributedResult result;
    SimulationTelemetry& telemetry = result.telemetry;
    if (regime.source_crashed()) {
        // A crashed source never wakes: no slot is touched, nothing is sent.
        result.routing = regime.take();
        return result;
    }

    // One slot per woken node, lookup-only: the walk drives the order and
    // the table is never iterated.
    VertexTable<NodeSlot> slots;
    ProtocolMessage message;
    message.target = objective.target();
    RegimeRows rows(regime, telemetry.skipped_dead_neighbors);
    std::vector<double> values;  // the awake node's batched pass
    const auto view_of = [&](Vertex self) {
        return LocalView(objective, self, rows, values, telemetry.locality_violations);
    };
    // A forward is legal along the holder's advertised row, to a neighbor
    // the faults left usable.
    const auto legal = [&](Vertex from, Vertex to) {
        const auto row = regime.row(from);
        return std::binary_search(row.begin(), row.end(), to) && regime.faults().usable(from, to);
    };

    // The regime's share of the telemetry: each charged retry is one more
    // wake of the node that re-sends.
    std::size_t wakes = 0;
    const auto sync = [&]() -> const SimulationTelemetry& {
        telemetry.wakes = wakes + regime.result().retries;
        telemetry.retries = regime.result().retries;
        telemetry.message_drops = regime.lost_sends();
        telemetry.audit_flags = regime.swallows();
        telemetry.slots_touched = slots.size();
        return telemetry;
    };
    // Telemetry as of the arrival just caused: what a serving run reports
    // for a query whose message is refused there.
    const auto record_arrival = [&] {
        if (arrivals != nullptr) arrivals->push_back(sync());
    };
    const auto finish = [&](RoutingStatus status) -> DistributedResult {
        sync();
        result.routing = regime.finish(status);
        return std::move(result);
    };

    Vertex current = source;
    protocol.on_start(view_of(source), message, slots[source]);
    record_arrival();

    while (true) {
        ++wakes;
        const LocalView view = view_of(current);
        Action action = protocol.on_wake(view, message, slots[current]);
        if (regime.misroutes(current) &&
            (action.kind == ActionKind::kForward || action.kind == ActionKind::kDrop)) {
            // The misroute rule: the byzantine holder ran its step, and the
            // packet goes where the regime's hijack, picked from the
            // holder's visible row, sends it instead. Unless that is the
            // step's own choice, it arrives as an exploration the holder
            // sent.
            const Vertex hijacked = regime.hijack(current, view.neighbors());
            if (hijacked == kNoVertex) return finish(regime.result().status);  // an isolated liar
            ++telemetry.misroutes_observed;
            if (hijacked != action.next) {
                message.last_visited = current;
                message.backtracking = false;
            }
            action = Action::forward(hijacked);
        } else {
            switch (action.kind) {
                case ActionKind::kDeliver:
                    return finish(RoutingStatus::kDelivered);
                case ActionKind::kDrop:
                    return finish(RoutingStatus::kDeadEnd);
                case ActionKind::kExhaust:
                    return finish(RoutingStatus::kExhausted);
                case ActionKind::kForward:
                    break;
            }
            if (!legal(current, action.next)) {
                ++telemetry.illegal_forwards;
                return finish(RoutingStatus::kDeadEnd);
            }
        }
        const Vertex next = action.next;
        graph.prefetch_neighbors(next);
        // The regime's chokepoint: losses are retried in-wake until success,
        // drop, or a retry lands on the budget; then the landing swallows,
        // or checks the budget off the target (arrival beats budget).
        if (!regime.send(current, next)) return finish(regime.result().status);
        ++telemetry.messages_sent;
        if (!regime.land(current, next)) return finish(regime.result().status);
        current = next;
        record_arrival();
    }
}

}  // namespace detail

DistributedResult simulate_routing(const GraphView& graph, const Objective& objective,
                                   const DistributedProtocol& protocol, Vertex source,
                                   const RoutingOptions& options) {
    return detail::simulate_impl(graph, objective, protocol, source, options, 0, nullptr);
}

}  // namespace smallworld
