#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/objective.h"
#include "core/router.h"
#include "graph/graph.h"

namespace smallworld {

/// One route under its failure regime: the route-scoped FaultView, the
/// AdversaryView, the step budget and the RoutingResult being built. A
/// protocol only decides which neighbor gets the message (Theorem 3.5 treats
/// a failure as something that happens to a send); every seam a regime adds
/// lives here, once, for every centralized router and the lockstep walk
/// (DESIGN.md §9):
///
///   * the crashed-source check;
///   * the row a vertex advertises: honest, or with its phantom links merged;
///   * the misroute hijack of a byzantine holder;
///   * the send: message loss and transient link outages, one
///     budget-charged retry per failed attempt, a drop after max_retries
///     consecutive failures;
///   * the landing: the hop goes on the path, a phantom forward or a
///     blackholing receiver swallows it, and off the target the budget is
///     checked before any further decision (arrival beats budget).
///
/// Under an active adversary the regime owns the ClaimedObjective that
/// every decision evaluates. With no active plan every seam is inert, and a
/// route is byte-identical to the honest protocol. Strictly single-route.
class Regime {
public:
    /// `objective` is the honest objective bound to the target. `fault_nonce`
    /// selects the per-query fault stream (FaultView); 0 is the plain
    /// per-source stream.
    Regime(const GraphView& graph, const Objective& objective, Vertex source,
           const RoutingOptions& options, std::uint64_t fault_nonce = 0);
    Regime(const Regime&) = delete;  // objective() may point into claimed_
    Regime& operator=(const Regime&) = delete;

    /// True when `options` carry an active fault or adversary plan.
    [[nodiscard]] static bool active(const RoutingOptions& options) noexcept {
        return (options.faults != nullptr && options.faults->plan().any()) ||
               (options.adversary != nullptr && options.adversary->plan().any());
    }

    /// What every decision evaluates: vertices' claims under an active
    /// adversary, the honest objective otherwise.
    [[nodiscard]] const Objective& objective() const noexcept { return *objective_; }
    [[nodiscard]] Vertex target() const noexcept { return target_; }
    [[nodiscard]] const FaultView& faults() const noexcept { return faults_; }
    /// Mutable for greedy's per-epoch link draws (DESIGN.md §9).
    [[nodiscard]] FaultView& faults() noexcept { return faults_; }
    [[nodiscard]] const RoutingResult& result() const noexcept { return result_; }
    /// The vertex holding the message: the last hop on the path.
    [[nodiscard]] Vertex holder() const noexcept { return result_.path.back(); }

    /// A crashed source other than the target cannot emit the packet: true
    /// ends the route kDeadEnd.
    [[nodiscard]] bool source_crashed() {
        const Vertex source = result_.path.front();
        if (source == target_ || faults_.vertex_alive(source)) return false;
        result_.status = RoutingStatus::kDeadEnd;
        return true;
    }

    /// The row `v` advertises: its honest adjacency, with its phantom links
    /// merged in sorted order when it is a lying byzantine vertex. Valid
    /// until the next row() call (and, on a compressed view, the next row
    /// read of any kind).
    [[nodiscard]] std::span<const Vertex> row(Vertex v) {
        return adversary_.active() ? adversary_.advertised_neighbors(graph_, v, row_scratch_)
                                   : graph_.neighbors(v);
    }

    /// `v` is a byzantine holder that overrides the protocol's forward.
    [[nodiscard]] bool misroutes(Vertex v) const noexcept { return adversary_.misroutes(v); }

    /// The misroute hijack: the worst usable neighbor among `candidates`
    /// (`from`'s advertised row, or a usable subsequence of it) by claimed
    /// value, first minimum in row order. kNoVertex ends the route kDeadEnd:
    /// an isolated liar.
    [[nodiscard]] Vertex hijack(Vertex from, std::span<const Vertex> candidates);

    /// One message-loss draw, keyed by the route's send-attempt counter.
    [[nodiscard]] bool lost() noexcept { return faults_.message_lost(send_attempt_++); }

    /// Charges one failed attempt: after `failures` consecutive ones, reaching
    /// max_retries drops the packet (kDeadEnd); otherwise it is a wait-out
    /// retry charged to the budget, and a retry that lands on the budget
    /// ends the route kStepLimit. False when the route ended.
    [[nodiscard]] bool charge_failure(int& failures) {
        if (failures >= faults_.max_retries()) return end(RoutingStatus::kDeadEnd);
        ++failures;
        ++result_.retries;
        // Budget beats retry exhaustion: the retry that spends the budget
        // ends the route kStepLimit, even when it was the last one allowed.
        if (spent()) return end(RoutingStatus::kStepLimit);
        return true;
    }

    /// Sends from `from` to `to` until an attempt gets through: each attempt
    /// draws message loss and, under transient faults, the link state of one
    /// epoch; each failed attempt is charged by charge_failure(). False when
    /// the route ended.
    [[nodiscard]] bool send(Vertex from, Vertex to) {
        if (!faults_.active()) return true;
        for (int failures = 0;;) {
            bool failed = lost();
            if (faults_.transient()) {
                if (!faults_.link_up(from, to)) failed = true;
                faults_.advance_epoch();  // one epoch per attempt
            }
            if (!failed) return true;
            ++lost_sends_;
            if (!charge_failure(failures)) return false;
        }
    }

    /// The hop arrives: `to` goes on the path, then a forward along a phantom
    /// link or into a blackholing receiver other than the target is
    /// swallowed (kDeadEnd, the hop left on the trace for the audit), then,
    /// off the target, a spent budget ends the route kStepLimit. False when
    /// the route ended.
    [[nodiscard]] bool land(Vertex from, Vertex to) {
        result_.path.push_back(to);
        if (adversary_.advertises_phantoms(from) &&
            AdversaryView::phantom_link(graph_, from, to)) {
            ++swallows_;
            return end(RoutingStatus::kDeadEnd);
        }
        if (to == target_) return true;  // arrival is delivery, byzantine or not
        if (adversary_.blackholes(to)) {
            ++swallows_;
            return end(RoutingStatus::kDeadEnd);
        }
        if (spent()) return end(RoutingStatus::kStepLimit);
        return true;
    }

    /// One protocol move: hijack (when `from` misroutes, `to` is ignored),
    /// send, land. The vertex the packet landed on, or kNoVertex when the
    /// route ended.
    [[nodiscard]] Vertex move(Vertex from, Vertex to) {
        if (misroutes(from)) {
            to = hijack(from, row(from));
            if (to == kNoVertex) return kNoVertex;
        }
        if (!send(from, to) || !land(from, to)) return kNoVertex;
        return to;
    }

    /// Ends the route with `status` and hands the result over.
    [[nodiscard]] RoutingResult finish(RoutingStatus status) {
        result_.status = status;
        return take();
    }
    /// Hands the result over with the status the regime set.
    [[nodiscard]] RoutingResult take() { return std::move(result_); }

    /// Send attempts lost in flight or to a down link so far.
    [[nodiscard]] std::size_t lost_sends() const noexcept { return lost_sends_; }
    /// Hops swallowed by a phantom link or a blackhole so far (0 or 1).
    [[nodiscard]] std::size_t swallows() const noexcept { return swallows_; }

private:
    bool end(RoutingStatus status) noexcept {
        result_.status = status;
        return false;
    }
    [[nodiscard]] bool spent() const noexcept {
        return result_.steps() + result_.retries >= max_steps_;
    }

    GraphView graph_;  // by value: views are cheap pointer bundles
    std::optional<ClaimedObjective> claimed_;
    const Objective* objective_;
    Vertex target_;
    std::size_t max_steps_;
    FaultView faults_;
    AdversaryView adversary_;
    RoutingResult result_;
    std::vector<Vertex> row_scratch_;  // advertised-row merges
    std::uint64_t send_attempt_ = 0;   // message-loss key
    std::size_t lost_sends_ = 0;
    std::size_t swallows_ = 0;
};

}  // namespace smallworld
