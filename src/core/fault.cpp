#include "core/fault.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/check.h"

namespace smallworld {

namespace {

/// Crash count for a fraction: round-to-nearest, clamped to n. Exact-count
/// selection (rather than per-vertex coins) keeps the crash set size a pure
/// function of (fraction, n), which the adversarial modes need anyway.
[[nodiscard]] std::size_t crash_count(double fraction, std::size_t n) noexcept {
    const auto k = static_cast<std::size_t>(fraction * static_cast<double>(n) + 0.5);
    return k < n ? k : n;
}

}  // namespace

FaultState::FaultState(const GraphView& graph, const FaultPlan& plan,
                       std::span<const double> weights)
    : plan_(plan), streams_(plan.seed) {
    GIRG_CHECK(plan.link_failure_prob >= 0.0 && plan.link_failure_prob <= 1.0,
               "FaultPlan: link_failure_prob=", plan.link_failure_prob, " not in [0,1]");
    GIRG_CHECK(plan.edge_removal_prob >= 0.0 && plan.edge_removal_prob <= 1.0,
               "FaultPlan: edge_removal_prob=", plan.edge_removal_prob, " not in [0,1]");
    GIRG_CHECK(plan.crash_fraction >= 0.0 && plan.crash_fraction <= 1.0,
               "FaultPlan: crash_fraction=", plan.crash_fraction, " not in [0,1]");
    GIRG_CHECK(plan.message_loss_prob >= 0.0 && plan.message_loss_prob <= 1.0,
               "FaultPlan: message_loss_prob=", plan.message_loss_prob, " not in [0,1]");
    GIRG_CHECK(plan.max_retries >= 0, "FaultPlan: max_retries=", plan.max_retries);

    // Stream indexes >= 2^32 can never collide with a per-source route seed
    // (sources are 32-bit vertex ids).
    removal_salt_ = streams_.stream_seed(std::uint64_t{1} << 32);
    const std::uint64_t crash_salt = streams_.stream_seed((std::uint64_t{1} << 32) + 1);

    const std::size_t n = graph.num_vertices();
    const std::size_t k = crash_count(plan.crash_fraction, n);
    if (plan.crash_fraction <= 0.0 || k == 0) return;
    GIRG_CHECK(plan.crash_selection != CrashSelection::kHighestWeight ||
                   weights.size() == n,
               "FaultPlan: kHighestWeight needs one weight per vertex (got ",
               weights.size(), " for n=", n, ")");

    // Rank every vertex by the selection criterion and crash the top k.
    // Ties break toward the smaller id, so the set is a pure function of
    // (plan, graph attributes) regardless of sort internals.
    std::vector<Vertex> order(n);
    for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<Vertex>(v);
    const auto rank_of = [&](Vertex v) -> double {
        switch (plan_.crash_selection) {
            case CrashSelection::kHighestWeight:
                return weights[v];
            case CrashSelection::kHighestDegree:
                return static_cast<double>(graph.degree(v));
            case CrashSelection::kRandom:
            default:
                // Counter-seeded uniform subset: the k largest hash keys.
                return static_cast<double>(hash_combine(crash_salt, v));
        }
    };
    std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     order.end(), [&](Vertex a, Vertex b) {
                         const double ra = rank_of(a);
                         const double rb = rank_of(b);
                         if (ra != rb) return ra > rb;
                         return a < b;
                     });
    crashed_.assign(n, 0);
    for (std::size_t i = 0; i < k; ++i) crashed_[order[i]] = 1;
    num_crashed_ = k;
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
    std::vector<Vertex> adv_scratch;  // advertised-neighbor merge buffer
    std::vector<double> values;       // the scanned row's (claimed) objectives
    int streak = 0;  // consecutive all-improving-links-down epochs
    while (true) {
        // Arrival before budget (the PR-1 boundary convention), budget
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
            adversary.active() ? adversary.advertised_neighbors(graph, current, adv_scratch)
                               : graph.neighbors(current);
        // One batched values() call per scan; phi is pure, so evaluating
        // unusable neighbors too only warms the memo.
        values.resize(neighborhood.size());
        objective.values(neighborhood, values.data());
        Vertex next = kNoVertex;
        if (adversary.misroutes(current)) {
            // A misrouting holder ignores the protocol: the packet goes to
            // the *worst* advertised usable neighbor by claimed value
            // (first-min in list order), improving or not.
            double worst_value = 0.0;
            bool any_usable = false;
            for (std::size_t i = 0; i < neighborhood.size(); ++i) {
                const Vertex u = neighborhood[i];
                if (!faults.usable(current, u)) continue;
                any_usable = true;
                if (!faults.link_up(current, u)) continue;
                if (next == kNoVertex || values[i] < worst_value) {
                    next = u;
                    worst_value = values[i];
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
            for (std::size_t i = 0; i < neighborhood.size(); ++i) {
                const Vertex u = neighborhood[i];
                if (!faults.usable(current, u)) continue;  // residual filter
                if (!(values[i] > current_value)) continue;
                any_improving = true;
                if (faults.link_up(current, u) && values[i] > best_value) {
                    next = u;
                    best_value = values[i];
                }
            }
            faults.advance_epoch();
            if (next == kNoVertex && !any_improving) {
                result.status = RoutingStatus::kDeadEnd;  // genuine local optimum
                return result;
            }
        }
        if (next != kNoVertex) {
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
        // Every usable link is down this epoch: wait out one hop, give up
        // after max_retries consecutive waits.
        if (streak >= faults.max_retries()) {
            result.status = RoutingStatus::kDeadEnd;
            return result;
        }
        ++streak;
        ++result.retries;
    }
}

}  // namespace smallworld
