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

}  // namespace smallworld
