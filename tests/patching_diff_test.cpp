#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/message_history.h"
#include "core/phi_dfs.h"
#include "core/vertex_table.h"
#include "girg/generator.h"
#include "random/rng.h"
#include "oracles.h"
#include "test_scenarios.h"

// Differential test of the optimized routers against the oracles written
// from the paper's pseudocode (oracles.h): every RoutingResult (status,
// path, retries) must match exactly, for every router, fault plan and
// adversary plan, the honest cells included.

namespace smallworld {
namespace {

using testing::ScenarioBuilder;

void expect_same_result(const RoutingResult& expected, const RoutingResult& actual) {
    EXPECT_EQ(actual.status, expected.status);
    EXPECT_EQ(actual.retries, expected.retries);
    EXPECT_EQ(actual.path, expected.path);
}

/// One optimized router and the oracle it must reproduce.
struct RouterPair {
    std::unique_ptr<Router> optimized;
    std::unique_ptr<Router> reference;
};

std::vector<RouterPair> router_pairs() {
    std::vector<RouterPair> pairs;
    pairs.push_back({std::make_unique<GreedyRouter>(),
                     std::make_unique<reference::GreedyRouter>()});
    pairs.push_back({std::make_unique<PhiDfsRouter>(),
                     std::make_unique<reference::PhiDfsRouter>()});
    pairs.push_back({std::make_unique<GravityPressureRouter>(),
                     std::make_unique<reference::GravityPressureRouter>()});
    pairs.push_back({std::make_unique<MessageHistoryRouter>(),
                     std::make_unique<reference::MessageHistoryRouter>()});
    return pairs;
}

std::vector<FaultPlan> fault_plans() {
    struct Crash {
        double fraction;
        CrashSelection selection;
    };
    const Crash crashes[] = {{0.0, CrashSelection::kRandom},
                             {0.05, CrashSelection::kRandom},
                             {0.05, CrashSelection::kHighestDegree},
                             {0.2, CrashSelection::kRandom},
                             {0.2, CrashSelection::kHighestDegree}};
    std::vector<FaultPlan> plans;
    std::uint64_t seed = 90;
    for (const Crash& crash : crashes) {
        for (const double link_p : {0.0, 0.1, 0.3}) {
            for (const double removal : {0.0, 0.1}) {
                FaultPlan plan;
                plan.seed = ++seed;
                plan.crash_fraction = crash.fraction;
                plan.crash_selection = crash.selection;
                plan.link_failure_prob = link_p;
                plan.edge_removal_prob = removal;
                // Message loss rides on every plan but the all-zero one,
                // which keeps the grid's honest cells.
                plan.message_loss_prob = plan.any() ? 0.05 : 0.0;
                plans.push_back(plan);
            }
        }
    }
    return plans;
}

std::vector<AdversaryPlan> adversary_plans() {
    AdversaryPlan none;
    AdversaryPlan liars;  // the benchmark's hostile profile
    liars.seed = 5;
    liars.byzantine_fraction = 0.05;
    liars.weight_lie_factor = 8.0;
    liars.blackhole = true;
    liars.phantom_neighbors = 4;
    AdversaryPlan misroute;  // position lies ride along to cover claim_factor
    misroute.seed = 6;
    misroute.byzantine_fraction = 0.05;
    misroute.misroute = true;
    misroute.position_lie_shift = 0.2;
    return {none, liars, misroute};
}

std::string describe(const FaultPlan& f, const AdversaryPlan& a) {
    return "crash=" + std::to_string(f.crash_fraction) +
           " loss=" + std::to_string(f.message_loss_prob) +
           " selection=" + std::to_string(static_cast<int>(f.crash_selection)) +
           " link_p=" + std::to_string(f.link_failure_prob) +
           " removal=" + std::to_string(f.edge_removal_prob) +
           " byzantine=" + std::to_string(a.byzantine_fraction) +
           " misroute=" + std::to_string(a.misroute);
}

/// What a batch of comparisons covered: routes per status, and routes that
/// waited out at least one down link.
struct Coverage {
    std::array<std::size_t, 4> by_status{};
    std::size_t with_retries = 0;

    [[nodiscard]] std::size_t routes() const {
        return by_status[0] + by_status[1] + by_status[2] + by_status[3];
    }
    [[nodiscard]] std::size_t count(RoutingStatus status) const {
        return by_status[static_cast<std::size_t>(status)];
    }
};

/// Routes `pairs` random (source, target) pairs on `girg` under every fault
/// plan x adversary plan x router and compares each result with the oracle.
void compare_on(const Girg& girg, std::uint64_t pair_seed, int pairs, std::size_t max_steps,
                Coverage& coverage) {
    const auto routers = router_pairs();
    const Vertex n = girg.num_vertices();
    for (const FaultPlan& fault_plan : fault_plans()) {
        const FaultState faults(girg.graph, fault_plan, girg.weights);
        for (const AdversaryPlan& adversary_plan : adversary_plans()) {
            const AdversaryState adversary(girg.graph, adversary_plan, girg.weights,
                                           &girg.positions, &girg.params);
            SCOPED_TRACE(describe(fault_plan, adversary_plan));
            RoutingOptions options;
            options.faults = &faults;
            options.adversary = &adversary;
            options.max_steps = max_steps;
            Rng rng(pair_seed);
            for (int i = 0; i < pairs; ++i) {
                const auto s = static_cast<Vertex>(rng.uniform() * n);
                const auto t = static_cast<Vertex>(rng.uniform() * n);
                const GirgObjective objective(girg, t);
                for (const RouterPair& pair : routers) {
                    SCOPED_TRACE(pair.optimized->name() + " s=" + std::to_string(s) +
                                 " t=" + std::to_string(t));
                    const RoutingResult expected =
                        pair.reference->route(girg.graph, objective, s, options);
                    expect_same_result(expected,
                                       pair.optimized->route(girg.graph, objective, s, options));
                    ++coverage.by_status[static_cast<std::size_t>(expected.status)];
                    if (expected.retries > 0) ++coverage.with_retries;
                }
            }
        }
    }
}

GirgParams small_params(double n, double edge_scale_factor) {
    GirgParams params{.n = n, .dim = 2, .alpha = 2.0, .beta = 2.5, .wmin = 2.0,
                      .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params) * edge_scale_factor;
    return params;
}

TEST(PatchingDiff, RandomGirgsUnderFaultAndAdversaryPlansMatchTheReference) {
    // A calibrated instance (one giant) and a thinned one (many components,
    // so exhausting searches run too).
    const Girg dense = generate_girg(small_params(300, 1.0), 811);
    const Girg sparse = generate_girg(small_params(400, 0.35), 812);
    Coverage coverage;
    compare_on(dense, 1, 4, 0, coverage);
    compare_on(sparse, 2, 4, 0, coverage);
    EXPECT_EQ(coverage.routes(), 2u * 30u * 3u * 4u * 4u);
    // Every outcome a hostile regime produces was compared, not only some.
    EXPECT_GT(coverage.count(RoutingStatus::kDelivered), 0u);
    EXPECT_GT(coverage.count(RoutingStatus::kDeadEnd), 0u);
    EXPECT_GT(coverage.count(RoutingStatus::kExhausted), 0u);
    EXPECT_GT(coverage.with_retries, 0u);
}

TEST(PatchingDiff, TightStepBudgetsMatchTheReference) {
    // Budgets that cut most patching searches short: the wait-out and
    // step-limit bookkeeping must agree exactly, not only the deliveries.
    const Girg girg = generate_girg(small_params(300, 0.6), 813);
    Coverage coverage;
    for (const std::size_t max_steps : {std::size_t{3}, std::size_t{17}, std::size_t{60}}) {
        SCOPED_TRACE("max_steps=" + std::to_string(max_steps));
        compare_on(girg, 3, 2, max_steps, coverage);
    }
    EXPECT_GT(coverage.count(RoutingStatus::kStepLimit), 0u);
}

TEST(VertexTable, KeepsEveryValueAcrossGrowth) {
    // Ids spread over the whole 32-bit range, including 0 and the largest
    // valid id, inserted past several doublings of the slot array.
    VertexTable<std::uint32_t> table;
    EXPECT_FALSE(table.contains(0));
    std::vector<std::pair<Vertex, std::uint32_t>> stored;
    Rng rng(77);
    for (std::uint32_t i = 0; i < 3000; ++i) {
        const auto v = i == 0 ? Vertex{0}
                       : i == 1 ? kNoVertex - 1
                                : static_cast<Vertex>(rng.uniform() * 4294967294.0);
        const auto [value, inserted] = table.insert(v);
        if (inserted) {
            *value = i;
            stored.emplace_back(v, i);
        }
        EXPECT_EQ(table.size(), stored.size());
    }
    for (const auto& [v, i] : stored) {
        const std::uint32_t* value = table.find(v);
        ASSERT_NE(value, nullptr);
        EXPECT_EQ(*value, i);
        EXPECT_FALSE(table.insert(v).second);
    }
    EXPECT_EQ(*table.find(kNoVertex - 1), 1u);
    EXPECT_FALSE(table.contains(12345));
    ++table[12345];
    EXPECT_EQ(table[12345], 1u);
}

/// Routes with message-history and its oracle on a hand-built instance and
/// returns the (checked-equal) result.
RoutingResult route_both(const Girg& girg, Vertex s, Vertex t, const RoutingOptions& options) {
    const GirgObjective objective(girg, t);
    const RoutingResult expected =
        reference::MessageHistoryRouter{}.route(girg.graph, objective, s, options);
    const RoutingResult actual = MessageHistoryRouter{}.route(girg.graph, objective, s, options);
    expect_same_result(expected, actual);
    return actual;
}

TEST(PatchingDiff, HijackedWalkKeepsItsCandidate) {
    // phi: m 0.32 > s 0.107 > c 0.053 > a 0.02 (t at 0.5, n = 100). m is
    // the only byzantine vertex and misroutes every packet it holds to its
    // worst neighbor a. The frontier's best edge (s -> c) needs a walk
    // m -> s; m diverts it to a twice, and each time the edge must stay in
    // the frontier — dropping it would exhaust the search instead.
    ScenarioBuilder builder;
    const Vertex s = builder.vertex(0.125, 4.0);
    const Vertex m = builder.vertex(0.25, 8.0);
    const Vertex a = builder.vertex(0.0, 1.0);
    const Vertex c = builder.vertex(0.875, 2.0);
    const Vertex t = builder.vertex(0.5, 1.0);
    builder.edge(s, m).edge(s, a).edge(s, c).edge(m, a).edge(c, t);
    const Girg girg = builder.build();
    AdversaryPlan plan;
    plan.byzantine_fraction = 0.2;  // k = 1: the heaviest vertex, m
    plan.selection = AdversarySelection::kHighestWeight;
    plan.misroute = true;
    const AdversaryState adversary(girg.graph, plan, girg.weights);
    ASSERT_TRUE(adversary.byzantine(m));
    RoutingOptions options;
    options.adversary = &adversary;

    const RoutingResult result = route_both(girg, s, t, options);
    EXPECT_EQ(result.status, RoutingStatus::kDelivered);
    EXPECT_EQ(result.path, (std::vector<Vertex>{s, m, a, m, a, s, c, t}));
}

TEST(PatchingDiff, VisitedVerticesSharingOneNeighborPopInFromOrder) {
    // s (phi 0.32) is a local optimum over x and y (0.04 each, a value tie
    // broken toward the smaller id x). Both x and y then hold an edge to u:
    // equal value, equal `to`, so the smaller `from` (x) goes first.
    ScenarioBuilder builder;
    const Vertex s = builder.vertex(0.375, 4.0);
    const Vertex x = builder.vertex(0.25, 1.0);
    const Vertex y = builder.vertex(0.75, 1.0);
    const Vertex u = builder.vertex(0.0, 1.0);
    const Vertex t = builder.vertex(0.5, 1.0);
    builder.edge(s, x).edge(s, y).edge(x, u).edge(y, u).edge(u, t);
    const Girg girg = builder.build();

    const RoutingResult result = route_both(girg, s, t, {});
    EXPECT_EQ(result.status, RoutingStatus::kDelivered);
    EXPECT_EQ(result.path, (std::vector<Vertex>{s, x, s, y, s, x, u, t}));
}

TEST(PatchingDiff, ValueTiesAcrossVisitedVerticesPopInToOrder) {
    // x -> u1 and y -> u2 tie on value (u1, u2 equidistant from t, equal
    // weights). The smaller `to` (u2, reached from the larger `from` y)
    // must pop first: `to` outranks `from`.
    ScenarioBuilder builder;
    const Vertex s = builder.vertex(0.375, 4.0);
    const Vertex x = builder.vertex(0.25, 1.0);
    const Vertex y = builder.vertex(0.75, 1.0);
    const Vertex u2 = builder.vertex(0.875, 1.0);
    const Vertex u1 = builder.vertex(0.125, 1.0);
    const Vertex t = builder.vertex(0.5, 1.0);
    builder.edge(s, x).edge(s, y).edge(x, u1).edge(y, u2).edge(u1, t);
    const Girg girg = builder.build();

    const RoutingResult result = route_both(girg, s, t, {});
    EXPECT_EQ(result.status, RoutingStatus::kDelivered);
    EXPECT_EQ(result.path, (std::vector<Vertex>{s, x, s, y, s, y, u2, y, s, x, u1, t}));
}

}  // namespace
}  // namespace smallworld
