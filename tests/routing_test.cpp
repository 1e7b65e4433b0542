#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/message_history.h"
#include "core/objective.h"
#include "core/phi_dfs.h"
#include "girg/generator.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "random/stats.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

using testing::link_failure_plan;
using testing::PlannedRouter;
using testing::ScenarioBuilder;

// ---------------------------------------------------------------- objectives

TEST(GirgObjectiveTest, TargetHasInfiniteValue) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    EXPECT_TRUE(std::isinf(obj.value(t)));
    EXPECT_FALSE(std::isinf(obj.value(s)));
    EXPECT_EQ(obj.target(), t);
}

TEST(GirgObjectiveTest, MatchesFormula) {
    ScenarioBuilder b(1000.0);
    const Vertex v = b.vertex(0.1, 3.0);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.build();
    const GirgObjective obj(g, t);
    // phi(v) = wv / (wmin * n * |xv - xt|) with d = 1.
    EXPECT_NEAR(obj.value(v), 3.0 / (1.0 * 1000.0 * 0.2), 1e-12);
}

TEST(GirgObjectiveTest, IncreasesWithWeightAndProximity) {
    ScenarioBuilder b;
    const Vertex far_light = b.vertex(0.0, 1.0);
    const Vertex far_heavy = b.vertex(0.0, 5.0);
    const Vertex near_light = b.vertex(0.4, 1.0);
    const Vertex t = b.vertex(0.5);
    const Girg g = b.build();
    const GirgObjective obj(g, t);
    EXPECT_GT(obj.value(far_heavy), obj.value(far_light));
    EXPECT_GT(obj.value(near_light), obj.value(far_light));
}

TEST(GeometricObjectiveTest, IgnoresWeight) {
    ScenarioBuilder b;
    const Vertex light = b.vertex(0.2, 1.0);
    const Vertex heavy = b.vertex(0.2, 100.0);
    const Vertex t = b.vertex(0.5);
    const Girg g = b.build();
    const GeometricObjective obj(g, t);
    EXPECT_DOUBLE_EQ(obj.value(light), obj.value(heavy));
    EXPECT_TRUE(std::isinf(obj.value(t)));
}

TEST(RelaxedObjectiveTest, ZeroMagnitudeEqualsBase) {
    ScenarioBuilder b;
    const Vertex v = b.vertex(0.1, 2.0);
    const Vertex u = b.vertex(0.25, 4.0);
    const Vertex t = b.vertex(0.5);
    const Girg g = b.build();
    const GirgObjective base(g, t);
    const RelaxedObjective exp_relax(g, t, RelaxationKind::kExponent, 0.0, 99);
    const RelaxedObjective fac_relax(g, t, RelaxationKind::kConstantFactor, 1.0, 99);
    for (const Vertex x : {v, u}) {
        EXPECT_DOUBLE_EQ(exp_relax.value(x), base.value(x));
        EXPECT_DOUBLE_EQ(fac_relax.value(x), base.value(x));
    }
    EXPECT_TRUE(std::isinf(exp_relax.value(t)));
}

TEST(RelaxedObjectiveTest, DeterministicPerVertex) {
    ScenarioBuilder b;
    const Vertex v = b.vertex(0.1, 2.0);
    const Vertex t = b.vertex(0.5);
    const Girg g = b.build();
    const RelaxedObjective relax(g, t, RelaxationKind::kExponent, 0.3, 7);
    EXPECT_DOUBLE_EQ(relax.value(v), relax.value(v));  // a genuine function
    const RelaxedObjective other_seed(g, t, RelaxationKind::kExponent, 0.3, 8);
    EXPECT_NE(relax.value(v), other_seed.value(v));
}

TEST(RelaxedObjectiveTest, BoundedByTheoremCondition) {
    // |log(phi~/phi)| <= magnitude * log(min{w, 1/phi}) for the exponent
    // kind — exactly Condition (2) of Theorem 3.5.
    ScenarioBuilder b(10000.0);
    std::vector<Vertex> vertices;
    for (int i = 0; i < 50; ++i) {
        vertices.push_back(b.vertex(0.01 * i, 1.0 + i));
    }
    const Vertex t = b.vertex(0.77);
    const Girg g = b.build();
    const GirgObjective base(g, t);
    const double magnitude = 0.2;
    const RelaxedObjective relax(g, t, RelaxationKind::kExponent, magnitude, 3);
    for (const Vertex v : vertices) {
        const double phi = base.value(v);
        const double cap = std::min(g.weight(v), 1.0 / phi);
        const double ratio = std::abs(std::log(relax.value(v) / phi));
        EXPECT_LE(ratio, magnitude * std::abs(std::log(cap)) + 1e-9);
    }
}

// --------------------------------------------------------------- best_neighbor

TEST(BestNeighbor, PicksMaxObjective) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex a = b.vertex(0.1);
    const Vertex c = b.vertex(0.3);
    const Vertex t = b.vertex(0.5);
    const Girg g = b.edge(s, a).edge(s, c).build();
    const GirgObjective obj(g, t);
    EXPECT_EQ(best_neighbor(g.graph, obj, s), c);
}

TEST(BestNeighbor, TieBreaksTowardSmallerId) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex a = b.vertex(0.1);   // same position/weight as below
    const Vertex a2 = b.vertex(0.1);  // identical objective
    const Vertex t = b.vertex(0.5);
    const Girg g = b.edge(s, a2).edge(s, a).build();
    const GirgObjective obj(g, t);
    EXPECT_EQ(best_neighbor(g.graph, obj, s), a);
}

TEST(BestNeighbor, NoNeighbors) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.5);
    const Girg g = b.build();
    const GirgObjective obj(g, t);
    EXPECT_EQ(best_neighbor(g.graph, obj, s), kNoVertex);
}

TEST(BestNeighbor, BatchedPathsAgreeWithScalarValues) {
    // The memoized PhiEvaluator behind GirgObjective, its batched values(),
    // and best_of() must all reproduce the scalar virtual value() bit for
    // bit on a real instance — including the first-maximum tie-break.
    GirgParams p;
    p.n = 400;
    p.dim = 2;
    p.edge_scale = calibrated_edge_scale(p);
    const Girg g = generate_girg(p, 303);
    const Vertex target = g.num_vertices() / 2;
    const GirgObjective obj(g, target);
    const PhiEvaluator evaluator(g, target);
    std::vector<double> batch;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const auto nbrs = g.graph.neighbors(v);
        batch.resize(nbrs.size());
        obj.values(nbrs, batch.data());
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const double direct = g.weights[nbrs[i]] /
                                  (p.wmin * p.n *
                                   torus_distance_pow_d(g.position(nbrs[i]),
                                                        g.position(target), p.dim));
            if (nbrs[i] != target) {
                ASSERT_DOUBLE_EQ(batch[i], direct) << v << "," << i;
            }
            ASSERT_DOUBLE_EQ(batch[i], obj.value(nbrs[i]));
            ASSERT_DOUBLE_EQ(batch[i], evaluator.value(nbrs[i]));
        }
        // best_of agrees with a scalar first-maximum scan.
        Vertex expect_best = kNoVertex;
        double expect_value = 0.0;
        for (const Vertex u : nbrs) {
            const double value = obj.value(u);
            if (expect_best == kNoVertex || value > expect_value) {
                expect_best = u;
                expect_value = value;
            }
        }
        const BestNeighbor best = obj.best_of(nbrs);
        ASSERT_EQ(best.vertex, expect_best) << v;
        if (expect_best != kNoVertex) {
            ASSERT_DOUBLE_EQ(best.value, expect_value) << v;
        }
    }
}

// ---------------------------------------------------------------- greedy

TEST(Greedy, SourceEqualsTarget) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Girg g = b.build();
    const GirgObjective obj(g, s);
    const GreedyRouter router;
    const auto result = router.route(g.graph, obj, s);
    EXPECT_TRUE(result.success());
    EXPECT_EQ(result.steps(), 0u);
}

TEST(Greedy, DirectNeighborDelivery) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    const auto result = GreedyRouter{}.route(g.graph, obj, s);
    EXPECT_TRUE(result.success());
    EXPECT_EQ(result.steps(), 1u);
    EXPECT_EQ(result.path.back(), t);
}

TEST(Greedy, WalksImprovingChain) {
    ScenarioBuilder b;
    const Vertex v0 = b.vertex(0.00);
    const Vertex v1 = b.vertex(0.10);
    const Vertex v2 = b.vertex(0.20);
    const Vertex v3 = b.vertex(0.30);
    const Vertex t = b.vertex(0.40);
    const Girg g = b.chain({v0, v1, v2, v3, t}).build();
    const GirgObjective obj(g, t);
    const auto result = GreedyRouter{}.route(g.graph, obj, v0);
    ASSERT_TRUE(result.success());
    EXPECT_EQ(result.path, (std::vector<Vertex>{v0, v1, v2, v3, t}));
}

TEST(Greedy, IsolatedSourceIsDeadEnd) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.5);
    const Girg g = b.build();
    const GirgObjective obj(g, t);
    const auto result = GreedyRouter{}.route(g.graph, obj, s);
    EXPECT_EQ(result.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.steps(), 0u);
}

TEST(Greedy, StopsAtLocalOptimum) {
    // s's only neighbor u is closer to s but further from t: dead end at s.
    ScenarioBuilder b;
    const Vertex u = b.vertex(0.05);
    const Vertex s = b.vertex(0.2);
    const Vertex t = b.vertex(0.5);
    b.edge(s, u);
    // t connected elsewhere so it is not isolated (irrelevant to the route).
    const Vertex w = b.vertex(0.45);
    const Girg g = b.edge(t, w).build();
    const GirgObjective obj(g, t);
    const auto result = GreedyRouter{}.route(g.graph, obj, s);
    EXPECT_EQ(result.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.path, (std::vector<Vertex>{s}));
}

TEST(Greedy, PrefersHeavyNeighborOverNearLight) {
    // Weight can beat proximity: phi = w/(n*dist).
    ScenarioBuilder b(100.0);
    const Vertex s = b.vertex(0.00);
    const Vertex near_light = b.vertex(0.30, 1.0);  // dist to t 0.2 -> phi=1/20
    const Vertex far_heavy = b.vertex(0.10, 5.0);   // dist to t 0.4 -> phi=5/40
    const Vertex t = b.vertex(0.50);
    const Girg g = b.edge(s, near_light).edge(s, far_heavy).edge(far_heavy, t).build();
    const GirgObjective obj(g, t);
    const auto result = GreedyRouter{}.route(g.graph, obj, s);
    ASSERT_TRUE(result.success());
    EXPECT_EQ(result.path[1], far_heavy);
}

TEST(Greedy, ObjectiveStrictlyIncreasesAlongPath) {
    const GirgParams params{.n = 10000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                            .wmin = 2.0, .edge_scale = 1.0};
    const Girg g = generate_girg(params, 5);
    Rng rng(6);
    const GreedyRouter router;
    for (int trial = 0; trial < 100; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto result = router.route(g.graph, obj, s);
        for (std::size_t i = 1; i < result.path.size(); ++i) {
            EXPECT_GT(obj.value(result.path[i]), obj.value(result.path[i - 1]));
        }
        // Greedy visits every vertex at most once.
        EXPECT_EQ(result.distinct_vertices(), result.path.size());
    }
}

TEST(Greedy, PathEdgesExistInGraph) {
    const GirgParams params{.n = 5000, .dim = 1, .alpha = 3.0, .beta = 2.7,
                            .wmin = 2.0, .edge_scale = 1.0};
    const Girg g = generate_girg(params, 11);
    Rng rng(12);
    for (int trial = 0; trial < 50; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto result = GreedyRouter{}.route(g.graph, obj, s);
        for (std::size_t i = 0; i + 1 < result.path.size(); ++i) {
            EXPECT_TRUE(g.graph.has_edge(result.path[i], result.path[i + 1]));
        }
    }
}

TEST(Greedy, SuccessRateIsSubstantialOnDenseGirg) {
    // Theorem 3.2: with wmin = 4, failures should be rare even for
    // unconstrained random pairs.
    GirgParams params{.n = 20000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 4.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 21);
    Rng rng(22);
    int delivered = 0;
    const int kTrials = 300;
    for (int trial = 0; trial < kTrials; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        delivered += GreedyRouter{}.route(g.graph, obj, s).success() ? 1 : 0;
    }
    EXPECT_GT(delivered, kTrials * 7 / 10);
}

TEST(Greedy, UltraSmallPathLength) {
    // Theorem 3.3: successful paths are O(loglog n)-short; compare against
    // the predicted bound with generous slack.
    GirgParams params{.n = 30000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 3.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 23);
    Rng rng(24);
    RunningStats hops;
    for (int trial = 0; trial < 300; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto result = GreedyRouter{}.route(g.graph, obj, s);
        if (result.success()) hops.add(static_cast<double>(result.steps()));
    }
    ASSERT_GT(hops.count(), 100u);
    EXPECT_LT(hops.mean(), 2.0 * params.predicted_hops(params.n));
    EXPECT_LT(hops.max(), 5.0 * params.predicted_hops(params.n));
}

TEST(Greedy, StretchCloseToOne) {
    GirgParams params{.n = 20000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 3.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 27);
    const auto comps = connected_components(g.graph);
    const auto giant = giant_component_vertices(comps);
    Rng rng(28);
    RunningStats stretch;
    for (int round = 0; round < 5; ++round) {
        const Vertex t = giant[rng.uniform_index(giant.size())];
        const auto dist = bfs_distances(g.graph, t);
        const GirgObjective obj(g, t);
        for (int trial = 0; trial < 60; ++trial) {
            const Vertex s = giant[rng.uniform_index(giant.size())];
            if (s == t || dist[s] <= 0) continue;
            const auto result = GreedyRouter{}.route(g.graph, obj, s);
            if (result.success()) {
                stretch.add(static_cast<double>(result.steps()) /
                            static_cast<double>(dist[s]));
            }
        }
    }
    ASSERT_GT(stretch.count(), 100u);
    EXPECT_LT(stretch.mean(), 1.15);  // Theorem 3.3: 1 + o(1)
    EXPECT_GE(stretch.min(), 1.0);    // can never beat the shortest path
}

TEST(Greedy, StepLimitEnforced) {
    ScenarioBuilder b;
    std::vector<Vertex> vs;
    for (int i = 0; i <= 50; ++i) vs.push_back(b.vertex(0.01 * i));
    b.chain(vs);
    const Girg g = b.build();
    const GirgObjective obj(g, vs.back());
    RoutingOptions options;
    options.max_steps = 5;
    const auto result = GreedyRouter{}.route(g.graph, obj, vs.front(), options);
    EXPECT_EQ(result.status, RoutingStatus::kStepLimit);
    EXPECT_EQ(result.steps(), 5u);
}

TEST(Greedy, ExactBudgetArrivalIsDelivered) {
    // Regression: a packet reaching the target in exactly max_steps hops was
    // misreported as kStepLimit because the budget was checked before arrival.
    ScenarioBuilder b;
    std::vector<Vertex> vs;
    for (int i = 0; i <= 5; ++i) vs.push_back(b.vertex(0.01 * i));
    b.chain(vs);
    const Girg g = b.build();
    const GirgObjective obj(g, vs.back());
    RoutingOptions options;
    options.max_steps = 5;  // == true path length
    const auto result = GreedyRouter{}.route(g.graph, obj, vs.front(), options);
    EXPECT_EQ(result.status, RoutingStatus::kDelivered);
    EXPECT_EQ(result.steps(), 5u);
    EXPECT_EQ(result.path.back(), vs.back());
}

// ------------------------------------------------ all routers: budget edge

// Every Router implementation must agree on the arrival-vs-budget boundary:
// delivery in exactly max_steps hops is a delivery, one hop fewer of budget
// is a step-limit failure.
using RouterFactory = std::unique_ptr<Router> (*)();

std::unique_ptr<Router> make_greedy() { return std::make_unique<GreedyRouter>(); }
std::unique_ptr<Router> make_phi_dfs() { return std::make_unique<PhiDfsRouter>(); }
std::unique_ptr<Router> make_gravity() {
    return std::make_unique<GravityPressureRouter>();
}
std::unique_ptr<Router> make_history() {
    return std::make_unique<MessageHistoryRouter>();
}
std::unique_ptr<Router> make_faulty() {
    // Greedy under a zero-probability link plan: inactive, so it must route
    // exactly like plain greedy.
    return std::make_unique<PlannedRouter>(make_greedy(), link_failure_plan(0.0, 1, 0));
}

/// An *active but no-op* FaultPlan: crash_fraction small enough to round to
/// zero crashes on the tiny test graphs, so plan.any() is true — every
/// router takes its faulted code path — while the residual graph equals the
/// full graph. The budget contract must hold there too.
std::unique_ptr<Router> noop_faulted(std::unique_ptr<Router> inner) {
    FaultPlan plan;
    plan.crash_fraction = 0.05;  // rounds to 0 crashes for n <= 10
    return std::make_unique<PlannedRouter>(std::move(inner), plan);
}

std::unique_ptr<Router> make_greedy_noop_faulted() { return noop_faulted(make_greedy()); }
std::unique_ptr<Router> make_phi_dfs_noop_faulted() { return noop_faulted(make_phi_dfs()); }
std::unique_ptr<Router> make_gravity_noop_faulted() { return noop_faulted(make_gravity()); }
std::unique_ptr<Router> make_history_noop_faulted() { return noop_faulted(make_history()); }

struct NamedRouter {
    std::uint64_t id;
    const char* name;
    RouterFactory make;
};

constexpr NamedRouter kRouters[] = {
    {0x207052, "Greedy", make_greedy},
    {0x207059, "PhiDfs", make_phi_dfs},
    {0x207060, "GravityPressure", make_gravity},
    {0x207070, "MessageHistory", make_history},
    {0x20707F, "FaultyZeroProb", make_faulty},
    {0x20708E, "GreedyFaulted", make_greedy_noop_faulted},
    {0x20709C, "PhiDfsFaulted", make_phi_dfs_noop_faulted},
    {0x2070AA, "GravityPressureFaulted", make_gravity_noop_faulted},
    {0x2070C1, "MessageHistoryFaulted", make_history_noop_faulted},
};

// The parameter of the all-router suites: a row of kRouters. gtest has no
// printer for it, so CTest registers each case under a hex dump of its bytes;
// it holds no pointer, whose bytes would follow the load address and rename
// the tests on every build. `id` leads the dump with the bytes the cases were
// first registered under (the low bytes of their name pointers in that
// build), keeping their test IDs unchanged.
struct RouterCase {
    std::uint64_t id;
    std::uint64_t row;

    [[nodiscard]] const NamedRouter& router() const { return kRouters[row]; }
};

// Cases for the first `count` rows of kRouters.
std::vector<RouterCase> router_cases(std::size_t count) {
    std::vector<RouterCase> cases;
    for (std::size_t row = 0; row < count; ++row) cases.push_back({kRouters[row].id, row});
    return cases;
}

std::string router_case_name(const ::testing::TestParamInfo<RouterCase>& info) {
    return info.param.router().name;
}

class AllRoutersBudget : public ::testing::TestWithParam<RouterCase> {};

TEST_P(AllRoutersBudget, ExactBudgetArrivalIsDelivered) {
    ScenarioBuilder b;
    std::vector<Vertex> vs;
    for (int i = 0; i <= 5; ++i) vs.push_back(b.vertex(0.01 * i));
    b.chain(vs);
    const Girg g = b.build();
    const GirgObjective obj(g, vs.back());
    RoutingOptions options;
    options.max_steps = 5;  // exactly the monotone chain's length
    const auto router = GetParam().router().make();
    const auto result = router->route(g.graph, obj, vs.front(), options);
    EXPECT_EQ(result.status, RoutingStatus::kDelivered);
    EXPECT_EQ(result.steps(), 5u);
    EXPECT_EQ(result.path.back(), vs.back());
}

TEST_P(AllRoutersBudget, OneHopShortOfBudgetIsNotDelivered) {
    ScenarioBuilder b;
    std::vector<Vertex> vs;
    for (int i = 0; i <= 5; ++i) vs.push_back(b.vertex(0.01 * i));
    b.chain(vs);
    const Girg g = b.build();
    const GirgObjective obj(g, vs.back());
    RoutingOptions options;
    options.max_steps = 4;  // one hop too few
    const auto router = GetParam().router().make();
    const auto result = router->route(g.graph, obj, vs.front(), options);
    EXPECT_FALSE(result.success());
    EXPECT_LE(result.steps(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Routers, AllRoutersBudget,
    ::testing::ValuesIn(router_cases(std::size(kRouters))), router_case_name);

// ---------------------------------------------- all routers: wait-out budget

// With every send failing — every link down, or every message lost — each
// router parks the packet on its chosen move, charging one wait-out hop per
// epoch against the budget. The boundary contract: a wait landing exactly
// on effective_max_steps reports kStepLimit (budget beats retry
// exhaustion); with budget to spare, max_retries consecutive waits drop the
// packet (kDeadEnd). Both outages must give the same statuses and retries.
class AllRoutersWaitOutBudget : public ::testing::TestWithParam<RouterCase> {};

struct Outage {
    const char* name;
    double link_failure_prob;
    double message_loss_prob;
};
constexpr Outage kOutages[] = {{"links down", 1.0, 0.0}, {"messages lost", 0.0, 1.0}};

RoutingResult route_through_outage(const Router& inner, const Outage& outage,
                                   std::size_t max_steps) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    FaultPlan plan;
    plan.seed = 7;
    plan.link_failure_prob = outage.link_failure_prob;
    plan.message_loss_prob = outage.message_loss_prob;
    plan.max_retries = 5;
    const FaultState state(g.graph, plan);
    RoutingOptions options;
    options.max_steps = max_steps;
    options.faults = &state;
    return inner.route(g.graph, obj, s, options);
}

TEST_P(AllRoutersWaitOutBudget, WaitOutHopOnBudgetBoundaryIsStepLimit) {
    const auto router = GetParam().router().make();
    for (const Outage& outage : kOutages) {
        SCOPED_TRACE(outage.name);
        const auto result = route_through_outage(*router, outage, /*max_steps=*/3);
        EXPECT_EQ(result.status, RoutingStatus::kStepLimit);
        EXPECT_EQ(result.steps(), 0u);   // never left the source
        EXPECT_EQ(result.retries, 3u);   // budget consumed entirely by waits
    }

    // One more input: the first hop of a 5-vertex chain spends a budget of
    // 1, and (for these seeds) the next link is down. The budget is checked
    // on landing, before any further decision, so the route ends kStepLimit
    // with steps + retries == max_steps: never a drop, never a retry past
    // the budget.
    ScenarioBuilder b;
    std::vector<Vertex> vs;
    for (int i = 0; i < 5; ++i) vs.push_back(b.vertex(0.01 * i));
    b.chain(vs);
    const Girg g = b.build();
    const GirgObjective obj(g, vs.back());
    for (const int max_retries : {0, 3}) {
        for (std::uint64_t seed = 0; seed < 3; ++seed) {
            SCOPED_TRACE("chain, max_retries=" + std::to_string(max_retries) +
                         " seed=" + std::to_string(seed));
            const FaultState state(g.graph, link_failure_plan(0.5, seed, max_retries));
            RoutingOptions options;
            options.max_steps = 1;
            options.faults = &state;
            const auto result = router->route(g.graph, obj, vs.front(), options);
            EXPECT_EQ(result.status, RoutingStatus::kStepLimit);
            EXPECT_EQ(result.steps(), 1u);  // the first hop got through
            EXPECT_EQ(result.retries, 0u);
        }
    }
}

TEST_P(AllRoutersWaitOutBudget, RetryExhaustionWithBudgetToSpareIsDeadEnd) {
    const auto router = GetParam().router().make();
    for (const Outage& outage : kOutages) {
        SCOPED_TRACE(outage.name);
        const auto result = route_through_outage(*router, outage, /*max_steps=*/1000);
        EXPECT_EQ(result.status, RoutingStatus::kDeadEnd);
        EXPECT_EQ(result.steps(), 0u);
        EXPECT_EQ(result.retries, 5u);   // exactly max_retries waits before the drop
    }
}

INSTANTIATE_TEST_SUITE_P(
    Routers, AllRoutersWaitOutBudget,
    ::testing::ValuesIn(router_cases(4)), router_case_name);  // the four routers, unwrapped

}  // namespace
}  // namespace smallworld
