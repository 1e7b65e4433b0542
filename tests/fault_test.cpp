#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/fault.h"
#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/message_history.h"
#include "core/p_checker.h"
#include "core/phi_dfs.h"
#include "distributed/protocols.h"
#include "experiments/runner.h"
#include "girg/generator.h"
#include "graph/components.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

using testing::ScenarioBuilder;

// ------------------------------------------------------------- plan contract

TEST(FaultPlanDeathTest, RejectsOutOfRangeParameters) {
    ScenarioBuilder b;
    b.vertex(0.0);
    b.vertex(0.1);
    const Girg g = b.build();
    {
        FaultPlan plan;
        plan.link_failure_prob = -0.1;
        EXPECT_DEATH(FaultState(g.graph, plan), "link_failure_prob");
    }
    {
        FaultPlan plan;
        plan.edge_removal_prob = 1.5;
        EXPECT_DEATH(FaultState(g.graph, plan), "edge_removal_prob");
    }
    {
        FaultPlan plan;
        plan.crash_fraction = 2.0;
        EXPECT_DEATH(FaultState(g.graph, plan), "crash_fraction");
    }
    {
        FaultPlan plan;
        plan.message_loss_prob = -0.5;
        EXPECT_DEATH(FaultState(g.graph, plan), "message_loss_prob");
    }
    {
        FaultPlan plan;
        plan.link_failure_prob = 0.1;
        plan.max_retries = -1;
        EXPECT_DEATH(FaultState(g.graph, plan), "max_retries");
    }
}

TEST(FaultPlanDeathTest, HighestWeightSelectionRequiresWeights) {
    ScenarioBuilder b;
    b.vertex(0.0);
    b.vertex(0.1);
    const Girg g = b.build();
    FaultPlan plan;
    plan.crash_fraction = 0.5;  // k = 1 > 0, so the weight check is reached
    plan.crash_selection = CrashSelection::kHighestWeight;
    EXPECT_DEATH(FaultState(g.graph, plan), "one weight per vertex");
}

TEST(FaultPlan, InactiveByDefaultAndActiveWithAnyModel) {
    EXPECT_FALSE(FaultPlan{}.any());
    FaultPlan link;
    link.link_failure_prob = 0.1;
    EXPECT_TRUE(link.any());
    FaultPlan removal;
    removal.edge_removal_prob = 0.1;
    EXPECT_TRUE(removal.any());
    FaultPlan crash;
    crash.crash_fraction = 0.1;
    EXPECT_TRUE(crash.any());
    FaultPlan loss;
    loss.message_loss_prob = 0.1;
    EXPECT_TRUE(loss.any());
}

// ------------------------------------------------------------ crash selection

TEST(FaultState, RandomCrashSelectionPicksExactCountDeterministically) {
    ScenarioBuilder b;
    for (int i = 0; i < 100; ++i) b.vertex(0.01 * i);
    const Girg g = b.build();
    FaultPlan plan;
    plan.seed = 42;
    plan.crash_fraction = 0.13;
    const FaultState a(g.graph, plan);
    EXPECT_EQ(a.num_crashed(), 13u);
    std::size_t counted = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) counted += a.crashed(v) ? 1 : 0;
    EXPECT_EQ(counted, 13u);

    // Same plan -> same set; different seed -> (almost surely) different set.
    const FaultState a2(g.graph, plan);
    plan.seed = 43;
    const FaultState c(g.graph, plan);
    bool same_as_a = true;
    bool same_as_c = true;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        same_as_a = same_as_a && a.crashed(v) == a2.crashed(v);
        same_as_c = same_as_c && a.crashed(v) == c.crashed(v);
    }
    EXPECT_TRUE(same_as_a);
    EXPECT_FALSE(same_as_c);
}

TEST(FaultState, HighestDegreeSelectionCrashesTheHub) {
    ScenarioBuilder b;
    const Vertex hub = b.vertex(0.5);
    std::vector<Vertex> leaves;
    for (int i = 0; i < 4; ++i) leaves.push_back(b.vertex(0.1 * i));
    for (const Vertex leaf : leaves) b.edge(hub, leaf);
    const Girg g = b.build();
    FaultPlan plan;
    plan.crash_fraction = 0.2;  // k = 1 of n = 5
    plan.crash_selection = CrashSelection::kHighestDegree;
    const FaultState state(g.graph, plan);
    EXPECT_EQ(state.num_crashed(), 1u);
    EXPECT_TRUE(state.crashed(hub));
    for (const Vertex leaf : leaves) EXPECT_FALSE(state.crashed(leaf));
}

TEST(FaultState, HighestWeightSelectionCrashesTheHeaviest) {
    ScenarioBuilder b;
    const Vertex light1 = b.vertex(0.1, 1.0);
    const Vertex heavy = b.vertex(0.5, 10.0);
    const Vertex light2 = b.vertex(0.9, 2.0);
    const Girg g = b.chain({light1, heavy, light2}).build();
    FaultPlan plan;
    plan.crash_fraction = 0.34;  // k = 1 of n = 3
    plan.crash_selection = CrashSelection::kHighestWeight;
    const FaultState state(g.graph, plan, g.weights);
    EXPECT_EQ(state.num_crashed(), 1u);
    EXPECT_TRUE(state.crashed(heavy));
    EXPECT_FALSE(state.crashed(light1));
    EXPECT_FALSE(state.crashed(light2));
}

// -------------------------------------------------------- residual filtering

TEST(FaultState, PermanentRemovalIsAPureFunctionOfSeedAndEdge) {
    ScenarioBuilder b;
    for (int i = 0; i < 40; ++i) b.vertex(0.02 * i);
    const Girg g = b.build();
    FaultPlan plan;
    plan.seed = 5;
    plan.edge_removal_prob = 0.5;
    const FaultState state(g.graph, plan);
    int removed = 0;
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
        for (Vertex v = u + 1; v < g.num_vertices(); ++v) {
            EXPECT_EQ(state.edge_removed(u, v), state.edge_removed(v, u));
            removed += state.edge_removed(u, v) ? 1 : 0;
        }
    }
    // 780 unordered pairs at p = 0.5: a wildly loose two-sided band.
    EXPECT_GT(removed, 250);
    EXPECT_LT(removed, 530);
}

TEST(FaultedRouting, CrashedSourceIsImmediateDeadEnd) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0, 10.0);  // heaviest -> crashed
    const Vertex t = b.vertex(0.3, 1.0);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    FaultPlan plan;
    plan.crash_fraction = 0.5;  // k = 1
    plan.crash_selection = CrashSelection::kHighestWeight;
    const FaultState state(g.graph, plan, g.weights);
    ASSERT_TRUE(state.crashed(s));
    RoutingOptions options;
    options.faults = &state;
    for (const auto make : {+[]() -> std::unique_ptr<Router> {
                                return std::make_unique<GreedyRouter>();
                            },
                            +[]() -> std::unique_ptr<Router> {
                                return std::make_unique<PhiDfsRouter>();
                            },
                            +[]() -> std::unique_ptr<Router> {
                                return std::make_unique<GravityPressureRouter>();
                            },
                            +[]() -> std::unique_ptr<Router> {
                                return std::make_unique<MessageHistoryRouter>();
                            }}) {
        const auto result = make()->route(g.graph, obj, s, options);
        EXPECT_EQ(result.status, RoutingStatus::kDeadEnd);
        EXPECT_EQ(result.steps(), 0u);
    }
}

TEST(FaultedRouting, CrashedTargetIsInvisibleToGreedy) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0, 1.0);
    const Vertex t = b.vertex(0.3, 10.0);  // heaviest -> crashed
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    FaultPlan plan;
    plan.crash_fraction = 0.5;
    plan.crash_selection = CrashSelection::kHighestWeight;
    const FaultState state(g.graph, plan, g.weights);
    ASSERT_TRUE(state.crashed(t));
    RoutingOptions options;
    options.faults = &state;
    const auto result = GreedyRouter{}.route(g.graph, obj, s, options);
    EXPECT_EQ(result.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.steps(), 0u);
}

TEST(FaultedRouting, SourceEqualsTargetDeliveredEvenWhenCrashed) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0, 10.0);
    b.vertex(0.3, 1.0);
    const Girg g = b.build();
    const GirgObjective obj(g, s);
    FaultPlan plan;
    plan.crash_fraction = 0.5;
    plan.crash_selection = CrashSelection::kHighestWeight;
    const FaultState state(g.graph, plan, g.weights);
    ASSERT_TRUE(state.crashed(s));
    RoutingOptions options;
    options.faults = &state;
    EXPECT_TRUE(GreedyRouter{}.route(g.graph, obj, s, options).success());
}

TEST(FaultedRouting, TotalEdgeRemovalExhaustsPatchingAndDeadEndsGreedy) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex m = b.vertex(0.2);
    const Vertex t = b.vertex(0.4);
    const Girg g = b.chain({s, m, t}).build();
    const GirgObjective obj(g, t);
    FaultPlan plan;
    plan.edge_removal_prob = 1.0;
    const FaultState state(g.graph, plan);
    RoutingOptions options;
    options.faults = &state;
    EXPECT_EQ(GreedyRouter{}.route(g.graph, obj, s, options).status,
              RoutingStatus::kDeadEnd);
    EXPECT_EQ(MessageHistoryRouter{}.route(g.graph, obj, s, options).status,
              RoutingStatus::kExhausted);
    EXPECT_EQ(PhiDfsRouter{}.route(g.graph, obj, s, options).status,
              RoutingStatus::kExhausted);
}

// --------------------------------------------------- empty-plan byte identity

TEST(FaultedRouting, InactivePlanIsByteIdenticalForAllRouters) {
    GirgParams params{.n = 4000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 301);
    const FaultPlan empty;  // any() == false
    ASSERT_FALSE(empty.any());
    const FaultState state(g.graph, empty);

    std::vector<std::unique_ptr<Router>> routers;
    routers.push_back(std::make_unique<GreedyRouter>());
    routers.push_back(std::make_unique<PhiDfsRouter>());
    routers.push_back(std::make_unique<GravityPressureRouter>());
    routers.push_back(std::make_unique<MessageHistoryRouter>());
    routers.push_back(std::make_unique<testing::PlannedRouter>(
        std::make_unique<GreedyRouter>(), testing::link_failure_plan(0.3, 17)));

    Rng rng(302);
    RoutingOptions faulted;
    faulted.faults = &state;
    for (int trial = 0; trial < 20; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        for (const auto& router : routers) {
            const auto base = router->route(g.graph, obj, s);
            const auto under_plan = router->route(g.graph, obj, s, faulted);
            EXPECT_EQ(base.status, under_plan.status) << router->name();
            EXPECT_EQ(base.path, under_plan.path) << router->name();
            EXPECT_EQ(base.retries, under_plan.retries) << router->name();
        }
    }
}

// ------------------------------------------- degradation on the residual graph

/// The residual graph a plan induces: alive endpoints, non-removed edges.
Graph residual_graph(const Graph& graph, const FaultState& state) {
    std::vector<Edge> edges;
    for (Vertex u = 0; u < graph.num_vertices(); ++u) {
        for (const Vertex v : graph.neighbors(u)) {
            if (u < v && state.edge_present(u, v)) edges.emplace_back(u, v);
        }
    }
    return Graph(graph.num_vertices(), edges);
}

TEST(FaultedRouting, PatchingDeliversOnResidualGiantComponent) {
    GirgParams params{.n = 3000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 3.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 303);
    FaultPlan plan;
    plan.seed = 11;
    plan.edge_removal_prob = 0.15;
    plan.crash_fraction = 0.05;
    const FaultState state(g.graph, plan);

    const Graph residual = residual_graph(g.graph, state);
    const Components comps = connected_components(residual);
    const std::vector<Vertex> giant = giant_component_vertices(comps);
    ASSERT_GT(giant.size(), 100u);

    RoutingOptions options;
    options.faults = &state;
    options.max_steps = 100 * g.graph.num_vertices();  // headroom for exploration
    const PhiDfsRouter phi_dfs;
    const MessageHistoryRouter history;
    Rng rng(304);
    int checked = 0;
    while (checked < 15) {
        const Vertex s = giant[rng.uniform_index(giant.size())];
        const Vertex t = giant[rng.uniform_index(giant.size())];
        if (s == t) continue;
        ++checked;
        const GirgObjective obj(g, t);
        const auto via_phi = phi_dfs.route(g.graph, obj, s, options);
        EXPECT_EQ(via_phi.status, RoutingStatus::kDelivered)
            << "phi-dfs must deliver on the residual giant (s=" << s << ", t=" << t << ")";
        const auto via_history = history.route(g.graph, obj, s, options);
        EXPECT_EQ(via_history.status, RoutingStatus::kDelivered)
            << "message-history must deliver on the residual giant";

        // The trace satisfies the patching conditions *of the residual
        // graph* (no transient links in this plan, so (P1) stays checkable).
        PatchingCheckOptions check;
        check.faults = &state;
        const auto violations =
            check_patching_conditions(g.graph, obj, via_history.path, check);
        EXPECT_TRUE(violations.empty())
            << (violations.empty() ? "" : violations.front().rule + ": " +
                                              violations.front().description);
    }
}

TEST(FaultedRouting, PCheckerFlagsDeadEdgeTraversalAndSkipsP1UnderTransientLinks) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    // All edges removed: the recorded move s -> t crosses a dead edge.
    FaultPlan removal;
    removal.edge_removal_prob = 1.0;
    const FaultState removed(g.graph, removal);
    PatchingCheckOptions check;
    check.faults = &removed;
    const auto violations = check_patching_conditions(g.graph, obj, {s, t}, check);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations.front().rule, "adjacency");

    // Transient links: (P1) is not reconstructible from the trace; a path
    // that would violate P1b without faults passes clean.
    ScenarioBuilder b2;
    const Vertex s2 = b2.vertex(0.0);
    const Vertex good = b2.vertex(0.4);
    const Vertex bad = b2.vertex(0.1);
    const Girg g2 = b2.edge(s2, good).edge(s2, bad).build();
    const GirgObjective obj2(g2, good);
    FaultPlan transient;
    transient.link_failure_prob = 0.5;
    const FaultState flaky(g2.graph, transient);
    PatchingCheckOptions check2;
    check2.faults = &flaky;
    EXPECT_FALSE(check_patching_conditions(g2.graph, obj2, {s2, bad}, {}).empty());
    EXPECT_TRUE(check_patching_conditions(g2.graph, obj2, {s2, bad}, check2).empty());
}

// --------------------------------------------------------- distributed layer

TEST(FaultedSimulation, MessageLossTelemetryMatchesHandComputedFixture) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    FaultPlan plan;
    plan.message_loss_prob = 1.0;
    plan.max_retries = 2;
    const FaultState state(g.graph, plan);
    RoutingOptions options;
    options.faults = &state;
    const auto result = simulate_routing(g.graph, obj, DistributedGreedy{}, s, options);
    // Wake 1 chooses the forward; every send is lost: the original attempt
    // plus two re-sends (one extra wake and one budget-charged retry each),
    // then the packet drops.
    EXPECT_EQ(result.routing.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.routing.steps(), 0u);
    EXPECT_EQ(result.routing.retries, 2u);
    EXPECT_EQ(result.telemetry.wakes, 3u);
    EXPECT_EQ(result.telemetry.message_drops, 3u);
    EXPECT_EQ(result.telemetry.retries, 2u);
    EXPECT_EQ(result.telemetry.messages_sent, 0u);
    // Adversary counters stay untouched by pure fault plans: the packet died
    // on the wire, no byzantine behavior was ever in play.
    EXPECT_EQ(result.telemetry.audit_flags, 0u);
    EXPECT_EQ(result.telemetry.misroutes_observed, 0u);
}

TEST(FaultedSimulation, CrashedSourceNeverWakes) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0, 10.0);  // heaviest -> crashed
    const Vertex t = b.vertex(0.3, 1.0);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    FaultPlan plan;
    plan.crash_fraction = 0.5;
    plan.crash_selection = CrashSelection::kHighestWeight;
    const FaultState state(g.graph, plan, g.weights);
    ASSERT_TRUE(state.crashed(s));
    RoutingOptions options;
    options.faults = &state;
    const auto result = simulate_routing(g.graph, obj, DistributedGreedy{}, s, options);
    EXPECT_EQ(result.routing.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.telemetry.wakes, 0u);
    EXPECT_EQ(result.telemetry.slots_touched, 0u);
    EXPECT_EQ(result.telemetry.messages_sent, 0u);
}

TEST(FaultedSimulation, DeadNeighborsAreFilteredAndCounted) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0, 1.0);
    const Vertex t = b.vertex(0.5, 2.0);
    const Vertex dead = b.vertex(0.25, 10.0);  // heaviest -> crashed
    const Girg g = b.edge(s, t).edge(s, dead).build();
    const GirgObjective obj(g, t);
    FaultPlan plan;
    plan.crash_fraction = 0.34;  // k = 1 of n = 3
    plan.crash_selection = CrashSelection::kHighestWeight;
    const FaultState state(g.graph, plan, g.weights);
    ASSERT_TRUE(state.crashed(dead));
    RoutingOptions options;
    options.faults = &state;
    const auto result = simulate_routing(g.graph, obj, DistributedGreedy{}, s, options);
    EXPECT_EQ(result.routing.status, RoutingStatus::kDelivered);
    EXPECT_EQ(result.routing.steps(), 1u);
    EXPECT_EQ(result.telemetry.wakes, 2u);
    EXPECT_EQ(result.telemetry.messages_sent, 1u);
    // The dead neighbor is filtered once per row read: s's wake reads its
    // row, while on_start and t's delivering wake read none.
    EXPECT_EQ(result.telemetry.skipped_dead_neighbors, 1u);
    EXPECT_EQ(result.telemetry.illegal_forwards, 0u);
}

/// A protocol that ignores its view and always forwards to a fixed vertex —
/// modeling a node whose routing table still names a crashed neighbor.
class StubbornForwarder final : public DistributedProtocol {
public:
    explicit StubbornForwarder(Vertex next) : next_(next) {}
    [[nodiscard]] Action on_wake(const LocalView&, ProtocolMessage&,
                                 NodeSlot&) const override {
        return Action::forward(next_);
    }
    [[nodiscard]] std::string name() const override { return "stubborn"; }

private:
    Vertex next_;
};

TEST(FaultedSimulation, ForwardToDeadNeighborIsIllegalAndDrops) {
    // `dead` is a real graph neighbor of s, but it is crashed, so it is
    // absent from s's visible span: forwarding to it must be refused as an
    // illegal forward (counted) and the packet dropped, not silently routed
    // through a dead vertex.
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0, 1.0);
    const Vertex t = b.vertex(0.5, 2.0);
    const Vertex dead = b.vertex(0.25, 10.0);  // heaviest -> crashed
    const Girg g = b.edge(s, t).edge(s, dead).build();
    const GirgObjective obj(g, t);
    FaultPlan plan;
    plan.crash_fraction = 0.34;  // k = 1 of n = 3
    plan.crash_selection = CrashSelection::kHighestWeight;
    const FaultState state(g.graph, plan, g.weights);
    ASSERT_TRUE(state.crashed(dead));
    RoutingOptions options;
    options.faults = &state;
    const auto result =
        simulate_routing(g.graph, obj, StubbornForwarder(dead), s, options);
    EXPECT_EQ(result.routing.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.routing.steps(), 0u);
    EXPECT_EQ(result.telemetry.illegal_forwards, 1u);
    EXPECT_EQ(result.telemetry.messages_sent, 0u);
}

TEST(FaultedSimulation, InactivePlanMatchesPlainSimulation) {
    GirgParams params{.n = 2000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 305);
    const FaultState state(g.graph, FaultPlan{});
    Rng rng(306);
    const DistributedPhiDfs protocol;
    for (int trial = 0; trial < 10; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto plain = simulate_routing(g.graph, obj, protocol, s);
        RoutingOptions options;
        options.faults = &state;
        const auto faulted = simulate_routing(g.graph, obj, protocol, s, options);
        EXPECT_EQ(plain.routing.status, faulted.routing.status);
        EXPECT_EQ(plain.routing.path, faulted.routing.path);
        EXPECT_EQ(plain.telemetry.wakes, faulted.telemetry.wakes);
        EXPECT_EQ(plain.telemetry.messages_sent, faulted.telemetry.messages_sent);
        EXPECT_EQ(faulted.telemetry.message_drops, 0u);
        EXPECT_EQ(faulted.telemetry.retries, 0u);
        EXPECT_EQ(faulted.telemetry.skipped_dead_neighbors, 0u);
    }
}

// --------------------------------------------------- trial-runner integration

TEST(FaultedTrials, ResultsAreIdenticalAcrossThreadCounts) {
    GirgParams params{.n = 3000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 307);

    TrialConfig config;
    config.targets = 4;
    config.sources_per_target = 32;
    config.faults.seed = 9;
    config.faults.link_failure_prob = 0.2;
    config.faults.edge_removal_prob = 0.05;
    config.faults.crash_fraction = 0.02;
    ASSERT_TRUE(config.faults.any());

    const GreedyRouter router;
    const auto factory = girg_objective_factory();
    TrialStats reference;
    bool have_reference = false;
    for (const unsigned threads : {1u, 2u, 8u}) {
        config.threads = threads;
        const TrialStats stats = run_girg_trials(g, router, factory, config, 308);
        if (!have_reference) {
            reference = stats;
            have_reference = true;
            EXPECT_GT(stats.attempts, 0u);
            EXPECT_GT(stats.retries, 0u);  // transient links really fired
            continue;
        }
        EXPECT_EQ(reference.attempts, stats.attempts) << threads;
        EXPECT_EQ(reference.delivered, stats.delivered) << threads;
        EXPECT_EQ(reference.dead_end, stats.dead_end) << threads;
        EXPECT_EQ(reference.exhausted, stats.exhausted) << threads;
        EXPECT_EQ(reference.step_limit, stats.step_limit) << threads;
        EXPECT_EQ(reference.retries, stats.retries) << threads;
        EXPECT_EQ(reference.hops.count(), stats.hops.count()) << threads;
        EXPECT_EQ(reference.hops.mean(), stats.hops.mean()) << threads;
        EXPECT_EQ(reference.steps_all.mean(), stats.steps_all.mean()) << threads;
        EXPECT_EQ(reference.stretch.mean(), stats.stretch.mean()) << threads;
    }
}

TEST(FaultedTrials, PerSourceStreamsDecorrelateRoutesFromEpochAlignment) {
    // Two different sources routing over the same edge draw independent link
    // states: each route's fault stream is seeded by its source.
    ScenarioBuilder b;
    const Vertex s1 = b.vertex(0.0);
    const Vertex s2 = b.vertex(0.05);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.edge(s1, t).edge(s2, t).edge(s1, s2).build();
    const FaultState split(g.graph, testing::link_failure_plan(0.5, 21));
    EXPECT_NE(split.route_seed(s1), split.route_seed(s2));

    FaultView c(&split, s1);
    FaultView d(&split, s2);
    bool streamed_identical = true;
    for (std::uint64_t epoch = 0; epoch < 64; ++epoch) {
        streamed_identical = streamed_identical && c.link_up(s1, t) == d.link_up(s1, t);
        c.advance_epoch();
        d.advance_epoch();
    }
    EXPECT_FALSE(streamed_identical);  // per-source independence (64 epochs)
}

}  // namespace
}  // namespace smallworld
