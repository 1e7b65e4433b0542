#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/message_history.h"
#include "core/phi_dfs.h"
#include "core/walk.h"
#include "distributed/protocols.h"
#include "girg/generator.h"
#include "test_scenarios.h"

// Budget-boundary regression suite (DESIGN.md §9): across every router and
// both simulators, (a) a route that arrives with exactly-exhausted budget is
// delivered — arrival beats the budget check — and (b) when retry exhaustion
// and budget exhaustion hit on the same attempt, the budget wins
// (kStepLimit, not kDeadEnd). These pins exist because the distributed
// simulator historically step-limited boundary arrivals that greedy.cpp
// delivered.

namespace smallworld {
namespace {

using testing::link_failure_plan;
using testing::PlannedRouter;
using testing::ScenarioBuilder;

GirgParams boundary_params(double wmin) {
    GirgParams p;
    p.n = 3000;
    p.dim = 2;
    p.alpha = 2.0;
    p.beta = 2.5;
    p.wmin = wmin;
    p.edge_scale = calibrated_edge_scale(p);
    return p;
}

/// Three-hop chain with a strictly improving objective toward t.
struct Chain {
    Girg girg;
    Vertex s, t;
};

Chain make_chain() {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex a = b.vertex(0.1);
    const Vertex c = b.vertex(0.2);
    const Vertex t = b.vertex(0.3);
    return {b.chain({s, a, c, t}).build(), s, t};
}

/// Single edge s - t, for the retry/budget precedence scenarios.
Chain make_edge() {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.1);
    return {b.edge(s, t).build(), s, t};
}

// --------------------------------------------- the fixed lockstep boundary

TEST(BudgetBoundary, LockstepDeliversChainInExactBudget) {
    const Chain c = make_chain();
    const GirgObjective obj(c.girg, c.t);
    const DistributedGreedy greedy;
    RoutingOptions options;

    options.max_steps = 3;  // exactly the chain length
    const auto exact = simulate_routing(c.girg.graph, obj, greedy, c.s, options);
    EXPECT_EQ(exact.routing.status, RoutingStatus::kDelivered);
    EXPECT_EQ(exact.routing.steps(), 3u);

    options.max_steps = 2;
    const auto tight = simulate_routing(c.girg.graph, obj, greedy, c.s, options);
    EXPECT_EQ(tight.routing.status, RoutingStatus::kStepLimit);
    EXPECT_EQ(tight.routing.steps(), 2u);
}

TEST(BudgetBoundary, LockstepPhiDfsDeliversChainInExactBudget) {
    const Chain c = make_chain();
    const GirgObjective obj(c.girg, c.t);
    const DistributedPhiDfs phi_dfs;
    RoutingOptions options;
    options.max_steps = 3;
    const auto exact = simulate_routing(c.girg.graph, obj, phi_dfs, c.s, options);
    EXPECT_EQ(exact.routing.status, RoutingStatus::kDelivered);
    options.max_steps = 2;
    const auto tight = simulate_routing(c.girg.graph, obj, phi_dfs, c.s, options);
    EXPECT_EQ(tight.routing.status, RoutingStatus::kStepLimit);
}

// ------------------------------------- parametrized: all five centralized

/// Probes delivered (s, t) pairs with a generous budget, then replays each
/// with max_steps equal to the consumed budget (must still deliver, same
/// path) and one below it (must report kStepLimit).
void check_exact_budget_boundary(const Router& router, const Girg& girg,
                                 std::size_t generous_steps) {
    Rng rng(7);
    int delivered_pairs = 0;
    for (int trial = 0; trial < 60 && delivered_pairs < 12; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(girg, t);
        RoutingOptions generous;
        generous.max_steps = generous_steps;
        const auto probe = router.route(girg.graph, obj, s, generous);
        if (!probe.success()) continue;
        ++delivered_pairs;
        const std::size_t consumed = probe.steps() + probe.retries;
        ASSERT_GE(consumed, 1u);

        RoutingOptions exact;
        exact.max_steps = consumed;
        const auto at_budget = router.route(girg.graph, obj, s, exact);
        EXPECT_EQ(at_budget.status, RoutingStatus::kDelivered)
            << router.name() << " s=" << s << " t=" << t << " budget=" << consumed;
        EXPECT_EQ(at_budget.path, probe.path) << router.name();

        RoutingOptions tight;
        tight.max_steps = consumed - 1;
        const auto below = router.route(girg.graph, obj, s, tight);
        EXPECT_EQ(below.status, RoutingStatus::kStepLimit)
            << router.name() << " s=" << s << " t=" << t << " budget=" << consumed - 1;
    }
    EXPECT_GE(delivered_pairs, 5) << router.name() << ": probe found too few routes";
}

TEST(BudgetBoundary, AllCentralizedRoutersDeliverAtExactBudget) {
    const Girg girg = generate_girg(boundary_params(1.5), 41);
    std::vector<std::unique_ptr<Router>> routers;
    routers.push_back(std::make_unique<GreedyRouter>());
    routers.push_back(std::make_unique<PhiDfsRouter>());
    routers.push_back(std::make_unique<GravityPressureRouter>());
    routers.push_back(std::make_unique<MessageHistoryRouter>());
    routers.push_back(std::make_unique<PlannedRouter>(std::make_unique<GreedyRouter>(),
                                                      link_failure_plan(0.2, 43)));
    for (const auto& router : routers) {
        SCOPED_TRACE(router->name());
        check_exact_budget_boundary(*router, girg, 300 * girg.num_vertices());
    }
}

TEST(BudgetBoundary, CentralizedGreedyUnderFaultPlanDeliversAtExactBudget) {
    const Girg girg = generate_girg(boundary_params(1.5), 45);
    FaultPlan plan;
    plan.seed = 46;
    plan.link_failure_prob = 0.2;
    const FaultState faults(girg.graph, plan);

    const GreedyRouter router;
    Rng rng(47);
    int delivered_pairs = 0;
    for (int trial = 0; trial < 60 && delivered_pairs < 10; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(girg, t);
        RoutingOptions generous;
        generous.faults = &faults;
        const auto probe = router.route(girg.graph, obj, s, generous);
        if (!probe.success()) continue;
        ++delivered_pairs;
        const std::size_t consumed = probe.steps() + probe.retries;
        ASSERT_GE(consumed, 1u);

        RoutingOptions exact = generous;
        exact.max_steps = consumed;
        const auto at_budget = router.route(girg.graph, obj, s, exact);
        EXPECT_EQ(at_budget.status, RoutingStatus::kDelivered) << "s=" << s << " t=" << t;
        EXPECT_EQ(at_budget.path, probe.path);
        EXPECT_EQ(at_budget.retries, probe.retries);

        RoutingOptions tight = generous;
        tight.max_steps = consumed - 1;
        const auto below = router.route(girg.graph, obj, s, tight);
        EXPECT_EQ(below.status, RoutingStatus::kStepLimit) << "s=" << s << " t=" << t;
    }
    EXPECT_GE(delivered_pairs, 5);
}

// ----------------------------------- parametrized: distributed simulator

void check_simulator_boundary(const DistributedProtocol& protocol, const Girg& girg,
                              const FaultState* faults) {
    Rng rng(49);
    int delivered_pairs = 0;
    for (int trial = 0; trial < 60 && delivered_pairs < 10; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(girg, t);
        RoutingOptions generous;
        generous.max_steps = 300 * girg.num_vertices();
        generous.faults = faults;
        const auto probe = simulate_routing(girg.graph, obj, protocol, s, generous);
        if (!probe.routing.success()) continue;
        ++delivered_pairs;
        const std::size_t consumed = probe.routing.steps() + probe.routing.retries;
        ASSERT_GE(consumed, 1u);

        RoutingOptions exact = generous;
        exact.max_steps = consumed;
        const auto at_budget = simulate_routing(girg.graph, obj, protocol, s, exact);
        EXPECT_EQ(at_budget.routing.status, RoutingStatus::kDelivered)
            << protocol.name() << " s=" << s << " t=" << t;
        EXPECT_EQ(at_budget.routing.path, probe.routing.path) << protocol.name();

        RoutingOptions tight = generous;
        tight.max_steps = consumed - 1;
        const auto below = simulate_routing(girg.graph, obj, protocol, s, tight);
        EXPECT_EQ(below.routing.status, RoutingStatus::kStepLimit)
            << protocol.name() << " s=" << s << " t=" << t;
    }
    EXPECT_GE(delivered_pairs, 5) << protocol.name();
}

TEST(BudgetBoundary, SimulatorPlainDeliversAtExactBudget) {
    const Girg girg = generate_girg(boundary_params(1.5), 51);
    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    check_simulator_boundary(greedy, girg, nullptr);
    check_simulator_boundary(phi_dfs, girg, nullptr);
}

TEST(BudgetBoundary, SimulatorFaultedDeliversAtExactBudget) {
    const Girg girg = generate_girg(boundary_params(1.5), 53);
    FaultPlan plan;
    plan.seed = 54;
    plan.message_loss_prob = 0.2;
    plan.link_failure_prob = 0.1;
    const FaultState faults(girg.graph, plan);
    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    check_simulator_boundary(greedy, girg, &faults);
    check_simulator_boundary(phi_dfs, girg, &faults);
}

// --------------------- precedence: budget beats retry exhaustion (§9)

// On a single edge with every send lost and max_retries = 3, the 3rd
// charged retry lands exactly on a budget of 3 (kStepLimit must win); with
// budget 4 the 4th loss exhausts the retries first (kDeadEnd).

TEST(BudgetPrecedence, SimulatorBudgetBeatsRetryExhaustion) {
    const Chain c = make_edge();
    FaultPlan plan;
    plan.seed = 57;
    plan.message_loss_prob = 1.0;
    plan.max_retries = 3;
    const FaultState faults(c.girg.graph, plan);
    const GirgObjective obj(c.girg, c.t);
    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    for (const DistributedProtocol* protocol :
         {static_cast<const DistributedProtocol*>(&greedy),
          static_cast<const DistributedProtocol*>(&phi_dfs)}) {
        RoutingOptions options;
        options.faults = &faults;

        options.max_steps = 3;
        const auto at_budget =
            simulate_routing(c.girg.graph, obj, *protocol, c.s, options);
        EXPECT_EQ(at_budget.routing.status, RoutingStatus::kStepLimit)
            << protocol->name();
        EXPECT_EQ(at_budget.routing.retries, 3u) << protocol->name();

        options.max_steps = 4;
        const auto slack = simulate_routing(c.girg.graph, obj, *protocol, c.s, options);
        EXPECT_EQ(slack.routing.status, RoutingStatus::kDeadEnd) << protocol->name();
        EXPECT_EQ(slack.routing.retries, 3u) << protocol->name();
        EXPECT_EQ(slack.telemetry.message_drops, 4u) << protocol->name();
    }

    // One more input: the first hop of a 5-vertex chain spends a budget of
    // 1, and (for these seeds) the next link is down. Both protocols end
    // kStepLimit with steps + retries == max_steps, as every centralized
    // router does (routing_test's AllRoutersWaitOutBudget).
    ScenarioBuilder b;
    std::vector<Vertex> vs;
    for (int i = 0; i < 5; ++i) vs.push_back(b.vertex(0.01 * i));
    b.chain(vs);
    const Girg chain = b.build();
    const GirgObjective chain_obj(chain, vs.back());
    for (const DistributedProtocol* protocol :
         {static_cast<const DistributedProtocol*>(&greedy),
          static_cast<const DistributedProtocol*>(&phi_dfs)}) {
        for (const int max_retries : {0, 3}) {
            for (std::uint64_t seed = 0; seed < 3; ++seed) {
                SCOPED_TRACE(protocol->name() + " chain, max_retries=" +
                             std::to_string(max_retries) + " seed=" + std::to_string(seed));
                const FaultState down(chain.graph, link_failure_plan(0.5, seed, max_retries));
                RoutingOptions options;
                options.max_steps = 1;
                options.faults = &down;
                const auto result =
                    simulate_routing(chain.graph, chain_obj, *protocol, vs.front(), options);
                EXPECT_EQ(result.routing.status, RoutingStatus::kStepLimit);
                EXPECT_EQ(result.routing.steps(), 1u);
                EXPECT_EQ(result.routing.retries, 0u);
            }
        }
    }
}

TEST(BudgetPrecedence, CentralizedGreedyBudgetBeatsWaitOutExhaustion) {
    const Chain c = make_edge();
    FaultPlan plan;
    plan.seed = 59;
    plan.link_failure_prob = 1.0;
    plan.max_retries = 3;
    const FaultState faults(c.girg.graph, plan);
    const GirgObjective obj(c.girg, c.t);
    const GreedyRouter router;

    RoutingOptions options;
    options.faults = &faults;
    options.max_steps = 3;
    const auto at_budget = router.route(c.girg.graph, obj, c.s, options);
    EXPECT_EQ(at_budget.status, RoutingStatus::kStepLimit);
    EXPECT_EQ(at_budget.retries, 3u);

    options.max_steps = 4;
    const auto slack = router.route(c.girg.graph, obj, c.s, options);
    EXPECT_EQ(slack.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(slack.retries, 3u);
}

TEST(BudgetPrecedence, FaultyLinkRouterBudgetBeatsWaitOutExhaustion) {
    const Chain c = make_edge();
    const GirgObjective obj(c.girg, c.t);
    const PlannedRouter router(std::make_unique<GreedyRouter>(), link_failure_plan(1.0, 61, 3));

    RoutingOptions options;
    options.max_steps = 3;
    EXPECT_EQ(router.route(c.girg.graph, obj, c.s, options).status,
              RoutingStatus::kStepLimit);
    options.max_steps = 4;
    EXPECT_EQ(router.route(c.girg.graph, obj, c.s, options).status,
              RoutingStatus::kDeadEnd);
}

}  // namespace
}  // namespace smallworld
