#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/fault.h"
#include "core/greedy.h"
#include "girg/generator.h"
#include "graph/components.h"
#include "random/splitmix64.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

using testing::link_failure_plan;
using testing::PlannedRouter;
using testing::ScenarioBuilder;

TEST(FaultyLinks, RejectsBadParameters) {
    ScenarioBuilder b;
    const Girg g = b.edge(b.vertex(0.0), b.vertex(0.3)).build();
    EXPECT_DEATH(FaultState(g.graph, link_failure_plan(-0.1, 1)), "link_failure_prob");
    EXPECT_DEATH(FaultState(g.graph, link_failure_plan(1.1, 1)), "link_failure_prob");
    EXPECT_DEATH(FaultState(g.graph, link_failure_plan(0.5, 1, -1)), "max_retries");
}

TEST(FaultyLinks, ZeroFailureMatchesGreedyExactly) {
    GirgParams params{.n = 8000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 201);
    Rng rng(202);
    const GreedyRouter greedy;
    for (int trial = 0; trial < 50; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto a = greedy.route(g.graph, obj, s);
        const auto b = PlannedRouter(std::make_unique<GreedyRouter>(), link_failure_plan(0.0, 7))
                           .route(g.graph, obj, s);
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.path, b.path);
    }
}

TEST(FaultyLinks, TotalFailureDropsImmediately) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    const PlannedRouter router(std::make_unique<GreedyRouter>(),
                               link_failure_plan(1.0, 7, /*max_retries=*/2));
    const auto result = router.route(g.graph, obj, s);
    EXPECT_EQ(result.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.steps(), 0u);
}

TEST(FaultyLinks, SourceIsTargetStillDelivered) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Girg g = b.build();
    const GirgObjective obj(g, s);
    const PlannedRouter router(std::make_unique<GreedyRouter>(), link_failure_plan(1.0, 7));
    EXPECT_TRUE(router.route(g.graph, obj, s).success());
}

TEST(FaultyLinks, RetriesRideOutTransientFailure) {
    // One improving link; with p = 0.5 and several retries the message
    // should almost always get through eventually.
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex t = b.vertex(0.3);
    const Girg g = b.edge(s, t).build();
    const GirgObjective obj(g, t);
    int delivered = 0;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        const PlannedRouter router(std::make_unique<GreedyRouter>(),
                                   link_failure_plan(0.5, seed, /*max_retries=*/8));
        const auto result = router.route(g.graph, obj, s);
        delivered += result.success() ? 1 : 0;
    }
    EXPECT_GT(delivered, 95);  // P[9 consecutive failures] ~ 0.002
}

TEST(FaultyLinks, DeterministicForSeed) {
    GirgParams params{.n = 4000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    const Girg g = generate_girg(params, 203);
    const GirgObjective obj(g, 100);
    const PlannedRouter router(std::make_unique<GreedyRouter>(), link_failure_plan(0.3, 99));
    const auto a = router.route(g.graph, obj, 5);
    const auto b = router.route(g.graph, obj, 5);
    EXPECT_EQ(a.path, b.path);
}

// Frozen copy of the pre-fault-layer faulty-link greedy loop. GreedyRouter
// under a transient-only FaultPlan must reproduce its traces bit for bit
// when the loop is seeded with the route's fault stream.
RoutingResult frozen_reference_faulty_route(const Graph& graph, const Objective& objective,
                                            Vertex source, double failure_prob,
                                            std::uint64_t seed, int max_retries) {
    RoutingResult result;
    result.path.push_back(source);
    const std::size_t max_steps = RoutingOptions{}.effective_max_steps(graph.num_vertices());
    const Vertex target = objective.target();
    const auto link_up = [&](Vertex v, Vertex u, std::uint64_t epoch) {
        if (failure_prob <= 0.0) return true;
        if (failure_prob >= 1.0) return false;
        const std::uint64_t lo = v < u ? v : u;
        const std::uint64_t hi = v < u ? u : v;
        const std::uint64_t h = hash_combine(hash_combine(seed, (lo << 32) | hi), epoch);
        const double coin = static_cast<double>(h >> 11) * 0x1.0p-53;
        return coin >= failure_prob;
    };
    Vertex current = source;
    std::uint64_t epoch = 0;
    int retries = 0;
    while (true) {
        if (current == target) {
            result.status = RoutingStatus::kDelivered;
            return result;
        }
        if (result.steps() >= max_steps) {
            result.status = RoutingStatus::kStepLimit;
            return result;
        }
        const double current_value = objective.value(current);
        Vertex best = kNoVertex;
        double best_value = current_value;
        bool any_improving = false;
        for (const Vertex u : graph.neighbors(current)) {
            const double value = objective.value(u);
            if (!(value > current_value)) continue;
            any_improving = true;
            if (link_up(current, u, epoch) && value > best_value) {
                best = u;
                best_value = value;
            }
        }
        ++epoch;
        if (best != kNoVertex) {
            retries = 0;
            result.path.push_back(best);
            current = best;
            continue;
        }
        if (!any_improving) {
            result.status = RoutingStatus::kDeadEnd;
            return result;
        }
        if (++retries > max_retries) {
            result.status = RoutingStatus::kDeadEnd;
            return result;
        }
    }
}

TEST(FaultyLinks, AdapterIsByteIdenticalToFrozenReference) {
    GirgParams params{.n = 8000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 211);
    Rng rng(212);
    for (const double p : {0.1, 0.3, 0.6}) {
        const FaultState state(g.graph, link_failure_plan(p, 88, /*max_retries=*/3));
        RoutingOptions options;
        options.faults = &state;
        for (int trial = 0; trial < 40; ++trial) {
            const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
            const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
            if (s == t) continue;
            const GirgObjective obj(g, t);
            const auto reference =
                frozen_reference_faulty_route(g.graph, obj, s, p, state.route_seed(s), 3);
            const auto actual = GreedyRouter{}.route(g.graph, obj, s, options);
            EXPECT_EQ(reference.status, actual.status) << "p=" << p << " s=" << s;
            EXPECT_EQ(reference.path, actual.path) << "p=" << p << " s=" << s;
        }
    }
}

TEST(FaultyLinks, ModerateFailureDegradesGracefully) {
    // Theorem 3.5's robustness: losing 20% of links per hop should leave
    // routing success close to the reliable baseline, with similar hops.
    GirgParams params{.n = 20000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 4.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 205);
    const auto comps = connected_components(g.graph);
    const auto giant = giant_component_vertices(comps);
    Rng rng(206);
    const GreedyRouter greedy;
    const PlannedRouter faulty(std::make_unique<GreedyRouter>(), link_failure_plan(0.2, 77));
    int base_ok = 0;
    int faulty_ok = 0;
    int trials = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const Vertex s = giant[rng.uniform_index(giant.size())];
        const Vertex t = giant[rng.uniform_index(giant.size())];
        if (s == t) continue;
        const GirgObjective obj(g, t);
        ++trials;
        base_ok += greedy.route(g.graph, obj, s).success() ? 1 : 0;
        faulty_ok += faulty.route(g.graph, obj, s).success() ? 1 : 0;
    }
    EXPECT_GT(faulty_ok, trials * 7 / 10);
    EXPECT_GT(faulty_ok, base_ok * 8 / 10);
}

}  // namespace
}  // namespace smallworld
