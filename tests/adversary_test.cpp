#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/message_history.h"
#include "core/p_checker.h"
#include "core/phi_dfs.h"
#include "distributed/protocols.h"
#include "distributed/serving.h"
#include "experiments/runner.h"
#include "girg/generator.h"
#include "random/rng.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

using testing::ScenarioBuilder;

// ------------------------------------------------------------- plan contract

TEST(AdversaryPlanDeathTest, RejectsOutOfRangeParameters) {
    ScenarioBuilder b;
    b.vertex(0.0);
    b.vertex(0.1);
    const Girg g = b.build();
    {
        AdversaryPlan plan;
        plan.byzantine_fraction = -0.1;
        EXPECT_DEATH(AdversaryState(g.graph, plan), "byzantine_fraction");
    }
    {
        AdversaryPlan plan;
        plan.byzantine_fraction = 1.5;
        EXPECT_DEATH(AdversaryState(g.graph, plan), "byzantine_fraction");
    }
    {
        AdversaryPlan plan;
        plan.weight_lie_factor = 0.0;
        EXPECT_DEATH(AdversaryState(g.graph, plan), "weight_lie_factor");
    }
    {
        AdversaryPlan plan;
        plan.weight_lie_factor = -2.0;
        EXPECT_DEATH(AdversaryState(g.graph, plan), "weight_lie_factor");
    }
    {
        AdversaryPlan plan;
        plan.position_lie_shift = 0.7;  // more than half the torus diameter
        EXPECT_DEATH(AdversaryState(g.graph, plan), "position_lie_shift");
    }
    {
        AdversaryPlan plan;
        plan.phantom_neighbors = -1;
        EXPECT_DEATH(AdversaryState(g.graph, plan), "phantom_neighbors");
    }
}

TEST(AdversaryPlanDeathTest, AdaptiveSelectionRequiresItsInputs) {
    ScenarioBuilder b;
    b.vertex(0.0);
    b.vertex(0.1);
    const Girg g = b.build();
    {
        AdversaryPlan plan;
        plan.byzantine_fraction = 0.5;  // k = 1 > 0, so the checks are reached
        plan.selection = AdversarySelection::kHighestWeight;
        EXPECT_DEATH(AdversaryState(g.graph, plan), "one weight per vertex");
    }
    {
        AdversaryPlan plan;
        plan.byzantine_fraction = 0.5;
        plan.selection = AdversarySelection::kHighestLayer;
        std::vector<double> weights{1.0, 2.0};
        EXPECT_DEATH(AdversaryState(g.graph, plan, weights), "GirgParams");
    }
    {
        AdversaryPlan plan;
        plan.byzantine_fraction = 0.5;
        plan.position_lie_shift = 0.1;
        EXPECT_DEATH(AdversaryState(g.graph, plan), "one position per vertex");
    }
}

TEST(AdversaryPlan, InactiveByDefaultAndActiveOnlyWithVictimsAndALie) {
    EXPECT_FALSE(AdversaryPlan{}.any());

    // Compromised vertices that tell no lie are not an adversary...
    AdversaryPlan honest_victims;
    honest_victims.byzantine_fraction = 0.5;
    EXPECT_FALSE(honest_victims.any());

    // ...and a lie with nobody to tell it is not one either.
    AdversaryPlan no_victims;
    no_victims.weight_lie_factor = 8.0;
    no_victims.blackhole = true;
    EXPECT_FALSE(no_victims.any());

    AdversaryPlan active = honest_victims;
    active.weight_lie_factor = 8.0;
    EXPECT_TRUE(active.any());
    active = honest_victims;
    active.position_lie_shift = 0.1;
    EXPECT_TRUE(active.any());
    active = honest_victims;
    active.phantom_neighbors = 2;
    EXPECT_TRUE(active.any());
    active = honest_victims;
    active.blackhole = true;
    EXPECT_TRUE(active.any());
    active = honest_victims;
    active.misroute = true;
    EXPECT_TRUE(active.any());
}

// --------------------------------------------------------- victim selection

TEST(AdversaryState, RandomSelectionPicksExactCountDeterministically) {
    ScenarioBuilder b;
    for (int i = 0; i < 100; ++i) b.vertex(0.01 * i);
    const Girg g = b.build();
    AdversaryPlan plan;
    plan.seed = 42;
    plan.byzantine_fraction = 0.13;
    const AdversaryState a(g.graph, plan);
    EXPECT_EQ(a.num_byzantine(), 13u);
    std::size_t counted = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) counted += a.byzantine(v) ? 1 : 0;
    EXPECT_EQ(counted, 13u);

    // Same plan -> same set; different seed -> (almost surely) different set.
    const AdversaryState a2(g.graph, plan);
    plan.seed = 43;
    const AdversaryState c(g.graph, plan);
    bool same_as_a = true;
    bool same_as_c = true;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        same_as_a = same_as_a && a.byzantine(v) == a2.byzantine(v);
        same_as_c = same_as_c && a.byzantine(v) == c.byzantine(v);
    }
    EXPECT_TRUE(same_as_a);
    EXPECT_FALSE(same_as_c);
}

TEST(AdversaryState, HighestWeightSelectionCompromisesTheHeaviest) {
    ScenarioBuilder b;
    const Vertex light1 = b.vertex(0.1, 1.0);
    const Vertex heavy = b.vertex(0.5, 10.0);
    const Vertex light2 = b.vertex(0.9, 2.0);
    const Girg g = b.chain({light1, heavy, light2}).build();
    AdversaryPlan plan;
    plan.byzantine_fraction = 0.34;  // k = 1 of n = 3
    plan.selection = AdversarySelection::kHighestWeight;
    const AdversaryState state(g.graph, plan, g.weights);
    EXPECT_EQ(state.num_byzantine(), 1u);
    EXPECT_TRUE(state.byzantine(heavy));
    EXPECT_FALSE(state.byzantine(light1));
    EXPECT_FALSE(state.byzantine(light2));
}

TEST(AdversaryState, HighestLayerSelectionCompromisesWholeLandmarkLayersTopFirst) {
    GirgParams params{.n = 2000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 501);
    AdversaryPlan plan;
    plan.seed = 7;
    plan.byzantine_fraction = 0.02;  // k = 40
    plan.selection = AdversarySelection::kHighestLayer;
    const AdversaryState state(g.graph, plan, g.weights, &g.positions, &g.params);
    // Round-to-nearest of fraction * actual vertex count (the generator's
    // point count is random, not exactly params.n).
    const auto expected = static_cast<std::size_t>(
        plan.byzantine_fraction * static_cast<double>(g.num_vertices()) + 0.5);
    ASSERT_EQ(state.num_byzantine(), expected);
    ASSERT_GT(expected, 10u);
    ASSERT_GT(state.num_landmark_layers(), 1);

    // The compromised set is a prefix of the Lemma 8.1 ladder read top-down:
    // whole layers above the boundary, a partial draw inside it, nothing
    // below. So no honest vertex may sit strictly above any byzantine one.
    int min_byzantine_layer = state.num_landmark_layers();
    int max_honest_layer = -1;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const int layer = state.landmark_layer(v);
        ASSERT_GE(layer, 0);
        ASSERT_LT(layer, state.num_landmark_layers());
        if (state.byzantine(v)) {
            min_byzantine_layer = std::min(min_byzantine_layer, layer);
        } else {
            max_honest_layer = std::max(max_honest_layer, layer);
        }
    }
    EXPECT_LE(max_honest_layer, min_byzantine_layer);
    // Layers strictly above the boundary are fully compromised.
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (state.landmark_layer(v) > min_byzantine_layer) {
            EXPECT_TRUE(state.byzantine(v)) << "honest vertex above the boundary layer";
        }
    }
    // The boundary layer itself funnels the first routing phase: the draw
    // within it lands on landmark-weight vertices, not the global heaviest
    // (that is kHighestWeight's job) — pin that the boundary is partial.
    std::size_t boundary_total = 0;
    std::size_t boundary_byzantine = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (state.landmark_layer(v) != min_byzantine_layer) continue;
        ++boundary_total;
        boundary_byzantine += state.byzantine(v) ? 1 : 0;
    }
    EXPECT_GT(boundary_byzantine, 0u);
    EXPECT_LT(boundary_byzantine, boundary_total);
}

// ------------------------------------------------------------ attribute lies

TEST(AdversaryState, PhantomsAreSortedRealNonNeighborsOfByzantineVerticesOnly) {
    GirgParams params{.n = 500, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 502);
    AdversaryPlan plan;
    plan.seed = 3;
    plan.byzantine_fraction = 0.1;
    plan.phantom_neighbors = 4;
    const AdversaryState state(g.graph, plan);
    std::size_t advertised = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const auto phantoms = state.phantoms(v);
        if (!state.byzantine(v)) {
            EXPECT_TRUE(phantoms.empty());
            continue;
        }
        EXPECT_LE(phantoms.size(), 4u);
        EXPECT_TRUE(std::is_sorted(phantoms.begin(), phantoms.end()));
        for (const Vertex p : phantoms) {
            ++advertised;
            EXPECT_NE(p, v);
            EXPECT_LT(p, g.num_vertices());
            EXPECT_FALSE(g.graph.has_edge(v, p)) << "phantom must not be a real edge";
        }
    }
    EXPECT_GT(advertised, 0u);
}

TEST(AdversaryState, ClaimFactorIsExactlyOneForHonestVerticesAndTheLieOtherwise) {
    GirgParams params{.n = 500, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 503);
    AdversaryPlan plan;
    plan.seed = 5;
    plan.byzantine_fraction = 0.1;
    plan.weight_lie_factor = 8.0;
    const AdversaryState weight_only(g.graph, plan);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const double factor = weight_only.claim_factor(v, g.positions.point(0));
        if (weight_only.byzantine(v)) {
            EXPECT_EQ(factor, 8.0);  // pure weight lie: exact multiplicative
        } else {
            EXPECT_EQ(factor, 1.0);  // honest claims are bit-identical
        }
    }

    plan.position_lie_shift = 0.2;
    const AdversaryState shifted(g.graph, plan, {}, &g.positions, &g.params);
    std::vector<double> claimed(static_cast<std::size_t>(g.positions.dim));
    bool position_lie_seen = false;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        shifted.claimed_position(v, claimed.data());
        const double* honest = g.positions.point(v);
        if (!shifted.byzantine(v)) {
            for (int axis = 0; axis < g.positions.dim; ++axis) {
                EXPECT_EQ(claimed[static_cast<std::size_t>(axis)], honest[axis]);
            }
            EXPECT_EQ(shifted.claim_factor(v, g.positions.point(0)), 1.0);
            continue;
        }
        for (int axis = 0; axis < g.positions.dim; ++axis) {
            const double c = claimed[static_cast<std::size_t>(axis)];
            EXPECT_GE(c, 0.0);
            EXPECT_LT(c, 1.0);  // wrapped back onto the torus
            position_lie_seen = position_lie_seen || c != honest[axis];
        }
        EXPECT_NE(shifted.claim_factor(v, g.positions.point(0)), 1.0);
    }
    EXPECT_TRUE(position_lie_seen);
}

// -------------------------------------------------- hand-computed behavior

/// s -> b -> t chain with b the heaviest (and thus compromised) vertex.
struct BlackholeFixture {
    Girg girg;
    Vertex s, b, t;
    AdversaryPlan plan;
};

BlackholeFixture blackhole_fixture() {
    BlackholeFixture f;
    ScenarioBuilder builder;
    f.s = builder.vertex(0.0, 1.0);
    f.b = builder.vertex(0.25, 10.0);  // heaviest -> byzantine
    f.t = builder.vertex(0.5, 2.0);
    f.girg = builder.chain({f.s, f.b, f.t}).build();
    f.plan.byzantine_fraction = 0.34;  // k = 1 of n = 3
    f.plan.selection = AdversarySelection::kHighestWeight;
    f.plan.blackhole = true;
    return f;
}

TEST(AdversaryRouting, BlackholeSwallowsTransitTrafficInEveryExecutionModel) {
    const BlackholeFixture f = blackhole_fixture();
    const AdversaryState state(f.girg.graph, f.plan, f.girg.weights);
    ASSERT_TRUE(state.byzantine(f.b));
    const GirgObjective obj(f.girg, f.t);
    RoutingOptions options;
    options.adversary = &state;

    // Centralized greedy: the improving move onto b is made, then swallowed.
    const auto central = GreedyRouter{}.route(f.girg.graph, obj, f.s, options);
    EXPECT_EQ(central.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(central.path, (std::vector<Vertex>{f.s, f.b}));

    // Lockstep simulator: same walk, and the kill is an audit flag.
    RoutingOptions sim_options;
    sim_options.adversary = &state;
    const auto sim =
        simulate_routing(f.girg.graph, obj, DistributedGreedy{}, f.s, sim_options);
    EXPECT_EQ(sim.routing.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(sim.routing.path, central.path);
    EXPECT_EQ(sim.telemetry.audit_flags, 1u);
    EXPECT_EQ(sim.telemetry.misroutes_observed, 0u);
}

TEST(AdversaryRouting, ByzantineTargetStillDeliversOnArrival) {
    // Arrival is delivery: the blackhole lie never applies to the packet's
    // own destination, byzantine or not.
    ScenarioBuilder builder;
    const Vertex s = builder.vertex(0.0, 1.0);
    const Vertex t = builder.vertex(0.3, 10.0);  // heaviest -> byzantine
    const Girg g = builder.edge(s, t).build();
    AdversaryPlan plan;
    plan.byzantine_fraction = 0.5;
    plan.selection = AdversarySelection::kHighestWeight;
    plan.blackhole = true;
    const AdversaryState state(g.graph, plan, g.weights);
    ASSERT_TRUE(state.byzantine(t));
    const GirgObjective obj(g, t);
    RoutingOptions options;
    options.adversary = &state;
    EXPECT_TRUE(GreedyRouter{}.route(g.graph, obj, s, options).success());
    RoutingOptions sim_options;
    sim_options.adversary = &state;
    const auto sim = simulate_routing(g.graph, obj, DistributedGreedy{}, s, sim_options);
    EXPECT_TRUE(sim.routing.success());
    EXPECT_EQ(sim.telemetry.audit_flags, 0u);
}

TEST(AdversaryRouting, MisrouteForwardsToTheWorstNeighborAndIsObserved) {
    // s(0.4) -> b(0.2, heaviest, byzantine) whose worst neighbor by phi is
    // w(0.05); w's honest best neighbor is the target t(0.5). The misroute
    // detour is exactly one hop: s -> b -> w -> t.
    ScenarioBuilder builder;
    const Vertex s = builder.vertex(0.4, 1.0);
    const Vertex b = builder.vertex(0.2, 10.0);
    const Vertex t = builder.vertex(0.5, 2.0);
    const Vertex w = builder.vertex(0.05, 1.0);
    const Girg g =
        builder.edge(s, b).edge(b, t).edge(b, w).edge(w, t).build();
    AdversaryPlan plan;
    plan.byzantine_fraction = 0.25;  // k = 1 of n = 4
    plan.selection = AdversarySelection::kHighestWeight;
    plan.misroute = true;
    const AdversaryState state(g.graph, plan, g.weights);
    ASSERT_TRUE(state.byzantine(b));
    const GirgObjective obj(g, t);
    const std::vector<Vertex> expected{s, b, w, t};

    RoutingOptions options;
    options.adversary = &state;
    const auto central = GreedyRouter{}.route(g.graph, obj, s, options);
    EXPECT_EQ(central.status, RoutingStatus::kDelivered);
    EXPECT_EQ(central.path, expected);

    RoutingOptions sim_options;
    sim_options.adversary = &state;
    const auto sim = simulate_routing(g.graph, obj, DistributedGreedy{}, s, sim_options);
    EXPECT_EQ(sim.routing.status, RoutingStatus::kDelivered);
    EXPECT_EQ(sim.routing.path, expected);
    EXPECT_EQ(sim.telemetry.misroutes_observed, 1u);
    EXPECT_EQ(sim.telemetry.audit_flags, 0u);

    // The trace audit attributes exactly the hijacked hop to the adversary.
    TraceAuditOptions audit_options;
    audit_options.adversary = &state;
    const auto audit = audit_trace(g.graph, obj, sim.routing.path, audit_options);
    EXPECT_EQ(audit.misroute_moves, 1u);
    EXPECT_EQ(audit.phantom_moves, 0u);
    EXPECT_EQ(audit.objective_equivocations, 0u);  // no attribute lie told
}

/// Runs Φ-DFS from `s` under a misroute-only plan that compromises the
/// heaviest vertex, through the lockstep walk and through PhiDfsRouter.
DistributedResult misrouted_phi_dfs(const Girg& g, Vertex s, Vertex t, Vertex b) {
    AdversaryPlan plan;
    plan.byzantine_fraction = 1.0 / static_cast<double>(g.num_vertices());  // k = 1
    plan.selection = AdversarySelection::kHighestWeight;
    plan.misroute = true;
    const AdversaryState state(g.graph, plan, g.weights);
    EXPECT_TRUE(state.byzantine(b));
    const GirgObjective obj(g, t);
    RoutingOptions options;
    options.adversary = &state;
    const auto walked = simulate_routing(g.graph, obj, DistributedPhiDfs{}, s, options);
    const auto routed = PhiDfsRouter{}.route(g.graph, obj, s, options);
    EXPECT_EQ(routed.status, walked.routing.status);
    EXPECT_EQ(routed.path, walked.routing.path);
    EXPECT_EQ(walked.telemetry.illegal_forwards, 0u);
    EXPECT_EQ(walked.telemetry.locality_violations, 0u);
    return walked;
}

TEST(AdversaryRouting, MisroutedBacktrackArrivesAsAnExplorationFromTheHolder) {
    // phi: b 0.556 > v1 0.222 > s 0.2 > v2 0.029. b misroutes to its worst
    // neighbor v2 every time it holds the packet. Its first wake explores
    // toward t and is diverted to v2, which explores and returns to b; b
    // bounces back to v2, its own choice, so the bounce travels as sent.
    // v2 backtracks up to b, b's phi(b)-DFS fails, the paused phi(s)-DFS
    // finds nothing more at b, and b backtracks toward its parent s — the
    // hijack diverts that backtrack to v2, which receives it as an
    // exploration sent by b: v2 starts over in the phi(s)-DFS under parent
    // b, returns to b, gets bounced back, and this time finds its child v1.
    ScenarioBuilder builder;
    const Vertex b = builder.vertex(0.32, 10.0);
    const Vertex v1 = builder.vertex(0.59, 2.0);
    const Vertex v2 = builder.vertex(0.84, 1.0);
    const Vertex s = builder.vertex(0.7, 4.0);
    const Vertex t = builder.vertex(0.5, 4.0);
    const Girg g = builder.edge(b, v2).edge(b, s).edge(b, t).edge(v1, v2).edge(v1, s)
                       .edge(v1, t).build();
    const auto result = misrouted_phi_dfs(g, s, t, b);
    EXPECT_EQ(result.routing.status, RoutingStatus::kDelivered);
    EXPECT_EQ(result.routing.path,
              (std::vector<Vertex>{s, b, v2, b, v2, b, v2, b, v2, v1, t}));
    EXPECT_EQ(result.telemetry.misroutes_observed, 4u);
}

TEST(AdversaryRouting, HijackOntoTheStepsOwnChoiceTravelsAsSent) {
    // b is a leaf, so its hijack always picks s, the vertex its step chose.
    // b explores s, which bounces back; b then backtracks to s, and s must
    // receive that as a backtrack and go on to its next child a. Were it an
    // exploration, s would bounce it back to b forever.
    ScenarioBuilder builder;
    const Vertex s = builder.vertex(0.3, 1.0);
    const Vertex b = builder.vertex(0.1, 10.0);
    const Vertex a = builder.vertex(0.2, 2.0);
    const Vertex t = builder.vertex(0.5, 1.0);
    const Girg g = builder.edge(s, b).edge(s, a).edge(a, t).build();
    const auto result = misrouted_phi_dfs(g, s, t, b);
    EXPECT_EQ(result.routing.status, RoutingStatus::kDelivered);
    EXPECT_EQ(result.routing.path, (std::vector<Vertex>{s, b, s, b, s, a, t}));
    EXPECT_EQ(result.telemetry.misroutes_observed, 2u);
}

TEST(AdversaryRouting, InFlightLossBeatsTheBlackhole) {
    // FaultPlan::max_retries interaction: when every send toward the
    // blackhole is lost in flight, the packet dies on the wire — charged as
    // retries — and the blackhole never gets to swallow it (no audit flag).
    const BlackholeFixture f = blackhole_fixture();
    const AdversaryState adversary(f.girg.graph, f.plan, f.girg.weights);
    const GirgObjective obj(f.girg, f.t);
    FaultPlan loss;
    loss.message_loss_prob = 1.0;
    loss.max_retries = 2;
    const FaultState faults(f.girg.graph, loss);
    RoutingOptions options;
    options.faults = &faults;
    options.adversary = &adversary;
    const auto result =
        simulate_routing(f.girg.graph, obj, DistributedGreedy{}, f.s, options);
    EXPECT_EQ(result.routing.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.routing.steps(), 0u);
    EXPECT_EQ(result.routing.retries, 2u);
    EXPECT_EQ(result.telemetry.message_drops, 3u);
    EXPECT_EQ(result.telemetry.audit_flags, 0u);  // the blackhole never fired

    // With a reliable wire the same composition reaches b and is swallowed.
    FaultPlan reliable;  // inactive
    const FaultState no_faults(f.girg.graph, reliable);
    options.faults = &no_faults;
    const auto swallowed =
        simulate_routing(f.girg.graph, obj, DistributedGreedy{}, f.s, options);
    EXPECT_EQ(swallowed.routing.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(swallowed.routing.steps(), 1u);
    EXPECT_EQ(swallowed.telemetry.audit_flags, 1u);
}

/// A protocol that ignores its view and always forwards to a fixed vertex —
/// here used to walk straight into an advertised phantom link.
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

TEST(AdversaryRouting, PhantomForwardIsLegalAdvertisedAndThenSwallowed) {
    GirgParams params{.n = 500, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 504);
    AdversaryPlan plan;
    plan.seed = 9;
    plan.byzantine_fraction = 0.1;
    plan.phantom_neighbors = 2;
    const AdversaryState state(g.graph, plan);
    Vertex liar = kNoVertex;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (state.byzantine(v) && !state.phantoms(v).empty()) {
            liar = v;
            break;
        }
    }
    ASSERT_NE(liar, kNoVertex);
    const Vertex phantom = state.phantoms(liar).front();
    Vertex target = 0;
    while (target == liar || target == phantom) ++target;
    const GirgObjective obj(g, target);
    RoutingOptions options;
    options.adversary = &state;
    const auto result = simulate_routing(g.graph, obj, StubbornForwarder(phantom),
                                         liar, options);
    // The forward is legal (the phantom is advertised), so it is not an
    // illegal_forward; the packet is swallowed with the hop on the trace.
    EXPECT_EQ(result.routing.status, RoutingStatus::kDeadEnd);
    EXPECT_EQ(result.routing.path, (std::vector<Vertex>{liar, phantom}));
    EXPECT_EQ(result.telemetry.illegal_forwards, 0u);
    EXPECT_EQ(result.telemetry.messages_sent, 1u);
    EXPECT_EQ(result.telemetry.audit_flags, 1u);

    // The P-checker audit reconstructs the kill from the trace alone.
    TraceAuditOptions audit_options;
    audit_options.adversary = &state;
    const auto audit = audit_trace(g.graph, obj, result.routing.path, audit_options);
    EXPECT_EQ(audit.phantom_moves, 1u);
    EXPECT_GE(audit.phantom_advertisements, 1u);
    EXPECT_FALSE(audit.clean());
}

// ----------------------------------------------------------- trace auditing

TEST(AdversaryAudit, FlagsEveryInjectedEquivocationAndNoneOnHonestRuns) {
    GirgParams params{.n = 1000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 505);
    AdversaryPlan plan;
    plan.seed = 11;
    plan.byzantine_fraction = 0.1;
    plan.weight_lie_factor = 8.0;
    plan.phantom_neighbors = 2;
    const AdversaryState state(g.graph, plan);

    // 100% detection: every byzantine vertex placed on a trace is flagged
    // (it claims a distorted objective), and every phantom hop is flagged.
    TraceAuditOptions audit_options;
    audit_options.adversary = &state;
    std::size_t byzantine_audited = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (!state.byzantine(v)) continue;
        ++byzantine_audited;
        std::vector<Vertex> path{v};
        if (!state.phantoms(v).empty()) path.push_back(state.phantoms(v).front());
        const GirgObjective obj(g, v == 0 ? Vertex{1} : Vertex{0});
        const auto audit = audit_trace(g.graph, obj, path, audit_options);
        EXPECT_GE(audit.objective_equivocations, 1u) << "vertex " << v;
        if (path.size() == 2) {
            EXPECT_EQ(audit.phantom_moves, 1u) << "vertex " << v;
        }
        EXPECT_FALSE(audit.clean());
    }
    EXPECT_EQ(byzantine_audited, state.num_byzantine());

    // Zero false positives: honest traces audited with no adversary — and
    // with an *inactive* one — come back clean.
    AdversaryPlan inactive;
    inactive.byzantine_fraction = 0.1;  // victims but no lie: any() == false
    const AdversaryState inactive_state(g.graph, inactive);
    TraceAuditOptions inactive_options;
    inactive_options.adversary = &inactive_state;
    Rng rng(506);
    int audited = 0;
    while (audited < 10) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto route = PhiDfsRouter{}.route(g.graph, obj, s);
        if (route.path.size() < 2) continue;
        ++audited;
        EXPECT_TRUE(audit_trace(g.graph, obj, route.path).clean());
        EXPECT_TRUE(audit_trace(g.graph, obj, route.path, inactive_options).clean());
    }
}

// --------------------------------------------------- empty-plan byte identity

TEST(AdversaryRouting, InactivePlanIsByteIdenticalForAllRouters) {
    GirgParams params{.n = 2000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 311);
    // The strongest inactive case: vertices ARE compromised, but with no lie
    // enabled the plan is inert and every consumer must stay on its honest
    // code path.
    AdversaryPlan inert;
    inert.byzantine_fraction = 0.3;
    ASSERT_FALSE(inert.any());
    const AdversaryState state(g.graph, inert);
    ASSERT_GT(state.num_byzantine(), 0u);

    std::vector<std::unique_ptr<Router>> routers;
    routers.push_back(std::make_unique<GreedyRouter>());
    routers.push_back(std::make_unique<PhiDfsRouter>());
    routers.push_back(std::make_unique<GravityPressureRouter>());
    routers.push_back(std::make_unique<MessageHistoryRouter>());
    routers.push_back(std::make_unique<testing::PlannedRouter>(
        std::make_unique<GreedyRouter>(), testing::link_failure_plan(0.3, 17)));

    Rng rng(312);
    RoutingOptions under_plan_options;
    under_plan_options.adversary = &state;
    const DistributedPhiDfs protocol;
    for (int trial = 0; trial < 15; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        for (const auto& router : routers) {
            const auto base = router->route(g.graph, obj, s);
            const auto under_plan = router->route(g.graph, obj, s, under_plan_options);
            EXPECT_EQ(base.status, under_plan.status) << router->name();
            EXPECT_EQ(base.path, under_plan.path) << router->name();
            EXPECT_EQ(base.retries, under_plan.retries) << router->name();
        }
        const auto plain = simulate_routing(g.graph, obj, protocol, s);
        RoutingOptions sim_options;
        sim_options.adversary = &state;
        const auto under_plan = simulate_routing(g.graph, obj, protocol, s, sim_options);
        EXPECT_EQ(plain.routing.status, under_plan.routing.status);
        EXPECT_EQ(plain.routing.path, under_plan.routing.path);
        EXPECT_EQ(plain.telemetry.wakes, under_plan.telemetry.wakes);
        EXPECT_EQ(under_plan.telemetry.audit_flags, 0u);
        EXPECT_EQ(under_plan.telemetry.misroutes_observed, 0u);
    }
}

// ----------------------------------------------------- frozen-reference guard

// Trace fingerprints captured at the pre-adversary commit (the seed of this
// change): greedy, phi-DFS, the lockstep simulator, and the trial pipeline at
// 1/2/8 threads over a fixed GIRG. The adversary subsystem must leave every
// honest run byte-identical, so these constants must never move. If a change
// legitimately alters honest routing behavior, recapture them in the same
// scenario — but that is a routing change, not an adversary change.
constexpr std::uint64_t kFrozenGreedy = 0x4579b8a66146bfc6ULL;
constexpr std::uint64_t kFrozenPhiDfs = 0x2c861abcbcdc2aaaULL;
constexpr std::uint64_t kFrozenLockstep = 0x64fa50787e62d8d5ULL;
constexpr std::uint64_t kFrozenTrials = 0x2dee8c86b431c968ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xffU;
        h *= 1099511628211ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fold_route(std::uint64_t h, const RoutingResult& r) {
    h = fnv1a(h, static_cast<std::uint64_t>(r.status));
    h = fnv1a(h, r.path.size());
    for (const Vertex v : r.path) h = fnv1a(h, v);
    return fnv1a(h, r.retries);
}

TEST(AdversaryFrozenReference, HonestTracesReplayTheSeedCommitBitForBit) {
    GirgParams params{.n = 2000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 777);

    // Routed twice per trial: once with no options (the pre-change call
    // shape) and once under an inactive AdversaryState — both must reproduce
    // the frozen fingerprint.
    AdversaryPlan inert;
    inert.byzantine_fraction = 0.2;
    ASSERT_FALSE(inert.any());
    const AdversaryState state(g.graph, inert);
    RoutingOptions inert_options;
    inert_options.adversary = &state;
    RoutingOptions inert_sim;
    inert_sim.adversary = &state;

    const GreedyRouter greedy;
    const PhiDfsRouter phi_dfs;
    const DistributedGreedy dist_greedy;
    const DistributedPhiDfs dist_phi_dfs;

    std::uint64_t h_greedy = kFnvBasis;
    std::uint64_t h_greedy_inert = kFnvBasis;
    std::uint64_t h_phi_dfs = kFnvBasis;
    std::uint64_t h_phi_dfs_inert = kFnvBasis;
    std::uint64_t h_lockstep = kFnvBasis;
    std::uint64_t h_lockstep_inert = kFnvBasis;
    Rng rng(778);
    for (int trial = 0; trial < 40; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        h_greedy = fold_route(h_greedy, greedy.route(g.graph, obj, s));
        h_greedy_inert =
            fold_route(h_greedy_inert, greedy.route(g.graph, obj, s, inert_options));
        h_phi_dfs = fold_route(h_phi_dfs, phi_dfs.route(g.graph, obj, s));
        h_phi_dfs_inert =
            fold_route(h_phi_dfs_inert, phi_dfs.route(g.graph, obj, s, inert_options));
        for (const DistributedProtocol* protocol :
             {static_cast<const DistributedProtocol*>(&dist_greedy),
              static_cast<const DistributedProtocol*>(&dist_phi_dfs)}) {
            const auto plain = simulate_routing(g.graph, obj, *protocol, s);
            h_lockstep = fold_route(h_lockstep, plain.routing);
            h_lockstep = fnv1a(h_lockstep, plain.telemetry.wakes);
            h_lockstep = fnv1a(h_lockstep, plain.telemetry.messages_sent);
            const auto inert_run = simulate_routing(g.graph, obj, *protocol, s, inert_sim);
            h_lockstep_inert = fold_route(h_lockstep_inert, inert_run.routing);
            h_lockstep_inert = fnv1a(h_lockstep_inert, inert_run.telemetry.wakes);
            h_lockstep_inert = fnv1a(h_lockstep_inert, inert_run.telemetry.messages_sent);
        }
    }
    EXPECT_EQ(h_greedy, kFrozenGreedy);
    EXPECT_EQ(h_greedy_inert, kFrozenGreedy);
    EXPECT_EQ(h_phi_dfs, kFrozenPhiDfs);
    EXPECT_EQ(h_phi_dfs_inert, kFrozenPhiDfs);
    EXPECT_EQ(h_lockstep, kFrozenLockstep);
    EXPECT_EQ(h_lockstep_inert, kFrozenLockstep);
}

TEST(AdversaryFrozenReference, TrialPipelineReplaysTheSeedCommitAtEveryThreadCount) {
    GirgParams params{.n = 2000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 777);
    const GreedyRouter greedy;
    const PhiDfsRouter phi_dfs;
    for (const unsigned threads : {1U, 2U, 8U}) {
        TrialConfig config;
        config.targets = 4;
        config.sources_per_target = 32;
        config.threads = threads;
        // An inactive adversary plan rides along: byte identity includes the
        // runner's dispatch, not just the routers.
        config.adversary.byzantine_fraction = 0.2;
        ASSERT_FALSE(config.adversary.any());
        std::uint64_t h = kFnvBasis;
        for (const Router* router : {static_cast<const Router*>(&greedy),
                                     static_cast<const Router*>(&phi_dfs)}) {
            const TrialStats stats =
                run_girg_trials(g, *router, girg_objective_factory(), config, 779);
            h = fnv1a(h, stats.attempts);
            h = fnv1a(h, stats.delivered);
            h = fnv1a(h, stats.dead_end);
            h = fnv1a(h, stats.exhausted);
            h = fnv1a(h, stats.step_limit);
            h = fnv1a(h, stats.retries);
            h = fnv1a(h, stats.hops.count());
        }
        EXPECT_EQ(h, kFrozenTrials) << "threads=" << threads;
    }
}

// --------------------------------------------- trial runner & thread identity

TEST(AdversaryTrials, ResultsAreIdenticalAcrossThreadCountsAndComposeWithFaults) {
    GirgParams params{.n = 2000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 507);

    TrialConfig config;
    config.targets = 4;
    config.sources_per_target = 32;
    config.adversary.seed = 13;
    config.adversary.byzantine_fraction = 0.1;
    config.adversary.selection = AdversarySelection::kHighestLayer;
    config.adversary.weight_lie_factor = 8.0;
    config.adversary.phantom_neighbors = 2;
    config.adversary.blackhole = true;
    config.faults.seed = 14;
    config.faults.link_failure_prob = 0.1;
    ASSERT_TRUE(config.adversary.any());
    ASSERT_TRUE(config.faults.any());

    const GreedyRouter router;
    const auto factory = girg_objective_factory();
    TrialStats reference;
    bool have_reference = false;
    for (const unsigned threads : {1u, 2u, 8u}) {
        config.threads = threads;
        const TrialStats stats = run_girg_trials(g, router, factory, config, 508);
        if (!have_reference) {
            reference = stats;
            have_reference = true;
            EXPECT_GT(stats.attempts, 0u);
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
    }
}

TEST(AdversaryTrials, InflatedBlackholesAreAttractionSinksForGreedy) {
    // The graceful-degradation claim in one number: a small byzantine
    // fraction that inflates its claimed weight and blackholes the traffic
    // it attracts must cost greedy real deliveries.
    GirgParams params{.n = 2000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 509);
    TrialConfig config;
    config.targets = 6;
    config.sources_per_target = 48;
    const GreedyRouter router;
    const auto factory = girg_objective_factory();
    const TrialStats honest = run_girg_trials(g, router, factory, config, 510);
    config.adversary.seed = 15;
    config.adversary.byzantine_fraction = 0.1;
    config.adversary.selection = AdversarySelection::kHighestWeight;
    config.adversary.weight_lie_factor = 8.0;
    config.adversary.blackhole = true;
    const TrialStats attacked = run_girg_trials(g, router, factory, config, 510);
    EXPECT_EQ(honest.attempts, attacked.attempts);
    EXPECT_LT(attacked.delivered, honest.delivered);
    EXPECT_GT(attacked.dead_end, honest.dead_end);
}

// ------------------------------------------------------------- serving layer

TEST(AdversaryServing, SingleQueryReplaysTheLockstepWalkUnderAnActiveAdversary) {
    GirgParams params{.n = 1000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 511);
    AdversaryPlan plan;
    plan.seed = 17;
    plan.byzantine_fraction = 0.1;
    plan.weight_lie_factor = 4.0;
    plan.phantom_neighbors = 2;
    plan.blackhole = true;
    const AdversaryState state(g.graph, plan);
    const DistributedGreedy protocol;
    const TargetObjectiveFactory factory = [&g](Vertex target) {
        return std::make_unique<GirgObjective>(g, target);
    };
    Rng rng(512);
    int compared = 0;
    while (compared < 10) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        ++compared;
        const GirgObjective obj(g, t);
        RoutingOptions lockstep_options;
        lockstep_options.adversary = &state;
        const auto lockstep =
            simulate_routing(g.graph, obj, protocol, s, lockstep_options);
        ServingOptions serving_options;
        serving_options.routing.adversary = &state;
        const ServingQuery query{s, t, 0};
        const auto batch =
            simulate_many(g.graph, factory, protocol, {&query, 1}, serving_options);
        ASSERT_EQ(batch.queries.size(), 1u);
        const auto& served = batch.queries.front();
        EXPECT_EQ(served.routing.status, lockstep.routing.status);
        EXPECT_EQ(served.routing.path, lockstep.routing.path);
        EXPECT_EQ(served.telemetry.audit_flags, lockstep.telemetry.audit_flags);
        EXPECT_EQ(served.telemetry.misroutes_observed,
                  lockstep.telemetry.misroutes_observed);
    }
}

}  // namespace
}  // namespace smallworld
