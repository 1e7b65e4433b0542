#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/greedy.h"
#include "core/phi_dfs.h"
#include "core/walk.h"
#include "distributed/protocols.h"
#include "girg/generator.h"
#include "graph/components.h"
#include "oracles.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

using testing::ScenarioBuilder;

GirgParams dist_params(double wmin) {
    GirgParams p;
    p.n = 6000;
    p.dim = 2;
    p.alpha = 2.0;
    p.beta = 2.5;
    p.wmin = wmin;
    p.edge_scale = calibrated_edge_scale(p);
    return p;
}

// ------------------------------------------------------------ simulator

TEST(Simulator, DeliversAtSource) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Girg g = b.build();
    const GirgObjective obj(g, s);
    const DistributedGreedy protocol;
    const auto result = simulate_routing(g.graph, obj, protocol, s);
    EXPECT_TRUE(result.routing.success());
    EXPECT_EQ(result.telemetry.wakes, 1u);
    EXPECT_EQ(result.telemetry.messages_sent, 0u);
}

TEST(Simulator, CountsWakesAndMessages) {
    ScenarioBuilder b;
    const Vertex v0 = b.vertex(0.0);
    const Vertex v1 = b.vertex(0.2);
    const Vertex t = b.vertex(0.4);
    const Girg g = b.chain({v0, v1, t}).build();
    const GirgObjective obj(g, t);
    const DistributedGreedy protocol;
    const auto result = simulate_routing(g.graph, obj, protocol, v0);
    ASSERT_TRUE(result.routing.success());
    EXPECT_EQ(result.telemetry.messages_sent, 2u);
    // One wake per visited node: exactly one node awake at a time.
    EXPECT_EQ(result.telemetry.wakes, 3u);
    EXPECT_EQ(result.telemetry.locality_violations, 0u);
    EXPECT_EQ(result.telemetry.illegal_forwards, 0u);
}

namespace {
/// A deliberately broken protocol that tries to teleport to the target.
class TeleportProtocol final : public DistributedProtocol {
public:
    [[nodiscard]] Action on_wake(const LocalView& view, ProtocolMessage& message,
                                 NodeSlot&) const override {
        if (view.self() == message.target) return Action::deliver();
        return Action::forward(message.target);
    }
    [[nodiscard]] std::string name() const override { return "teleport"; }
};

/// A protocol that peeks at the target's objective from afar.
class PeekingProtocol final : public DistributedProtocol {
public:
    [[nodiscard]] Action on_wake(const LocalView& view, ProtocolMessage& message,
                                 NodeSlot&) const override {
        if (view.self() == message.target) return Action::deliver();
        (void)view.phi(message.target);  // non-local evaluation
        return Action::drop();
    }
    [[nodiscard]] std::string name() const override { return "peeking"; }
};
}  // namespace

TEST(Simulator, RefusesNonNeighborForwards) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex mid = b.vertex(0.2);
    const Vertex t = b.vertex(0.4);
    const Girg g = b.chain({s, mid, t}).build();
    const GirgObjective obj(g, t);
    const TeleportProtocol protocol;
    const auto result = simulate_routing(g.graph, obj, protocol, s);
    EXPECT_FALSE(result.routing.success());
    EXPECT_EQ(result.telemetry.illegal_forwards, 1u);
}

TEST(Simulator, DetectsLocalityViolations) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex mid = b.vertex(0.2);
    const Vertex t = b.vertex(0.4);
    const Girg g = b.chain({s, mid, t}).build();
    const GirgObjective obj(g, t);
    const PeekingProtocol protocol;
    const auto result = simulate_routing(g.graph, obj, protocol, s);
    EXPECT_EQ(result.telemetry.locality_violations, 1u);
}

// ------------------------------------- equivalence with centralized code

TEST(DistributedGreedyTest, PathsMatchCentralizedRouter) {
    const Girg g = generate_girg(dist_params(2.0), 31);
    Rng rng(32);
    const GreedyRouter centralized;
    const DistributedGreedy distributed;
    for (int trial = 0; trial < 120; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto a = centralized.route(g.graph, obj, s);
        const auto b = simulate_routing(g.graph, obj, distributed, s);
        EXPECT_EQ(a.status, b.routing.status);
        EXPECT_EQ(a.path, b.routing.path);
        EXPECT_EQ(b.telemetry.locality_violations, 0u);
    }
}

TEST(DistributedPhiDfsTest, PathsMatchCentralizedRouter) {
    // The strongest check in this suite: the message-passing Phi-DFS must
    // take the *identical* walk as the oracle written from Algorithm 2
    // (tests/oracles.*), including all backtracking,
    // on sparse graphs with many dead ends — honestly, and under crashes,
    // link outages, edge removals, message loss and misrouting,
    // phantom-advertising liars.
    const Girg g = generate_girg(dist_params(1.0), 33);
    FaultPlan fault_plan;
    fault_plan.seed = 35;
    fault_plan.crash_fraction = 0.05;
    fault_plan.link_failure_prob = 0.1;
    fault_plan.edge_removal_prob = 0.05;
    fault_plan.message_loss_prob = 0.05;
    const FaultState faults(g.graph, fault_plan);
    AdversaryPlan adversary_plan;
    adversary_plan.seed = 36;
    adversary_plan.byzantine_fraction = 0.05;
    adversary_plan.weight_lie_factor = 4.0;
    adversary_plan.phantom_neighbors = 2;
    adversary_plan.misroute = true;
    const AdversaryState adversary(g.graph, adversary_plan);
    RoutingOptions honest;
    honest.max_steps = 300 * g.num_vertices();
    // A misrouting liar can trap the DFS until its budget runs out.
    RoutingOptions hostile;
    hostile.max_steps = 4000;
    hostile.faults = &faults;
    hostile.adversary = &adversary;

    Rng rng(34);
    const reference::PhiDfsRouter oracle;
    const DistributedPhiDfs distributed;
    for (int trial = 0; trial < 120; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        for (const RoutingOptions* options : {&honest, &hostile}) {
            const auto a = oracle.route(g.graph, obj, s, *options);
            const auto b = simulate_routing(g.graph, obj, distributed, s, *options);
            ASSERT_EQ(a.status, b.routing.status) << "s=" << s << " t=" << t;
            ASSERT_EQ(a.path, b.routing.path) << "s=" << s << " t=" << t;
            ASSERT_EQ(a.retries, b.routing.retries) << "s=" << s << " t=" << t;
            EXPECT_EQ(b.telemetry.locality_violations, 0u);
            EXPECT_EQ(b.telemetry.illegal_forwards, 0u);
        }
    }
}

TEST(DistributedPhiDfsTest, MisroutingLiarsNeverForceAnIllegalForward) {
    // The walk's misroute rule on a 2^14 GIRG: a misrouting holder runs its
    // step, and a hijack elsewhere arrives as an exploration it sent. With
    // 5% and 15% of the vertices misrouting, no route forwards to a
    // non-neighbor, and every route equals the oracle's.
    GirgParams params;
    params.n = 1 << 14;
    params.dim = 2;
    params.alpha = 2.0;
    params.beta = 2.5;
    params.wmin = 2.0;
    params.edge_scale = calibrated_edge_scale(params);
    const Girg g = generate_girg(params, 41);
    Rng rng(42);
    std::vector<std::pair<Vertex, Vertex>> pairs;
    while (pairs.size() < 800) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s != t) pairs.emplace_back(s, t);
    }
    const reference::PhiDfsRouter oracle;
    const DistributedPhiDfs distributed;
    for (const double fraction : {0.05, 0.15}) {
        AdversaryPlan plan;
        plan.seed = 43;
        plan.byzantine_fraction = fraction;
        plan.misroute = true;
        const AdversaryState state(g.graph, plan);
        RoutingOptions options;
        options.adversary = &state;
        options.max_steps = 4000;
        std::size_t illegal = 0;
        std::size_t misrouted = 0;
        for (const auto& [s, t] : pairs) {
            const GirgObjective obj(g, t);
            const auto walked = simulate_routing(g.graph, obj, distributed, s, options);
            const auto expected = oracle.route(g.graph, obj, s, options);
            ASSERT_EQ(expected.status, walked.routing.status) << "s=" << s << " t=" << t;
            ASSERT_EQ(expected.path, walked.routing.path) << "s=" << s << " t=" << t;
            illegal += walked.telemetry.illegal_forwards;
            if (walked.telemetry.misroutes_observed != 0) ++misrouted;
        }
        EXPECT_EQ(illegal, 0u) << "fraction " << fraction;
        EXPECT_GT(misrouted, 0u) << "fraction " << fraction;
    }
}

TEST(DistributedPhiDfsTest, DeliversEverywhereInGiant) {
    const Girg g = generate_girg(dist_params(1.5), 35);
    const auto comps = connected_components(g.graph);
    const auto giant = giant_component_vertices(comps);
    Rng rng(36);
    const DistributedPhiDfs distributed;
    RoutingOptions options;
    options.max_steps = 300 * g.num_vertices();
    for (int trial = 0; trial < 40; ++trial) {
        const Vertex s = giant[rng.uniform_index(giant.size())];
        const Vertex t = giant[rng.uniform_index(giant.size())];
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto result = simulate_routing(g.graph, obj, distributed, s, options);
        EXPECT_TRUE(result.routing.success());
    }
}

// ------------------------------------------------- paper's resource claims

TEST(DistributedPhiDfsTest, ConstantMemoryFootprint) {
    // Per-node memory is a fixed-size slot by construction; check the
    // simulator only materializes slots for visited nodes, i.e. the
    // protocol never writes state anywhere the message has not been.
    const Girg g = generate_girg(dist_params(1.0), 37);
    Rng rng(38);
    const DistributedPhiDfs distributed;
    RoutingOptions options;
    options.max_steps = 300 * g.num_vertices();
    for (int trial = 0; trial < 30; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        const auto result = simulate_routing(g.graph, obj, distributed, s, options);
        EXPECT_LE(result.telemetry.slots_touched, result.routing.distinct_vertices());
        // Energy accounting: wakes = moves + 1 (one node awake per step).
        EXPECT_EQ(result.telemetry.wakes, result.routing.steps() + 1);
    }
}

TEST(MessageAndSlotSizes, AreCompileTimeConstant) {
    // The paper's "constant number of pointers and objective values": the
    // payload/slot types are fixed-size PODs — no growing containers.
    static_assert(std::is_trivially_copyable_v<ProtocolMessage>);
    static_assert(std::is_trivially_copyable_v<NodeSlot>);
    EXPECT_LE(sizeof(ProtocolMessage), 48u);
    EXPECT_LE(sizeof(NodeSlot), 32u);
}

}  // namespace
}  // namespace smallworld
