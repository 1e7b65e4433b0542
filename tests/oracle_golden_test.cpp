// Golden tables for the oracles of tests/oracles.h: for hand-built graphs,
// the status and path each oracle must take from a source to a target,
// derived by hand from the paper's pseudocode, so the oracles answer to the
// paper and not to the code they check. On these graphs (no faults) the
// walk's greedy takes the greedy router's path, so a one-query serving run
// of each protocol is pinned by the same rows.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/adversary.h"
#include "core/objective.h"
#include "oracles.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

using testing::ScenarioBuilder;

struct Key {
    std::string_view graph;
    Vertex source;
    Vertex target;
    auto operator<=>(const Key&) const = default;
};

struct Row {
    RoutingStatus status;
    std::vector<Vertex> path;
};

/// One row per oracle: greedy, Φ-DFS, gravity-pressure, message-history.
struct Rows {
    Row greedy;
    Row phi_dfs;
    Row gravity;
    Row history;
};

constexpr auto kDelivered = RoutingStatus::kDelivered;
constexpr auto kDeadEnd = RoutingStatus::kDeadEnd;
constexpr auto kExhausted = RoutingStatus::kExhausted;
constexpr auto kStepLimit = RoutingStatus::kStepLimit;

/// A graph, the adversary it runs under (misroute-only, the heaviest vertex
/// byzantine, when `misroute`), and its step budget.
struct Scenario {
    Girg girg;
    bool misroute = false;
    std::size_t max_steps = 0;
};

// On every graph φ(v) = w_v / (wmin n |x_v - x_t|) with n = 100, wmin = 1,
// d = 1 (ScenarioBuilder); the comments give φ toward the target.
std::map<std::string_view, Scenario> scenarios() {
    std::map<std::string_view, Scenario> out;
    {
        // A greedy local optimum: s (0.1) beats its one neighbor a (0.033);
        // the target is behind a (0.033), b (0.025) and c (0.05).
        ScenarioBuilder builder;
        const Vertex s = builder.vertex(0.4);
        const Vertex a = builder.vertex(0.2);
        const Vertex b = builder.vertex(0.9);
        const Vertex c = builder.vertex(0.7);
        const Vertex t = builder.vertex(0.5);
        out["local_optimum"] = {builder.chain({s, a, b, c, t}).build(), false, 0};
    }
    {
        // A star: the center c (0.06) sits between leaves s (0.2),
        // l1 (0.3), l2 (0.05) and t.
        ScenarioBuilder builder;
        const Vertex c = builder.vertex(0.0, 3.0);
        const Vertex s = builder.vertex(0.45);
        const Vertex l1 = builder.vertex(0.6, 3.0);
        const Vertex l2 = builder.vertex(0.3);
        const Vertex t = builder.vertex(0.5);
        builder.edge(c, s).edge(c, l1).edge(c, l2).edge(c, t);
        out["star"] = {builder.build(), false, 0};
    }
    {
        // adversary_test's misrouted backtrack: b (0.556) > v1 (0.222) >
        // s (0.2) > v2 (0.029); b misroutes to its worst neighbor v2.
        ScenarioBuilder builder;
        const Vertex b = builder.vertex(0.32, 10.0);
        const Vertex v1 = builder.vertex(0.59, 2.0);
        const Vertex v2 = builder.vertex(0.84, 1.0);
        const Vertex s = builder.vertex(0.7, 4.0);
        const Vertex t = builder.vertex(0.5, 4.0);
        builder.edge(b, v2).edge(b, s).edge(b, t).edge(v1, v2).edge(v1, s).edge(v1, t);
        out["misroute_backtrack"] = {builder.build(), true, 12};
    }
    {
        // adversary_test's hijack onto the step's own choice: b (0.25) is a
        // leaf off s (0.05), which also reaches t through a (0.067).
        ScenarioBuilder builder;
        const Vertex s = builder.vertex(0.3, 1.0);
        const Vertex b = builder.vertex(0.1, 10.0);
        const Vertex a = builder.vertex(0.2, 2.0);
        const Vertex t = builder.vertex(0.5, 1.0);
        out["misroute_leaf"] = {builder.edge(s, b).edge(s, a).edge(a, t).build(), true, 12};
    }
    {
        // An unreachable target: s (0.1) has two leaves, a (0.2) above it
        // and b (0.033) below it; t is isolated.
        ScenarioBuilder builder;
        const Vertex s = builder.vertex(0.4);
        const Vertex a = builder.vertex(0.45);
        const Vertex b = builder.vertex(0.2);
        (void)builder.vertex(0.5);
        out["unreachable"] = {builder.edge(s, a).edge(s, b).build(), false, 13};
    }
    return out;
}

/// s, then (b, v2) six times: a liar's loop that spends the budget of 12.
const std::vector<Vertex> kLiarLoop{3, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2};

const std::map<Key, Rows> kGolden = {
    // Greedy: s is a local optimum. Φ-DFS (line numbers of Algorithm 2):
    // s sets m.Φ aside (line 11, a < s) and goes to a (line 15); a's best
    // is s (line 15), which bounces (line 9); a backtracks into b (line 19),
    // b goes to c and c to t (line 15). Gravity-pressure: no improving
    // neighbor at s, so pressure walks to the least-visited neighbor at
    // each step until t beats s. Message-history: s's only edge leads to a,
    // (P1) sends a back to s, then the best frontier edge a-b is reached by
    // walking back to a.
    {{"local_optimum", 0, 4},
     {{kDeadEnd, {0}},
      {kDelivered, {0, 1, 0, 1, 2, 3, 4}},
      {kDelivered, {0, 1, 2, 3, 4}},
      {kDelivered, {0, 1, 0, 1, 2, 3, 4}}}},
    // s beats the center: greedy drops. Φ-DFS from s explores c (line 15,
    // no φ(s)-DFS since c < s), and c's best is t. Pressure at s goes to c,
    // whose least-visited neighbors tie at 0 and t has the largest φ.
    {{"star", 1, 4},
     {{kDeadEnd, {1}},
      {kDelivered, {1, 0, 4}},
      {kDelivered, {1, 0, 4}},
      {kDelivered, {1, 0, 4}}}},
    // l2 is worse than c, so every protocol takes l2, c, t (Φ-DFS starts a
    // φ(l2)-DFS at l2 and a φ(c)-DFS at c on the way, lines 30-35).
    {{"star", 3, 4},
     {{kDelivered, {3, 0, 4}},
      {kDelivered, {3, 0, 4}},
      {kDelivered, {3, 0, 4}},
      {kDelivered, {3, 0, 4}}}},
    // Greedy and gravity-pressure climb from v2 to b, and b sends every
    // packet back to v2. Message-history: b diverts its (P1) move and then
    // its frontier edge to t, both to v2; the best live edges are then s-v1
    // and v2-v1, tied in value and `to`, so the smaller `from`, v2, which
    // holds the packet, goes first, and v1's best is t. Φ-DFS:
    // b's step toward t is diverted to v2 (an exploration from b); v2
    // explores b, which bounces (line 9) back to v2 as sent; v2 backtracks
    // to b (line 29); b's φ(b)-DFS fails and the paused φ(s)-DFS resumes
    // (lines 24-27) and fails too, so b backtracks toward s (line 29), which
    // is diverted to v2 as an exploration; v2 explores b again, b bounces,
    // and v2's backtrack scan now finds v1 (line 19), whose best is t.
    {{"misroute_backtrack", 3, 4},
     {{kStepLimit, kLiarLoop},
      {kDelivered, {3, 0, 2, 0, 2, 0, 2, 0, 2, 1, 4}},
      {kStepLimit, kLiarLoop},
      {kDelivered, {3, 0, 2, 0, 2, 1, 4}}}},
    // b's only neighbor is s, so every hijack sends the packet back to s.
    // Greedy and gravity-pressure bounce between s and b. Message-history:
    // b's edge back to s is dead, so the best live edge s-a is taken after
    // the walk back to s, which the hijack cannot divert. Φ-DFS: s starts a
    // φ(s)-DFS (line 11) and explores b; b's best, s, reaches m.Φ (line 15)
    // and s bounces (line 9); b backtracks to s (line 29), and s's scan
    // below b finds a (line 19).
    {{"misroute_leaf", 0, 3},
     {{kStepLimit, {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}},
      {kDelivered, {0, 1, 0, 1, 0, 2, 3}},
      {kStepLimit, {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}},
      {kDelivered, {0, 1, 0, 2, 3}}}},
    // Greedy stops at a. Φ-DFS: s starts a φ(s)-DFS (line 11) and explores
    // a (line 15); a's best, s, reaches m.Φ and s bounces (line 9); a
    // backtracks (line 29) and s finds no child in [φ(s), φ(a)) (line 19).
    // The φ(s)-DFS has failed, and the paused DFS (m.Φ = -inf) resumes at s
    // (lines 24-27), rescanning s's children: a again (visited in the
    // φ(s)-DFS, so unvisited now), which sends the message back and gets
    // it bounced, then b below a, the same way. With nothing below b, s is
    // back at the source: exhausted after 12 moves. A literal reading of
    // lines 26-27 would stop at the resume and never visit b. Gravity-
    // pressure alternates a and b by visit count until the budget of 13
    // runs out. Message-history reaches b over the walk back through s, and
    // b's only edge leads back to s, so the frontier runs dry.
    {{"unreachable", 0, 3},
     {{kDeadEnd, {0, 1}},
      {kExhausted, {0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0}},
      {kStepLimit, {0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1}},
      {kExhausted, {0, 1, 0, 2, 0}}}},
};

void expect_row(const Row& row, const RoutingResult& result, const std::string& where) {
    EXPECT_EQ(result.status, row.status) << where;
    EXPECT_EQ(result.path, row.path) << where;
    EXPECT_EQ(result.retries, 0u) << where;
}

TEST(OracleGolden, RoutersTakeThePathsDerivedFromThePaper) {
    const auto graphs = scenarios();
    for (const auto& [key, rows] : kGolden) {
        const Scenario& scenario = graphs.at(key.graph);
        const Girg& girg = scenario.girg;
        AdversaryPlan plan;
        plan.byzantine_fraction = 1.0 / static_cast<double>(girg.num_vertices());
        plan.selection = AdversarySelection::kHighestWeight;
        plan.misroute = true;
        const AdversaryState liars(girg.graph, plan, girg.weights);
        RoutingOptions options;
        options.max_steps = scenario.max_steps;
        if (scenario.misroute) options.adversary = &liars;
        const GirgObjective objective(girg, key.target);
        const std::string where = std::string(key.graph) + " " + std::to_string(key.source) +
                                  " -> " + std::to_string(key.target) + ": ";
        const auto route = [&](const Router& router) {
            return router.route(girg.graph, objective, key.source, options);
        };
        expect_row(rows.greedy, route(reference::GreedyRouter{}), where + "greedy");
        expect_row(rows.phi_dfs, route(reference::PhiDfsRouter{}), where + "phi-dfs");
        expect_row(rows.gravity, route(reference::GravityPressureRouter{}), where + "gravity");
        expect_row(rows.history, route(reference::MessageHistoryRouter{}), where + "history");

        // One query, served: the walk's greedy and Φ-DFS steps.
        ServingOptions serving;
        serving.routing = options;
        const ServingQuery query{key.source, key.target, 0};
        const TargetObjectiveFactory factory = [&girg](Vertex target) {
            return std::make_unique<GirgObjective>(girg, target);
        };
        for (const auto& [protocol, row, name] :
             {std::tuple{reference::Protocol::kGreedy, &rows.greedy, "served greedy"},
              std::tuple{reference::Protocol::kPhiDfs, &rows.phi_dfs, "served phi-dfs"}}) {
            const ServingResult served =
                reference::simulate_many(girg.graph, factory, protocol, {&query, 1}, serving);
            expect_row(*row, served.queries.at(0).routing, where + name);
        }
    }
}

}  // namespace
}  // namespace smallworld
