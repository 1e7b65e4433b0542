// Routing under churn — the dynamic-network setting of Cvetkovski &
// Crovella [23] and Papadopoulos et al. [61], and the robustness discussion
// around Theorem 3.5: greedy forwarding needs no recomputation when links
// fail, because the current holder simply picks the best *surviving*
// neighbor.
//
// Two failure models on one GIRG:
//  * transient: every link is independently down with probability p at
//    each hop (interface resets, congestion) — GreedyRouter under a
//    FaultPlan;
//  * permanent: a fraction of links is deleted outright (fiber cuts) and
//    the protocols run on the degraded topology.
//
//   ./dynamic_network [n] [seed]
#include <cstdlib>
#include <iostream>

#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/phi_dfs.h"
#include "experiments/runner.h"
#include "experiments/table.h"
#include "girg/generator.h"

using namespace smallworld;

namespace {

Girg drop_edges(const Girg& girg, double fraction, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Edge> kept;
    for (Vertex v = 0; v < girg.num_vertices(); ++v) {
        for (const Vertex u : girg.graph.neighbors(v)) {
            if (v < u && !rng.bernoulli(fraction)) kept.emplace_back(v, u);
        }
    }
    Girg degraded = girg;
    degraded.graph = Graph(girg.num_vertices(), kept);
    return degraded;
}

}  // namespace

int main(int argc, char** argv) {
    GirgParams params;
    params.n = argc > 1 ? std::atof(argv[1]) : 50000.0;
    params.dim = 2;
    params.beta = 2.5;
    params.alpha = 2.0;
    params.wmin = 3.0;
    params.edge_scale = calibrated_edge_scale(params);
    const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 99;

    const Girg girg = generate_girg(params, seed);
    std::cout << "Network: " << girg.num_vertices() << " nodes, "
              << girg.graph.num_edges() << " links\n\n";

    TrialConfig config;
    config.targets = 16;
    config.sources_per_target = 32;
    config.restrict_to_giant = true;

    // ---- transient link failures ----------------------------------------
    Table transient({"per-hop link failure", "delivery", "mean hops"});
    for (const double p : {0.0, 0.1, 0.3, 0.5}) {
        TrialConfig faulted = config;
        faulted.faults.seed = seed + 7;
        faulted.faults.link_failure_prob = p;
        const auto stats = run_girg_trials(girg, GreedyRouter{}, girg_objective_factory(),
                                           faulted, seed + 1);
        transient.add_row().cell(p, 2).cell(stats.success_rate(), 4).cell(
            stats.hops.mean(), 2);
    }
    transient.print(std::cout, "Transient failures (greedy reroutes via the best "
                               "surviving neighbor):");

    // ---- permanent link failures ----------------------------------------
    std::cout << "\n";
    Table permanent(
        {"links cut", "protocol", "delivery (same component)", "mean steps"});
    const GreedyRouter greedy;
    const PhiDfsRouter phi_dfs;
    const GravityPressureRouter gravity_pressure;
    for (const double cut : {0.0, 0.2, 0.4}) {
        const Girg degraded = drop_edges(girg, cut, seed + 11);
        for (const Router* router :
             {static_cast<const Router*>(&greedy),
              static_cast<const Router*>(&phi_dfs),
              static_cast<const Router*>(&gravity_pressure)}) {
            const auto stats = run_girg_trials(degraded, *router,
                                               girg_objective_factory(), config, seed + 2);
            permanent.add_row()
                .cell(cut, 1)
                .cell(router->name())
                .cell(stats.in_component_success_rate(), 4)
                .cell(stats.steps_all.mean(), 2);
        }
    }
    permanent.print(std::cout, "Permanent failures (protocols on the degraded topology):");

    std::cout << "\nGreedy degrades gracefully under churn and the patching\n"
              << "protocols keep delivery at 100% of what the surviving topology\n"
              << "allows — with no routing tables to rebuild, ever.\n";
    return 0;
}
