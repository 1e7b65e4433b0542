// bench_paper: the paper's evaluation in one program: Theorems 3.1-3.5,
// Corollary 3.6, Figure 1, Section 4, the Kleinberg baseline and ablations.
//
//   bench_paper [--smoke] BENCH_paper.json
//
// Every point pools kInstances instances of kTargets x kSources pairs drawn by
// the trial runner and reports the pooled value with the min and max over its
// instances, as one markdown table per experiment (EXPERIMENTS.md pastes them)
// and as JSON; then it checks the theorems' shapes and exits 1 if one fails.
// --smoke runs one instance of every series on <= 2^10 vertices.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/layers.h"
#include "core/message_history.h"
#include "core/phases.h"
#include "core/phi_dfs.h"
#include "graph/components.h"
#include "graph/core_decomposition.h"
#include "hyperbolic/embedder.h"
#include "hyperbolic/hrg.h"
#include "hyperbolic/hyperbolic_objective.h"
#include "hyperbolic/mapping.h"
#include "kleinberg/lattice.h"
#include "kleinberg/noisy.h"
#include "random/stats.h"

namespace smallworld::bench {
namespace {

// The sampling protocol. Instance i of a series draws its graph from the
// series' graph seed + i and its pairs from its trial seed + i, so instance 0
// is the instance each series has always measured.
constexpr std::size_t kInstances = 4;
constexpr std::size_t kTargets = 256;
constexpr std::size_t kSources = 16;
constexpr double kSmokeN = 1024;  // --smoke caps every graph size here

// Shape checks on the full run, each with a margin past the weakest point of
// the committed BENCH_paper.json (in brackets), so only a real shift fails.
constexpr double kT31Floor = 0.15;  // per-instance success_in_comp (0.232, beta 2.8, n = 2^11)
constexpr double kT33StretchBound = 1.10;  // pooled stretch_mean (1.060, beta 2.7, n = 2^16)

using Metrics = std::map<std::string, double>;

/// One instance's part of a point: its trial aggregate, and numbers that are not per
/// pair (mean degree, embedding fit, trajectory shapes), each reported as a mean.
struct Sample {
    TrialStats stats;
    std::map<std::string, RunningStats> extra;
};

struct Series {
    std::string experiment, name, x_name;  ///< its table, its name, what it sweeps
    std::vector<double> xs;
    std::function<Sample(double x, std::size_t instance, TrialConfig config)> run;
    /// Metrics of x and a trial aggregate, an instance's or the pool's.
    std::function<void(Metrics&, double x, const TrialStats&)> derive = nullptr;
    std::size_t instances = kInstances, targets = kTargets, sources = kSources;
};

struct Row {
    const Series* series;
    std::string point;  ///< "x_name=x"
    std::size_t instances;
    Metrics pooled, lo, hi;  ///< over the merged instances; min and max over them
};

/// Each experiment's table: its id, its title and the metrics it prints.
const std::vector<std::tuple<std::string, std::string, std::vector<std::string>>> kTables = {
    {"T31", "Theorem 3.1: greedy success", {"success_in_comp", "success", "hops_mean"}},
    {"T32", "Theorem 3.2: failure", {"failure", "log_failure", "success_in_comp"}},
    {"T33", "Theorem 3.3: hops and stretch",
     {"hops_mean", "hops_max", "predicted_hops", "hops_over_loglog", "stretch_mean"}},
    {"T34", "Theorem 3.4: patching protocols on giant pairs",
     {"success_in_comp", "steps_mean", "steps_q95", "steps_q99", "steps_max", "visited_mean",
      "step_limit"}},
    {"T35", "Theorem 3.5: relaxed objectives", {"success", "stretch_mean", "hops_mean"}},
    {"C36", "Corollary 3.6: hyperbolic random graphs",
     {"success", "stretch_mean", "steps_mean", "step_limit", "avg_degree", "edge_fit"}},
    {"F1", "Figure 1: greedy trajectories",
     {"frac_phi_monotone", "frac_phase_ordered", "frac_unimodal", "frac_clean_layers",
      "weight_growth_exp_2hop", "predicted_growth_exp", "first_phase_hops",
      "second_phase_hops", "log_peak_w_over_log_n", "peak_core_percentile", "paths"}},
    {"S4", "Section 4: phi vs degree-agnostic geometric routing", {"success", "stretch_mean"}},
    {"K", "Section 1.1: the Kleinberg baseline",
     {"success", "hops_mean", "hops_over_side_2_3", "hops_over_log2_side"}},
    {"ABL", "Ablations", {"success", "avg_degree", "stretch_mean"}},
};

Metrics metrics_of(const Series& series, double x, const Sample& sample) {
    Metrics m;
    const TrialStats& s = sample.stats;
    if (s.attempts > 0) {
        for (const auto& [name, count] : std::initializer_list<std::pair<const char*, std::size_t>>{
                 {"attempts", s.attempts}, {"delivered", s.delivered}, {"dead_end", s.dead_end},
                 {"exhausted", s.exhausted}, {"step_limit", s.step_limit},
                 {"same_component", s.same_component},
                 {"delivered_in_component", s.delivered_in_component}, {"retries", s.retries}}) {
            m[name] = static_cast<double>(count);
        }
        for (const auto& [name, stats] :
             std::initializer_list<std::pair<std::string, const RunningStats*>>{
                 {"hops", &s.hops}, {"stretch", &s.stretch}, {"bfs", &s.bfs_distance},
                 {"steps", &s.steps_all}, {"visited", &s.distinct_visited}}) {
            if (stats->count() == 0) continue;  // a mean of nothing is no value
            m[name + "_mean"] = stats->mean();
            m[name + "_max"] = stats->max();
        }
        m["success"] = s.success_rate();
        if (s.same_component > 0) m["success_in_comp"] = s.in_component_success_rate();
        if (!s.step_samples.empty()) m["steps_q95"] = quantile(s.step_samples, 0.95);
        if (!s.step_samples.empty()) m["steps_q99"] = quantile(s.step_samples, 0.99);
    }
    if (series.derive) series.derive(m, x, s);
    for (const auto& [name, stats] : sample.extra) m[name] = stats.mean();
    return m;
}

const GreedyRouter kGreedy;

struct Plan {
    bool smoke;
    std::vector<Series> series;

    void add(Series s) { series.push_back(std::move(s)); }
    /// A fixed graph size; --smoke caps it.
    [[nodiscard]] double size(double n) const { return smoke ? std::min(n, kSmokeN) : n; }
    /// Swept sizes; --smoke keeps the first, capped.
    [[nodiscard]] std::vector<double> sweep(std::vector<double> sizes, double cap = kSmokeN) const {
        return smoke ? std::vector<double>{std::min(sizes.front(), cap)} : sizes;
    }

    /// run_girg_trials on the GIRG params(x), instance i drawn from
    /// graph_seed + i and its pairs from trial_seed + i under `rules`.
    [[nodiscard]] auto on_girg(std::function<GirgParams(double)> params, std::uint64_t graph_seed,
                               std::uint64_t trial_seed,
                               std::function<void(TrialConfig&, double)> rules = nullptr,
                               std::function<ObjectiveFactory(double)> factory = nullptr,
                               const Router* router = &kGreedy) const {
        return [=](double x, std::size_t i, TrialConfig config) {
            if (rules) rules(config, x);
            const Girg g = generate_girg(params(x), graph_seed + i);
            const ObjectiveFactory objectives = factory ? factory(x) : girg_objective_factory();
            Sample sample{run_girg_trials(g, *router, objectives, config, trial_seed + i), {}};
            sample.extra["avg_degree"].add(g.graph.average_degree());
            sample.extra["predicted_hops"].add(g.params.predicted_hops(g.params.n));
            return sample;
        };
    }

    [[nodiscard]] std::vector<Row> run() const {
        std::vector<Row> rows;
        for (const Series& s : series) {
            for (const double x : s.xs) {
                std::ostringstream point;
                point << s.x_name << '=' << x;
                Row row{&s, point.str(), smoke ? 1 : s.instances, {}, {}, {}};
                TrialConfig config;
                config.targets = s.targets;
                config.sources_per_target = s.sources;
                Sample all;
                for (std::size_t i = 0; i < row.instances; ++i) {
                    const Sample sample = s.run(x, i, config);
                    all.stats.merge(sample.stats);
                    for (const auto& [name, stats] : sample.extra) all.extra[name].merge(stats);
                    for (const auto& [name, value] : metrics_of(s, x, sample)) {
                        const bool first = !row.lo.contains(name);
                        row.lo[name] = first ? value : std::min(row.lo[name], value);
                        row.hi[name] = first ? value : std::max(row.hi[name], value);
                    }
                }
                row.pooled = metrics_of(s, x, all);
                rows.push_back(std::move(row));
            }
            std::cerr << "bench_paper: " << s.name << '\n';
        }
        return rows;
    }
};

/// run_graph_trials with greedy routing toward a TargetObjective(graph, t).
template <class TargetObjective, class G>
Sample graph_trials(const G& graph, const TrialConfig& config, std::uint64_t seed) {
    const GraphObjectiveFactory factory = [&graph](Vertex t) {
        return std::make_unique<TargetObjective>(graph, t);
    };
    return {run_graph_trials(graph.graph, kGreedy, factory, config, seed), {}};
}

void giant(TrialConfig& c, double) { c.restrict_to_giant = true; }
void giant_far(TrialConfig& c, double) {  // Theorem 3.3 conditions on success
    c.restrict_to_giant = true;
    c.min_graph_distance = 2;
}
void giant_tails(TrialConfig& c, double) {
    c.restrict_to_giant = true;
    c.collect_step_samples = true;  // for the tail quantiles
}
void link_failures(TrialConfig& c, double p) {
    c.restrict_to_giant = true;
    c.faults.seed = 31337;
    c.faults.link_failure_prob = p;
}

void failure(Metrics& m, double, const TrialStats& s) {
    m["failure"] = 1.0 - s.success_rate();
    m["log_failure"] = m["failure"] > 0.0 ? std::log(m["failure"]) : -20.0;
}

/// Figure 1's own loop: it reads each path, so it draws giant pairs at least
/// 0.05 apart itself and keeps the successful paths of >= 3 hops.
Sample trajectories(const Girg& girg, std::uint64_t seed, std::size_t draws) {
    Sample sample;
    auto& e = sample.extra;
    const auto giant = giant_component_vertices(connected_components(girg.graph));
    // The coreness percentile of each path's peak-weight vertex: how deep in
    // the k-core hierarchy it climbs ("the core of the network", Section 4).
    const auto coreness = core_decomposition(girg.graph);
    std::vector<std::uint32_t> sorted(coreness.begin(), coreness.end());
    std::sort(sorted.begin(), sorted.end());
    const LayerStructure layers(girg.params, girg.params.wmin, 0.05);
    Rng rng(seed);
    for (std::size_t draw = 0; draw < draws; ++draw) {
        const Vertex s = giant[rng.uniform_index(giant.size())];
        const Vertex t = giant[rng.uniform_index(giant.size())];
        if (s == t || girg.distance(s, t) < 0.05) continue;
        const RoutingResult result = kGreedy.route(girg.graph, GirgObjective(girg, t), s);
        if (!result.success() || result.steps() < 3) continue;
        auto points = annotate_trajectory(girg, t, result.path);
        const TrajectoryShape shape = analyze_trajectory(points);
        e["frac_unimodal"].add(shape.weight_unimodal ? 1 : 0);
        e["frac_phase_ordered"].add(shape.phase_ordered ? 1 : 0);
        e["frac_phi_monotone"].add(shape.objective_monotone ? 1 : 0);
        e["first_phase_hops"].add(static_cast<double>(shape.first_phase_hops));
        e["second_phase_hops"].add(static_cast<double>(shape.second_phase_hops));
        e["log_peak_w_over_log_n"].add(std::log(shape.peak_weight) / std::log(girg.params.n));
        // Lemma 8.1 (iii): per first-phase hop pair, weight grows by >= ~1/(beta-2).
        for (std::size_t k = 0; k + 2 < points.size(); ++k) {
            if (points[k].phase == RoutingPhase::kFirst &&
                points[k + 2].phase == RoutingPhase::kFirst && points[k].weight > 1.5) {
                e["weight_growth_exp_2hop"].add(std::log(points[k + 2].weight) /
                                                std::log(points[k].weight));
            }
        }
        points.pop_back();  // the target's synthetic point
        e["frac_clean_layers"].add(check_layer_discipline(layers, points).clean() ? 1 : 0);
        const auto peak = std::max_element(points.begin(), points.end(), [&](auto& a, auto& b) {
            return girg.weight(a.vertex) < girg.weight(b.vertex);
        });
        const auto rank = std::lower_bound(sorted.begin(), sorted.end(), coreness[peak->vertex]);
        e["peak_core_percentile"].add(static_cast<double>(rank - sorted.begin()) /
                                      static_cast<double>(sorted.size()));
    }
    e["paths"].add(static_cast<double>(e["frac_unimodal"].count()));
    e["predicted_growth_exp"].add(1.0 / (girg.params.beta - 2.0));
    return sample;
}

void add_series(Plan& d) {
    for (const auto& [label, beta, alpha] :
         {std::tuple{"beta2.2/alpha2", 2.2, 2.0}, std::tuple{"beta2.5/alpha2", 2.5, 2.0},
          std::tuple{"beta2.8/alpha2", 2.8, 2.0}, std::tuple{"beta2.5/alpha1.2", 2.5, 1.2},
          std::tuple{"beta2.5/alpha4", 2.5, 4.0},
          std::tuple{"beta2.5/alphaInf", 2.5, kAlphaInfinity}}) {
        d.add({"T31", std::string("T31_GreedySuccess/") + label, "n",
               d.sweep({1 << 11, 1 << 13, 1 << 15, 1 << 17}),
               d.on_girg([=](double n) { return standard_params(n, beta, alpha, 2.0); }, 1001,
                         2001)});
    }
    d.add({"T32", "T32_FailureVsWmin", "wmin", {0.5, 1, 1.5, 2, 3, 4, 6},
           d.on_girg([&d](double w) { return standard_params(d.size(32768), 2.5, 2.0, w); },
                     3001, 4001),
           failure});
    // Part (ii) fixes both endpoints, planted with weight w at far positions,
    // so each instance routes its one pair and a point pools 256 instances.
    d.add({"T32", "T32_FailureVsPlantedWeight", "w", {1, 2, 4, 8, 16, 32},
           [&d](double w, std::size_t i, TrialConfig) {
               GenerateOptions options;
               options.planted = {{w, {0.1, 0.1}}, {w, {0.6, 0.6}}};
               const Girg girg = generate_girg(standard_params(d.size(16384), 2.5, 2.0, 1.0),
                                               5001 + i, options);
               const Vertex t = girg.num_vertices() - 1;
               const auto result = kGreedy.route(girg.graph, GirgObjective(girg, t), t - 1);
               Sample sample;  // the pair, counted as the trial runner counts one
               TrialStats& s = sample.stats;
               s.attempts = 1;
               s.same_component = connected_components(girg.graph).same_component(t - 1, t);
               s.delivered = result.success();
               s.delivered_in_component = s.delivered * s.same_component;
               if (s.delivered_in_component > 0) s.hops.add(static_cast<double>(result.steps()));
               s.steps_all.add(static_cast<double>(result.steps()));
               s.distinct_visited.add(static_cast<double>(result.distinct_vertices()));
               s.dead_end = result.status == RoutingStatus::kDeadEnd;
               s.exhausted = result.status == RoutingStatus::kExhausted;
               s.step_limit = result.status == RoutingStatus::kStepLimit;
               return sample;
           },
           failure, 256, 1, 1});
    for (const double beta : {2.3, 2.5, 2.7}) {
        std::ostringstream name;
        name << "T33_PathLength/beta" << beta;
        d.add({"T33", name.str(), "n", d.sweep({1 << 12, 1 << 14, 1 << 16, 1 << 18}),
               d.on_girg([beta](double n) { return standard_params(n, beta, 2.0, 2.0); }, 6001,
                         7001, giant_far),
               [beta](Metrics& m, double n, const TrialStats& s) {
                   m["paper_constant"] = 2.0 / std::fabs(std::log(beta - 2.0));
                   m["hops_over_loglog"] = s.hops.mean() / std::log(std::log(n));
               }});
    }
    static const PhiDfsRouter phi_dfs;
    static const MessageHistoryRouter message_history;
    static const GravityPressureRouter gravity_pressure;
    for (const Router* router : std::initializer_list<const Router*>{
             &kGreedy, &phi_dfs, &message_history, &gravity_pressure}) {
        d.add({"T34", "T34_Patching/" + router->name(), "wmin", {1, 2, 4},
               d.on_girg([&d](double w) { return standard_params(d.size(32768), 2.5, 2.0, w); },
                         8001, 9001, giant_tails, nullptr, router)});
    }
    // Theorem 3.5 on the same instances and pairs: link failures with
    // probability p, the exponent relaxation g and constant-factor noise C.
    const auto t35 = [&d](double) { return standard_params(d.size(65536), 2.5, 2.0, 2.0); };
    d.add({"T35", "T35_Robustness/link_failures", "p", {0, 0.1, 0.25, 0.5},
           d.on_girg(t35, 10001, 11001, link_failures)});
    d.add({"T35", "T35_Relaxation/exponent", "g", {0, 0.05, 0.1, 0.2, 0.35, 0.5},
           d.on_girg(t35, 10001, 11001, giant, [](double g) {
               return g == 0.0 ? girg_objective_factory()
                               : relaxed_objective_factory(RelaxationKind::kExponent, g, 424242);
           })});
    d.add({"T35", "T35_Relaxation/constant_factor", "C", {1, 1.5, 2, 4},
           d.on_girg(t35, 10001, 11001, giant, [](double c) {
               return relaxed_objective_factory(RelaxationKind::kConstantFactor, c, 424242);
           })});

    // Corollary 3.6 on hyperbolic random graphs.
    struct Mode {
        const char* name;
        double t_h;
        bool mapped, patched, embedded;
        std::vector<double> ns;
    };
    const std::vector<double> all{1 << 11, 1 << 13, 1 << 15, 1 << 17};
    const std::vector<double> large{1 << 13, 1 << 15, 1 << 17};
    const std::vector<double> embeddable{1 << 13, 1 << 15};
    for (const Mode& mode : {Mode{"geometric/threshold", 0.0, false, false, false, all},
                             Mode{"geometric/T0.5", 0.5, false, false, false, all},
                             Mode{"girg_mapped/threshold", 0.0, true, false, false, large},
                             Mode{"phi_dfs/threshold", 0.0, false, true, false, large},
                             Mode{"embedded/greedy", 0.0, false, false, true, embeddable},
                             Mode{"embedded/phi_dfs", 0.0, false, true, true, embeddable}}) {
        Series series{"C36", std::string("C36_Hyperbolic/") + mode.name, "n", d.sweep(mode.ns),
                      [&d, mode](double n, std::size_t i, TrialConfig c) {
            // alpha_h = 0.75 gives beta = 2.5 (internet-like), c_h = -1 a mean degree ~ 6-8.
            const HrgParams p{static_cast<std::size_t>(n), 0.75, -1.0, mode.t_h};
            const HyperbolicGraph hrg = generate_hrg(p, 12001 + i);
            // EXP-EMB routes on coordinates inferred from the topology alone.
            std::optional<HyperbolicGraph> inferred;
            if (mode.embedded) inferred = embed_graph(hrg.graph, {});
            const HyperbolicGraph& coords = inferred ? *inferred : hrg;
            std::optional<Girg> mapped;
            if (mode.mapped) mapped = hrg_to_girg(hrg);
            const GraphObjectiveFactory factory = [&](Vertex t) -> std::unique_ptr<Objective> {
                if (mapped) return std::make_unique<GirgObjective>(*mapped, t);
                return std::make_unique<HyperbolicObjective>(coords, t);
            };
            c.restrict_to_giant = true;
            const PhiDfsRouter patched;
            const Router& router = mode.patched ? static_cast<const Router&>(patched) : kGreedy;
            Sample sample{run_graph_trials(hrg.graph, router, factory, c, 13001 + i), {}};
            sample.extra["avg_degree"].add(hrg.graph.average_degree());
            if (mode.embedded) sample.extra["edge_fit"].add(embedding_edge_fit(coords));
            return sample;
        }};
        // Patched routes on inferred coordinates average ~10^4 steps at 2^15
        // (320 pairs took 10.7 s on 4 cores), so this series draws a quarter
        // of the protocol's targets.
        if (mode.embedded && mode.patched) series.targets = kTargets / 4;
        d.add(std::move(series));
    }
    // Section 1.1, Section 4, Figure 1 and the ablations.
    for (const auto& [label, alpha] :
         {std::pair{"alpha2", 2.0}, std::pair{"alphaInf", kAlphaInfinity}}) {
        d.add({"F1", std::string("F1_Trajectory/") + label, "beta", {2.3, 2.5, 2.7},
               [&d, alpha](double beta, std::size_t i, TrialConfig c) {
                   const GirgParams params = standard_params(d.size(131072), beta, alpha, 2.0);
                   return trajectories(generate_girg(params, 14001 + i), 15001 + i,
                                       c.targets * c.sources_per_target);
               },
               nullptr, kInstances, 400, 1});
    }
    const auto s4 = [&d](double beta) { return standard_params(d.size(65536), beta, 2.0, 3.0); };
    const std::vector<double> betas{2.1, 2.3, 2.5, 2.7, 2.9};
    d.add({"S4", "S4_Comparison/phi", "beta", betas, d.on_girg(s4, 16001, 17001, giant)});
    d.add({"S4", "S4_Comparison/geometric", "beta", betas,
           d.on_girg(s4, 16001, 17001, giant,
                     [](double) { return geometric_objective_factory(); })});
    for (const double exponent : {0.0, 1.0, 2.0, 3.0, 3.5}) {
        std::ostringstream name;
        name << "K_Lattice/r" << exponent;
        d.add({"K", name.str(), "side", d.sweep({64, 128, 256, 512}, std::sqrt(kSmokeN)),
               [exponent](double side, std::size_t i, TrialConfig c) {
                   KleinbergParams p;
                   p.side = static_cast<std::uint32_t>(side);
                   p.exponent = exponent;
                   return graph_trials<KleinbergObjective>(generate_kleinberg(p, 18001 + i), c,
                                                           19001 + i);
               },
               [](Metrics& m, double side, const TrialStats& s) {
                   m["hops_over_log2_side"] = s.hops.mean() / std::pow(std::log2(side), 2.0);
                   m["hops_over_side_2_3"] = s.hops.mean() / std::pow(side, 2.0 / 3.0);
               }});
    }
    d.add({"K", "K_NoisyPositions", "n", d.sweep({1024, 4096, 16384}),
           [](double n, std::size_t i, TrialConfig c) {
               NoisyKleinbergParams p;
               p.n = static_cast<std::size_t>(n);
               return graph_trials<NoisyKleinbergObjective>(generate_noisy_kleinberg(p, 20001 + i),
                                                            c, 21001 + i);
           }});
    // Success is not scale-free in the edge-scale constant, which is why every
    // other series pins it with calibrated_edge_scale.
    d.add({"ABL", "ABL_EdgeScale", "multiplier", {0.25, 0.5, 1, 2, 4, 24},
           d.on_girg([&d](double multiplier) {
               GirgParams params = standard_params(d.size(32768), 2.5, 2.0, 2.0);
               params.edge_scale *= multiplier;
               return params;
           }, 24001, 25001)});
    // Address precision: phi rounded to b mantissa bits, a (1 +- 2^-b)
    // relaxation in Theorem 3.5's constant-factor class.
    d.add({"ABL", "ABL_QuantizedAddresses", "bits", {2, 4, 6, 10, 16, 52},
           d.on_girg([&d](double) { return standard_params(d.size(65536), 2.5, 2.0, 2.0); },
                     26001, 27001, giant, [](double bits) -> ObjectiveFactory {
               return [bits](const Girg& g, Vertex t) -> std::unique_ptr<Objective> {
                   if (bits >= 52) return std::make_unique<GirgObjective>(g, t);
                   return std::make_unique<QuantizedObjective>(g, t, static_cast<int>(bits));
               };
           })});
}

/// The theorems' shapes on the rows: each check, and the rows that break it. Theorem
/// 3.4 holds at every n, so --smoke checks it too; the others need the full samples.
std::vector<std::pair<std::string, std::string>> check(const std::vector<Row>& rows, bool smoke) {
    std::vector<std::pair<std::string, std::string>> checks{
        {"check: Theorem 3.4, phi-dfs and msg-history deliver every in-component pair", ""},
        {"check: T32, failure does not increase with wmin", ""},
        {"check: T33, every pooled stretch_mean is at most 1.10", ""},
        {"check: T31, every instance's success_in_comp is at least 0.15", ""}};
    const Row* previous = nullptr;
    for (const Row& row : rows) {
        const std::string& name = row.series->name;
        const Metrics& m = row.pooled;
        const auto fail = [&](std::size_t k) { checks[k].second += name + " " + row.point + "; "; };
        if ((name == "T34_Patching/phi-dfs" || name == "T34_Patching/msg-history" ||
             name == "C36_Hyperbolic/phi_dfs/threshold") && m.at("success_in_comp") != 1.0) fail(0);
        if (name == "T32_FailureVsWmin") {
            if (previous != nullptr && m.at("failure") > previous->pooled.at("failure")) fail(1);
            previous = &row;
        }
        if (row.series->experiment == "T33" && m.at("stretch_mean") > kT33StretchBound) fail(2);
        if (row.series->experiment == "T31" && row.lo.at("success_in_comp") < kT31Floor) fail(3);
    }
    if (smoke) checks.resize(1);
    return checks;
}

int run(const std::string& path, bool smoke) {
    // A table cell: the pooled value, then [min, max] over the instances.
    const auto cell = [](const Row& row, const std::string& key) -> std::string {
        if (!row.pooled.contains(key)) return "—";
        std::ostringstream out;
        out << std::fixed << std::setprecision(key.ends_with("_max") ? 0 : 3);
        out << row.pooled.at(key) << " [" << row.lo.at(key) << ", " << row.hi.at(key) << ']';
        return out.str();
    };
    BenchJson json(path, "paper");
    if (!json.ok()) {
        std::cerr << "bench_paper: cannot write " << path << "\n";
        return 2;
    }
    Plan plan{smoke, {}};
    add_series(plan);
    const std::vector<Row> rows = plan.run();
    std::ostringstream points;
    points << std::setprecision(10) << "[";
    for (const auto& [id, title, columns] : kTables) {
        std::cout << "\n#### " << id << " — " << title
                  << "\n\n| series | point | instances × targets × sources |";
        for (const std::string& column : columns) std::cout << ' ' << column << " |";
        std::cout << "\n|---|---|---|";
        for (std::size_t k = 0; k < columns.size(); ++k) std::cout << "---|";
        for (const Row& row : rows) {
            const Series& s = *row.series;
            if (s.experiment != id) continue;
            std::cout << "\n| " << s.name << " | " << row.point << " | " << row.instances
                      << " × " << s.targets << " × " << s.sources << " |";
            for (const std::string& column : columns) std::cout << ' ' << cell(row, column) << " |";
            points << (&row == &rows.front() ? "\n" : ",\n") << "    {\"experiment\": \"" << id
                   << "\", \"series\": \"" << s.name << "\", \"" << s.x_name << "\": "
                   << row.point.substr(s.x_name.size() + 1) << ", \"instances\": "
                   << row.instances << ", \"targets\": " << s.targets
                   << ", \"sources\": " << s.sources << ",\n     \"metrics\": {";
            for (const auto& [name, value] : row.pooled) {
                points << (name == row.pooled.begin()->first ? "" : ", ") << '"' << name
                       << "\": {\"pooled\": " << value << ", \"min\": " << row.lo.at(name)
                       << ", \"max\": " << row.hi.at(name) << "}";
            }
            points << "}}";
        }
        std::cout << '\n';
    }
    json.field("smoke", smoke ? 1.0 : 0.0);
    bool passed = true;
    for (const auto& [name, failed] : check(rows, smoke)) {
        if (!failed.empty()) std::cerr << "bench_paper: " << name << ": " << failed << '\n';
        json.field(name, failed.empty() ? "passed" : "failed at " + failed);
        passed = passed && failed.empty();
    }
    json.field_raw("points", points.str() + "\n  ]");
    json.close();
    std::cerr << "bench_paper: wrote " << path << (passed ? "\n" : "; a check failed\n");
    return passed ? 0 : 1;
}

}  // namespace
}  // namespace smallworld::bench

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    const bool smoke = !args.empty() && args.front() == "--smoke";
    if (args.size() != (smoke ? 2U : 1U) || args.back().starts_with("-")) {
        std::cerr << "usage: bench_paper [--smoke] <out.json>\n";
        return 2;
    }
    return smallworld::bench::run(args.back(), smoke);
}
