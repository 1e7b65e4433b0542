// EXP-T35 — Theorem 3.5 and Remark 10.1: greedy routing tolerates
// approximate objectives. Perturbing phi by min{wv, phi(v)^{-1}}^{±g}
// preserves success probability and (for g = o(1)) the loglog path length;
// a *constant* exponent g is outside the theorem and measurably slows the
// routing (more hops), while bounded constant-factor noise is harmless.
//
// Series reproduced: success rate and mean hops vs relaxation magnitude g
// for the exponent relaxation, and vs factor C for constant-factor noise.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/greedy.h"

namespace smallworld::bench {
namespace {

void t35_relax(benchmark::State& state, RelaxationKind kind) {
    const double magnitude = static_cast<double>(state.range(0)) / 100.0;
    const double n = 65536.0 * bench_scale();
    const GirgParams params = standard_params(n, 2.5, 2.0, 2.0);
    const Girg& girg = cached_girg(params, 10001);
    TrialConfig config;
    config.targets = 12;
    config.sources_per_target = 32;
    config.restrict_to_giant = true;
    const auto factory =
        magnitude == 0.0 && kind == RelaxationKind::kExponent
            ? girg_objective_factory()
            : relaxed_objective_factory(kind, kind == RelaxationKind::kConstantFactor
                                                  ? 1.0 + magnitude
                                                  : magnitude,
                                        /*seed=*/424242);
    TrialStats stats;
    for (auto _ : state) {
        stats = run_girg_trials(girg, GreedyRouter{}, factory, config, 11001);
    }
    report_stats(state, stats);
    state.counters["magnitude"] = magnitude;
    state.counters["predicted_hops"] = params.predicted_hops(n);
}

/// Robustness companion (Section 10 discussion): per-hop transient link
/// failures; greedy reroutes through the best surviving neighbor.
void t35_faulty(benchmark::State& state) {
    const double failure = static_cast<double>(state.range(0)) / 100.0;
    const double n = 65536.0 * bench_scale();
    const GirgParams params = standard_params(n, 2.5, 2.0, 2.0);
    const Girg& girg = cached_girg(params, 10001);
    TrialConfig config;
    config.targets = 12;
    config.sources_per_target = 32;
    config.restrict_to_giant = true;
    config.faults.seed = 31337;
    config.faults.link_failure_prob = failure;
    TrialStats stats;
    for (auto _ : state) {
        stats = run_girg_trials(girg, GreedyRouter{}, girg_objective_factory(), config, 11001);
    }
    report_stats(state, stats);
    state.counters["link_failure_prob"] = failure;
}

void register_all() {
    auto* faulty = benchmark::RegisterBenchmark("T35_Robustness/link_failures", t35_faulty);
    for (const int f : {0, 10, 25, 50}) faulty->Arg(f);
    faulty->Iterations(1)->Unit(benchmark::kMillisecond);

    auto* exponent = benchmark::RegisterBenchmark(
        "T35_Relaxation/exponent", [](benchmark::State& state) {
            t35_relax(state, RelaxationKind::kExponent);
        });
    // g = range/100: 0, 0.05, 0.1, 0.2, 0.35, 0.5.
    for (const int g : {0, 5, 10, 20, 35, 50}) exponent->Arg(g);
    exponent->Iterations(1)->Unit(benchmark::kMillisecond);

    auto* factor = benchmark::RegisterBenchmark(
        "T35_Relaxation/constant_factor", [](benchmark::State& state) {
            t35_relax(state, RelaxationKind::kConstantFactor);
        });
    // C = 1 + range/100: 1.0, 1.5, 2.0, 4.0.
    for (const int c : {0, 50, 100, 300}) factor->Arg(c);
    factor->Iterations(1)->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace smallworld::bench

int main(int argc, char** argv) {
    smallworld::bench::register_all();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
