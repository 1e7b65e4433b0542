// EXP-ROUTE — routing-evaluation throughput: the hot path every theorem
// benchmark sits on (greedy hops via batched objective argmax, per-target
// phi memoization, Morton-relabeled CSR locality). google-benchmark
// registrations cover the steady-state per-router throughput; `--sweep`
// runs the committed ablation ladder:
//
//   plain labels + production evaluator (the Morton-off baseline), then on
//   Morton labels: SoA scalar kernels, AVX2 vector kernels, and AVX2 with
//   the cohort-shared memo pool
//
// on the *same physical graph and the same physical (s,t) pairs*, so the
// measured separation is purely labels and evaluation, not the workload.
// A thread sweep of the per-target parallel pipeline rides along; delivered
// counts and total hops are asserted identical across every cell and thread
// count (the kernels are bit-identical, so any mismatch is a bug).
//
// `--sweep [output.json]` writes BENCH_routing_throughput.json; `--smoke`
// shrinks the instance so CI can execute the full code path in seconds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/greedy.h"
#include "core/phi_dfs.h"
#include "core/thread_pool.h"
#include "girg/phi_evaluator.h"
#include "girg/phi_memo.h"
#include "girg/phi_soa.h"
#include "girg/relabel.h"
#include "random/rng.h"

namespace smallworld::bench {
namespace {

// ------------------------------------------------------------ registrations

void routing_bench(benchmark::State& state, const Router& router) {
    const GirgParams params =
        standard_params(static_cast<double>(state.range(0)), 2.5, 2.0, 2.0, 2);
    const Girg& girg = cached_girg(params, 31001);
    TrialConfig config;
    config.targets = 8;
    config.sources_per_target = 64;
    config.restrict_to_giant = true;
    std::uint64_t seed = 32001;
    TrialStats stats;
    for (auto _ : state) {
        stats = run_girg_trials(girg, router, girg_objective_factory(), config, seed++);
        benchmark::DoNotOptimize(stats.attempts);
    }
    report_stats(state, stats);
    state.counters["pairs_per_sec"] = benchmark::Counter(
        static_cast<double>(stats.attempts) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void register_all() {
    const auto add = [](const std::string& name, auto router) {
        auto* b = benchmark::RegisterBenchmark(
            ("ROUTE_Throughput/" + name).c_str(),
            [router](benchmark::State& state) { routing_bench(state, router); });
        b->Arg(1 << 14)->Arg(1 << 16)->Unit(benchmark::kMillisecond);
    };
    add("greedy", GreedyRouter{});
    add("phi_dfs", PhiDfsRouter{});
}

// ------------------------------------------------------------------ --sweep

struct SweepWorkload {
    const Girg* girg = nullptr;
    /// pairs[t] = (target, sources routed toward it), all same-labelled as
    /// the girg above.
    std::vector<std::pair<Vertex, std::vector<Vertex>>> pairs;
};

struct CellResult {
    double seconds = 0.0;
    std::size_t attempts = 0;
    std::size_t delivered = 0;
    std::size_t hops = 0;  // total steps over every attempt
};

/// Routes every pair with a fresh per-target objective; the returned
/// delivered/hops tallies are label-invariant, so every cell must agree.
template <typename MakeObjective>
CellResult run_cell(const SweepWorkload& workload, const MakeObjective& make_objective,
                    int reps, unsigned threads) {
    const GreedyRouter router;
    CellResult result;
    for (int rep = 0; rep < reps; ++rep) {
        std::vector<CellResult> per_target(workload.pairs.size());
        const auto start = std::chrono::steady_clock::now();
        parallel_for(
            workload.pairs.size(),
            [&](std::size_t t) {
                const auto& [target, sources] = workload.pairs[t];
                const auto objective = make_objective(*workload.girg, target);
                CellResult& local = per_target[t];
                for (const Vertex source : sources) {
                    const RoutingResult routed =
                        router.route(workload.girg->graph, *objective, source);
                    ++local.attempts;
                    local.hops += routed.steps();
                    if (routed.success()) ++local.delivered;
                }
            },
            threads);
        const auto stop = std::chrono::steady_clock::now();
        const double secs = std::chrono::duration<double>(stop - start).count();
        CellResult total;
        total.seconds = secs;
        for (const CellResult& local : per_target) {
            total.attempts += local.attempts;
            total.delivered += local.delivered;
            total.hops += local.hops;
        }
        if (rep == 0 || total.seconds < result.seconds) result = total;
    }
    return result;
}

/// Same physical (target, sources) pairs re-labelled through the Morton
/// permutation, so the relabeled cells route exactly the same routing
/// problems.
SweepWorkload relabel_workload(const SweepWorkload& plain, const Girg& relabeled,
                               std::span<const Vertex> new_ids) {
    SweepWorkload out;
    out.girg = &relabeled;
    out.pairs.reserve(plain.pairs.size());
    for (const auto& [target, sources] : plain.pairs) {
        std::vector<Vertex> mapped;
        mapped.reserve(sources.size());
        for (const Vertex s : sources) mapped.push_back(new_ids[s]);
        out.pairs.emplace_back(new_ids[target], std::move(mapped));
    }
    return out;
}

int run_sweep(const std::string& output_path, bool smoke) {
    BenchJson json(output_path, "ROUTE_Throughput/ablation_sweep");
    if (!json.ok()) {
        std::cerr << "sweep: cannot open " << output_path << "\n";
        return 1;
    }
    const int n = smoke ? (1 << 12) : (1 << 17);
    const std::size_t kTargets = smoke ? 8 : 16;
    const std::size_t kSources = smoke ? 32 : 128;
    const int kReps = smoke ? 1 : 3;
    const GirgParams params = standard_params(static_cast<double>(n), 2.5, 2.0, 2.0, 2);

    std::cerr << "sweep: generating n=" << n << " instance (plain + relabeled)...\n";
    GenerateOptions plain_options;
    plain_options.morton_relabel = false;
    const Girg plain = generate_girg(params, 41001, plain_options);
    const Girg relabeled = generate_girg(params, 41001);
    const auto new_ids = morton_order(plain.positions, plain.num_vertices());

    // Uniform random pairs on the plain labels; the same draws are reused
    // (mapped through the permutation) for the relabeled cells.
    SweepWorkload plain_workload;
    plain_workload.girg = &plain;
    Rng rng(42001);
    for (std::size_t t = 0; t < kTargets; ++t) {
        const auto target = static_cast<Vertex>(rng.uniform_index(plain.num_vertices()));
        std::vector<Vertex> sources;
        sources.reserve(kSources);
        while (sources.size() < kSources) {
            const auto s = static_cast<Vertex>(rng.uniform_index(plain.num_vertices()));
            if (s != target) sources.push_back(s);
        }
        plain_workload.pairs.emplace_back(target, std::move(sources));
    }
    const SweepWorkload relabeled_workload =
        relabel_workload(plain_workload, relabeled, new_ids);

    const auto make_soa = [](const Girg& girg, Vertex target) {
        PhiOptions options;
        options.mode = PhiEvalMode::kScalar;
        return std::make_unique<GirgObjective>(girg, target, options);
    };
    // kAuto, the production evaluator: AVX2 kernels when the host supports
    // them, SoA scalar otherwise (simd_active in the JSON records which one
    // actually ran).
    const auto make_simd = [](const Girg& girg, Vertex target) {
        return std::make_unique<GirgObjective>(girg, target);
    };
    const auto cohort_pool = std::make_shared<PhiMemoPool>();
    const auto make_cohort = [cohort_pool](const Girg& girg, Vertex target) {
        PhiOptions options;
        options.pool = cohort_pool;
        return std::make_unique<GirgObjective>(girg, target, options);
    };
    // Single-thread ablation: the ladder's speedups must come from cache
    // locality + the vectorized evaluation pipeline, not from core count.
    // Every cell routes with GreedyRouter, which prefetches the next hop's
    // row unconditionally.
    struct Cell {
        const char* name;
        CellResult result;
    };
    std::vector<Cell> cells;
    std::cerr << "sweep: single-thread ablation...\n";
    cells.push_back({"plain_simd", run_cell(plain_workload, make_simd, kReps, 1)});
    cells.push_back({"relabeled_soa", run_cell(relabeled_workload, make_soa, kReps, 1)});
    cells.push_back({"relabeled_simd", run_cell(relabeled_workload, make_simd, kReps, 1)});
    cells.push_back(
        {"relabeled_simd_cohort", run_cell(relabeled_workload, make_cohort, kReps, 1)});
    for (const Cell& cell : cells) {
        std::cerr << "sweep: " << cell.name << " " << cell.result.seconds << "s  "
                  << static_cast<double>(cell.result.attempts) / cell.result.seconds
                  << " pairs/s  delivered=" << cell.result.delivered
                  << " hops=" << cell.result.hops << "\n";
    }

    // Routing outcomes are label-invariant; any mismatch means a cell
    // changed the semantics, which would invalidate the comparison.
    for (const Cell& cell : cells) {
        if (cell.result.delivered != cells.front().result.delivered ||
            cell.result.hops != cells.front().result.hops) {
            std::cerr << "sweep: FATAL: " << cell.name
                      << " disagrees with plain_simd on routing outcomes\n";
            return 1;
        }
    }

    // Thread sweep of the per-target pipeline on the production
    // configuration (relabeled + SIMD + cohort pool; the locked pool is
    // shared across workers).
    struct ThreadRow {
        unsigned threads;
        CellResult result;
    };
    std::vector<ThreadRow> thread_rows;
    std::cerr << "sweep: thread sweep...\n";
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        thread_rows.push_back(
            {threads, run_cell(relabeled_workload, make_cohort, kReps, threads)});
        const ThreadRow& row = thread_rows.back();
        if (row.result.delivered != cells.front().result.delivered ||
            row.result.hops != cells.front().result.hops) {
            std::cerr << "sweep: FATAL: thread count " << threads
                      << " changed routing outcomes\n";
            return 1;
        }
        std::cerr << "sweep: threads=" << threads << " " << row.result.seconds << "s\n";
    }

    const auto rate_of = [&](const char* name) {
        for (const Cell& cell : cells) {
            if (std::string_view(cell.name) == name) {
                return static_cast<double>(cell.result.attempts) / cell.result.seconds;
            }
        }
        return 0.0;
    };
    const double base_rate = rate_of("plain_simd");
    const double soa_rate = rate_of("relabeled_soa");
    const double simd_rate = rate_of("relabeled_simd");
    const double best_rate = rate_of("relabeled_simd_cohort");

    json.field("smoke", smoke ? 1.0 : 0.0);
    json.field("n", static_cast<double>(n));
    json.field("dim", 2.0);
    json.field("alpha", 2.0);
    json.field("beta", 2.5);
    json.field("wmin", 2.0);
    json.field("targets", static_cast<double>(kTargets));
    json.field("sources_per_target", static_cast<double>(kSources));
    json.field("reps", static_cast<double>(kReps));
    json.field("timing", "best of reps, wall clock, routing only");
    json.field("router", "greedy");
    json.field("delivered", static_cast<double>(cells[0].result.delivered));
    json.field("total_hops", static_cast<double>(cells[0].result.hops));
    json.field("outcomes_identical_across_cells_and_threads", 1.0);
    json.field("simd_active", phi_simd_available() ? 1.0 : 0.0);

    std::ostringstream ablation;
    ablation << "[\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult& r = cells[i].result;
        const double rate = static_cast<double>(r.attempts) / r.seconds;
        ablation << "    {\"cell\": \"" << cells[i].name << "\", \"seconds\": "
                 << r.seconds << ", \"pairs_per_sec\": " << rate
                 << ", \"hops_per_sec\": " << static_cast<double>(r.hops) / r.seconds
                 << ", \"speedup_vs_plain_simd\": " << rate / base_rate << "}"
                 << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    ablation << "  ]";
    json.field_raw("single_thread_ablation", ablation.str());
    json.field("single_thread_speedup", best_rate / base_rate);
    // The kernel ablation alone: AVX2 against SoA scalar, same labels, same
    // pairs.
    json.field("simd_speedup_vs_relabeled_soa", simd_rate / soa_rate);

    std::ostringstream threads_json;
    threads_json << "[\n";
    for (std::size_t i = 0; i < thread_rows.size(); ++i) {
        const ThreadRow& row = thread_rows[i];
        const double rate = static_cast<double>(row.result.attempts) / row.result.seconds;
        threads_json << "    {\"threads\": " << row.threads << ", \"seconds\": "
                     << row.result.seconds << ", \"pairs_per_sec\": " << rate
                     << ", \"hops_per_sec\": "
                     << static_cast<double>(row.result.hops) / row.result.seconds
                     << ", \"speedup_vs_1\": "
                     << thread_rows.front().result.seconds / row.result.seconds << "}"
                     << (i + 1 < thread_rows.size() ? "," : "") << "\n";
    }
    threads_json << "  ]";
    json.field_raw("thread_sweep", threads_json.str());
    json.close();

    std::cerr << "sweep: single_thread_speedup=" << best_rate / base_rate << "\n";
    std::cerr << "sweep: wrote " << output_path << "\n";
    return 0;
}

}  // namespace
}  // namespace smallworld::bench

int main(int argc, char** argv) {
    bool sweep = false;
    bool smoke = false;
    std::string path = "BENCH_routing_throughput.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--sweep") {
            sweep = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') path = argv[++i];
        } else if (arg == "--smoke") {
            smoke = true;
        }
    }
    if (sweep) return smallworld::bench::run_sweep(path, smoke);
    smallworld::bench::register_all();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
