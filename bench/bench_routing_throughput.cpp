// EXP-ROUTE — routing-evaluation throughput: the hot path every theorem
// benchmark sits on (greedy hops via batched objective argmax, per-target
// phi memoization, Morton-relabeled CSR locality, the pruned hub-row
// argmax). google-benchmark registrations cover the steady-state
// per-router throughput; `--sweep` runs the committed ablation ladder:
//
//   plain labels + production evaluator (the Morton-off baseline), then on
//   Morton labels: SoA scalar kernels, AVX2 vector kernels, and AVX2 with
//   the cohort-shared memo pool, all through GreedyRouter; then
//   DistributedGreedy on the lockstep walk with the full scan (walk_full)
//   and with GirgObjective's argmax (walk_pruned), which prunes hub rows and
//   remembers each holder's decision, so a target's sources share them
//
// on the *same physical graph and the same physical (s,t) pairs*, so the
// measured separation is purely labels and evaluation, not the workload.
// A thread sweep of the per-target parallel pipeline rides along; delivered
// counts and total hops are asserted identical across every cell and thread
// count (the kernels are bit-identical, so any mismatch is a bug), and the
// walk cells' paths equal GreedyRouter's pair by pair. Each cell reports
// the median and quartiles of its reps, each rep at least a second of
// routing.
//
// `--sweep [output.json]` writes BENCH_routing_throughput.json; `--smoke`
// shrinks the instance so CI can execute the full code path in seconds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/phi_dfs.h"
#include "core/thread_pool.h"
#include "core/walk.h"
#include "distributed/protocols.h"
#include "girg/hub_rows.h"
#include "girg/phi_evaluator.h"
#include "girg/phi_memo.h"
#include "girg/phi_soa.h"
#include "girg/relabel.h"
#include "random/rng.h"
#include "random/stats.h"

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

/// How long a cell is timed: `reps` reps, each whole passes over the pairs
/// until `min_seconds` of routing have passed (one pass at least).
struct Timing {
    int reps = 5;
    double min_seconds = 1.0;
};

struct CellResult {
    std::vector<double> rates;  ///< pairs per second, one per rep
    std::size_t attempts = 0;   ///< one pass
    std::size_t delivered = 0;  ///< one pass
    std::size_t hops = 0;       ///< total steps over one pass

    [[nodiscard]] double rate(double q) const { return quantile(rates, q); }
    [[nodiscard]] double median() const { return rate(0.5); }
};

/// Greedy hops through GreedyRouter, or DistributedGreedy on the lockstep
/// walk: the same decisions (the sweep asserts equal paths), reached
/// through the router's honest loop or the walk's LocalView::best.
enum class Engine { kRouter, kWalk };

RoutingResult route_with(Engine engine, const Girg& girg, const Objective& objective,
                         Vertex source) {
    if (engine == Engine::kRouter) return GreedyRouter{}.route(girg.graph, objective, source);
    return simulate_routing(girg.graph, objective, DistributedGreedy{}, source).routing;
}

/// Times every pair routed with a fresh per-target objective; the one-pass
/// delivered/hops tallies are label-invariant, so every cell must agree.
template <typename MakeObjective>
CellResult run_cell(const SweepWorkload& workload, const MakeObjective& make_objective,
                    Engine engine, const Timing& timing, unsigned threads) {
    const auto pass = [&] {
        std::vector<CellResult> per_target(workload.pairs.size());
        parallel_for(
            workload.pairs.size(),
            [&](std::size_t t) {
                const auto& [target, sources] = workload.pairs[t];
                const auto objective = make_objective(*workload.girg, target);
                CellResult& local = per_target[t];
                for (const Vertex source : sources) {
                    const RoutingResult routed =
                        route_with(engine, *workload.girg, *objective, source);
                    ++local.attempts;
                    local.hops += routed.steps();
                    if (routed.success()) ++local.delivered;
                }
            },
            threads);
        CellResult total;
        for (const CellResult& local : per_target) {
            total.attempts += local.attempts;
            total.delivered += local.delivered;
            total.hops += local.hops;
        }
        return total;
    };
    CellResult result;
    for (int rep = 0; rep < timing.reps; ++rep) {
        std::size_t attempts = 0;
        const auto start = std::chrono::steady_clock::now();
        double secs = 0.0;
        do {
            const CellResult one = pass();
            attempts += one.attempts;
            if (rep == 0 && result.attempts == 0) {
                result.attempts = one.attempts;
                result.delivered = one.delivered;
                result.hops = one.hops;
            }
            secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        } while (secs < timing.min_seconds);
        result.rates.push_back(static_cast<double>(attempts) / secs);
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

/// Row entries a greedy query evaluates, per query, over the workload:
/// the full scan reads every entry of every row it decides at; the pruned
/// argmax (DistributedGreedy's floor, phi of the holder) evaluates only the
/// fine blocks of a hub row it does not skip. Each pruned answer is checked
/// against GreedyRouter's next hop.
struct EntryCounts {
    double full = 0.0;
    double pruned = 0.0;
    bool consistent = true;
};

EntryCounts count_entries(const SweepWorkload& workload) {
    const Girg& girg = *workload.girg;
    const auto soa = girg.phi_soa();
    const auto hubs = girg.hub_rows();
    const PhiKernelOps& ops =
        phi_kernel_ops(girg.params.norm, girg.params.dim,
                       phi_simd_available() ? PhiKernel::kAvx2 : PhiKernel::kScalar);
    // The kernel's memo, reset after every call: its writeback log then
    // holds exactly the entries that call evaluated.
    std::vector<double> memo(girg.num_vertices(), std::numeric_limits<double>::quiet_NaN());
    std::vector<Vertex> touched;
    EntryCounts counts;
    std::size_t queries = 0;
    for (const auto& [target, sources] : workload.pairs) {
        const GirgObjective objective(girg, target);
        PhiKernelCtx ctx;
        ctx.weights = soa->weight_plane();
        ctx.wn = girg.params.wmin * girg.params.n;
        ctx.dim = girg.params.dim;
        ctx.target = target;
        for (int axis = 0; axis < ctx.dim; ++axis) {
            ctx.axes[axis] = soa->axis_plane(axis);
            ctx.target_position[axis] = girg.position(target)[axis];
        }
        ctx.memo = memo.data();
        ctx.touched = &touched;
        for (const Vertex source : sources) {
            ++queries;
            const RoutingResult routed = GreedyRouter{}.route(girg.graph, objective, source);
            for (std::size_t i = 0; i < routed.path.size(); ++i) {
                const Vertex holder = routed.path[i];
                if (holder == target) break;
                const auto row = girg.graph.neighbors(holder);
                counts.full += static_cast<double>(row.size());
                if (row.size() < HubRowSummary::kMinDegree) {
                    counts.pruned += static_cast<double>(row.size());
                    continue;
                }
                const PhiBestLane lane =
                    hubs->best_above(ctx, ops.best, holder, row, objective.value(holder));
                counts.pruned += static_cast<double>(touched.size());
                for (const Vertex v : touched) memo[v] = std::numeric_limits<double>::quiet_NaN();
                touched.clear();
                const Vertex next = i + 1 < routed.path.size() ? routed.path[i + 1] : kNoVertex;
                const Vertex chosen =
                    lane.index == PhiBestLane::kNone ? kNoVertex : row[lane.index];
                if (chosen != next) counts.consistent = false;
            }
        }
    }
    counts.full /= static_cast<double>(queries);
    counts.pruned /= static_cast<double>(queries);
    return counts;
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
    const Timing timing = smoke ? Timing{1, 0.0} : Timing{5, 1.0};
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
    const auto make_full_scan = [cohort_pool](const Girg& girg, Vertex target) {
        PhiOptions options;
        options.pool = cohort_pool;
        return std::make_unique<FullScanObjective>(
            std::make_unique<GirgObjective>(girg, target, options));
    };

    // The walk cells decide every hop with LocalView::best; the pruned one
    // must pick GreedyRouter's hop at every step, the full one too.
    for (const auto& [target, sources] : relabeled_workload.pairs) {
        const auto pruned = make_cohort(relabeled, target);
        const auto full = make_full_scan(relabeled, target);
        for (const Vertex source : sources) {
            const auto path = route_with(Engine::kRouter, relabeled, *pruned, source).path;
            if (route_with(Engine::kWalk, relabeled, *pruned, source).path != path ||
                route_with(Engine::kWalk, relabeled, *full, source).path != path) {
                std::cerr << "sweep: FATAL: walk path differs from GreedyRouter's for s="
                          << source << " t=" << target << "\n";
                return 1;
            }
        }
    }
    const EntryCounts entries = count_entries(relabeled_workload);
    if (!entries.consistent) {
        std::cerr << "sweep: FATAL: the pruned argmax disagrees with a GreedyRouter hop\n";
        return 1;
    }
    std::cerr << "sweep: row entries per query: full " << entries.full << ", pruned "
              << entries.pruned << "\n";

    // Single-thread ablation: the ladder's speedups must come from cache
    // locality, the vectorized evaluation pipeline and the pruned argmax,
    // not from core count. The router cells route with GreedyRouter, which
    // prefetches the next hop's row unconditionally; the walk cells run
    // DistributedGreedy on the lockstep walk, with and without the pruned
    // argmax.
    struct Cell {
        const char* name;
        CellResult result;
    };
    std::vector<Cell> cells;
    const auto add_cell = [&](const char* name, CellResult result) {
        cells.push_back({name, std::move(result)});
        const CellResult& r = cells.back().result;
        std::cerr << "sweep: " << name << " " << r.median() << " pairs/s (quartiles "
                  << r.rate(0.25) << ", " << r.rate(0.75) << ")  delivered=" << r.delivered
                  << " hops=" << r.hops << "\n";
    };
    std::cerr << "sweep: single-thread ablation...\n";
    add_cell("plain_simd", run_cell(plain_workload, make_simd, Engine::kRouter, timing, 1));
    add_cell("relabeled_soa",
             run_cell(relabeled_workload, make_soa, Engine::kRouter, timing, 1));
    add_cell("relabeled_simd",
             run_cell(relabeled_workload, make_simd, Engine::kRouter, timing, 1));
    add_cell("relabeled_simd_cohort",
             run_cell(relabeled_workload, make_cohort, Engine::kRouter, timing, 1));
    add_cell("walk_full", run_cell(relabeled_workload, make_full_scan, Engine::kWalk, timing, 1));
    add_cell("walk_pruned", run_cell(relabeled_workload, make_cohort, Engine::kWalk, timing, 1));

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

    // Thread sweep of the per-target pipeline on the production router
    // configuration (relabeled + SIMD + cohort pool; the locked pool is
    // shared across workers).
    struct ThreadRow {
        unsigned threads;
        CellResult result;
    };
    std::vector<ThreadRow> thread_rows;
    std::cerr << "sweep: thread sweep...\n";
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        thread_rows.push_back({threads, run_cell(relabeled_workload, make_cohort,
                                                 Engine::kRouter, timing, threads)});
        const ThreadRow& row = thread_rows.back();
        if (row.result.delivered != cells.front().result.delivered ||
            row.result.hops != cells.front().result.hops) {
            std::cerr << "sweep: FATAL: thread count " << threads
                      << " changed routing outcomes\n";
            return 1;
        }
        std::cerr << "sweep: threads=" << threads << " " << row.result.median() << " pairs/s\n";
    }

    const auto rate_of = [&](const char* name) {
        for (const Cell& cell : cells) {
            if (std::string_view(cell.name) == name) return cell.result.median();
        }
        return 0.0;
    };
    const double base_rate = rate_of("plain_simd");

    json.field("smoke", smoke ? 1.0 : 0.0);
    json.field("n", static_cast<double>(n));
    json.field("dim", 2.0);
    json.field("alpha", 2.0);
    json.field("beta", 2.5);
    json.field("wmin", 2.0);
    json.field("targets", static_cast<double>(kTargets));
    json.field("sources_per_target", static_cast<double>(kSources));
    json.field("reps", static_cast<double>(timing.reps));
    json.field("min_seconds_per_rep", timing.min_seconds);
    json.field("timing",
               "per rep, whole passes over the pairs for at least min_seconds_per_rep of "
               "routing; median and quartiles of the reps' pairs/s, wall clock, routing only");
    json.field("router", "greedy");
    json.field("delivered", static_cast<double>(cells[0].result.delivered));
    json.field("total_hops", static_cast<double>(cells[0].result.hops));
    json.field("outcomes_identical_across_cells_and_threads", 1.0);
    json.field("walk_paths_equal_greedy_router", 1.0);
    json.field("simd_active", phi_simd_available() ? 1.0 : 0.0);
    json.field("row_entries_per_query_full_scan", entries.full);
    json.field("row_entries_per_query_pruned", entries.pruned);

    const auto rates_json = [](const CellResult& r) {
        std::ostringstream out;
        out << "\"pairs_per_sec_median\": " << r.median()
            << ", \"pairs_per_sec_q1\": " << r.rate(0.25)
            << ", \"pairs_per_sec_q3\": " << r.rate(0.75)
            << ", \"hops_per_sec_median\": "
            << r.median() * static_cast<double>(r.hops) / static_cast<double>(r.attempts);
        return out.str();
    };
    std::ostringstream ablation;
    ablation << "[\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult& r = cells[i].result;
        ablation << "    {\"cell\": \"" << cells[i].name << "\", " << rates_json(r)
                 << ", \"speedup_vs_plain_simd\": " << r.median() / base_rate << "}"
                 << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    ablation << "  ]";
    json.field_raw("single_thread_ablation", ablation.str());
    json.field("single_thread_speedup", rate_of("relabeled_simd_cohort") / base_rate);
    // The kernel ablation alone: AVX2 against SoA scalar, same labels, same
    // pairs.
    json.field("simd_speedup_vs_relabeled_soa",
               rate_of("relabeled_simd") / rate_of("relabeled_soa"));
    // The pruned argmax alone: the same walk, the same objective and pool.
    json.field("pruned_speedup_vs_walk_full", rate_of("walk_pruned") / rate_of("walk_full"));

    std::ostringstream threads_json;
    threads_json << "[\n";
    for (std::size_t i = 0; i < thread_rows.size(); ++i) {
        const ThreadRow& row = thread_rows[i];
        threads_json << "    {\"threads\": " << row.threads << ", " << rates_json(row.result)
                     << ", \"speedup_vs_1\": "
                     << row.result.median() / thread_rows.front().result.median() << "}"
                     << (i + 1 < thread_rows.size() ? "," : "") << "\n";
    }
    threads_json << "  ]";
    json.field_raw("thread_sweep", threads_json.str());
    json.close();

    std::cerr << "sweep: single_thread_speedup=" << rate_of("relabeled_simd_cohort") / base_rate
              << " pruned_speedup_vs_walk_full="
              << rate_of("walk_pruned") / rate_of("walk_full") << "\n";
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
