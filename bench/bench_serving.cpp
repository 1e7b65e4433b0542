// EXP-SERVE — the discrete-event serving layer (distributed/serving.h):
// thousands of concurrent in-flight greedy queries over one shared GIRG,
// under per-link latency models, bounded per-node queues and optional fault
// injection. google-benchmark registrations cover simulate_many throughput
// by batch size; `--sweep` runs the committed grid:
//
//   queries-in-flight {64, 256, 1024, 4096}
//     x latency {constant, distance_proportional, seeded_jitter}
//     x faults  {off, loss 0.1 + links 0.1 + crashes 0.02}
//   + a queue-capacity series {unbounded, 8, 2} at 1024 in flight
//
// on one cached instance and counter-seeded query sets, reporting delivery
// rate, makespan (clock_end), event and wake counts, heap/queue high-water
// marks and queue drops. simulate_many decides every walk target by target
// (one objective alive at a time) and then replays the event clock, all on
// the calling thread. Every cell runs twice: with GirgObjective, whose
// argmax prunes hub rows and remembers each holder's decision, and with
// every argmax a full scan (FullScanObjective). The full results
// (statuses, paths, telemetry, clocks, per-node counters) are asserted
// equal before anything is written.
//
// `--sweep [output.json]` writes BENCH_serving.json; `--smoke` shrinks the
// instance so CI can execute the full code path in seconds.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/fault.h"
#include "core/objective.h"
#include "distributed/protocols.h"
#include "distributed/serving.h"
#include "girg/phi_memo.h"
#include "girg/phi_soa.h"
#include "random/rng.h"

namespace smallworld::bench {
namespace {

/// `full_scan` hides GirgObjective's best_above, so every argmax scans the
/// whole row afresh.
TargetObjectiveFactory factory_for(const Girg& girg, bool full_scan = false) {
    // Cohort-shared memo pool: simulate_many builds one objective per
    // distinct target, one at a time; the pool recycles their memo tables
    // across targets so repeated batches skip the O(n) NaN refill.
    // Locked, and pure phi keeps results independent of pooling.
    const auto pool = std::make_shared<PhiMemoPool>();
    return [&girg, pool, full_scan](Vertex target) -> std::unique_ptr<Objective> {
        PhiOptions options;
        options.pool = pool;
        auto objective = std::make_unique<GirgObjective>(girg, target, options);
        if (!full_scan) return objective;
        return std::make_unique<FullScanObjective>(std::move(objective));
    };
}

/// Counter-seeded query batch: sources, targets and staggered start times
/// are pure functions of (seed, index).
std::vector<ServingQuery> make_queries(const Girg& girg, std::size_t count,
                                       std::uint64_t seed) {
    Rng rng(seed);
    std::vector<ServingQuery> queries;
    queries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        queries.push_back({static_cast<Vertex>(rng.uniform_index(girg.num_vertices())),
                           static_cast<Vertex>(rng.uniform_index(girg.num_vertices())),
                           static_cast<SimTime>(i % 64)});
    }
    return queries;
}

// ------------------------------------------------------------ registrations

void serving_bench(benchmark::State& state) {
    const GirgParams params =
        standard_params(static_cast<double>(1 << 14), 2.5, 2.0, 2.0, 2);
    const Girg& girg = cached_girg(params, 81001);
    const auto queries =
        make_queries(girg, static_cast<std::size_t>(state.range(0)), 82001);
    const DistributedGreedy greedy;
    ServingOptions options;
    options.latency.kind = LatencyKind::kSeededJitter;
    options.latency.base_ticks = 1;
    options.latency.jitter_ticks = 3;
    options.latency.seed = 82002;
    options.seed = 82003;
    // One factory (one memo pool) across iterations: repeated batches
    // recycle the per-target memo tables instead of re-allocating them.
    const auto factory = factory_for(girg);
    std::size_t delivered = 0;
    SimTime makespan = 0;
    for (auto _ : state) {
        const auto result = simulate_many(girg.graph, factory, greedy, queries, options);
        delivered = result.delivered();
        makespan = result.serving.clock_end;
        benchmark::DoNotOptimize(delivered);
    }
    state.counters["delivered"] = static_cast<double>(delivered);
    state.counters["makespan_ticks"] = static_cast<double>(makespan);
    state.counters["queries_per_s"] = benchmark::Counter(
        static_cast<double>(queries.size()), benchmark::Counter::kIsIterationInvariantRate);
}

void register_all() {
    benchmark::RegisterBenchmark("SERVE_Batch/greedy", serving_bench)
        ->Arg(256)
        ->Arg(1024)
        ->Arg(4096)
        ->Unit(benchmark::kMillisecond);
}

// ------------------------------------------------------------------ --sweep

struct LatencyEntry {
    const char* name;
    LatencyModel model;
};

struct Cell {
    const char* latency;
    std::size_t in_flight = 0;
    bool faulted = false;
    std::size_t queue_capacity = 0;
};

int run_sweep(const std::string& output_path, bool smoke) {
    BenchJson json(output_path, "SERVE_Serving/grid_sweep");
    if (!json.ok()) {
        std::cerr << "sweep: cannot open " << output_path << "\n";
        return 1;
    }
    const int n = smoke ? (1 << 11) : (1 << 14);
    const GirgParams params = standard_params(static_cast<double>(n), 2.5, 2.0, 2.0, 2);
    std::cerr << "sweep: generating n=" << n << " instance...\n";
    const Girg& girg = cached_girg(params, 81001);

    FaultPlan plan;
    plan.seed = 83001;
    plan.message_loss_prob = 0.1;
    plan.link_failure_prob = 0.1;
    plan.crash_fraction = 0.02;
    const FaultState faults(girg.graph, plan);

    std::vector<LatencyEntry> latencies;
    {
        LatencyModel constant;
        constant.base_ticks = 1;
        latencies.push_back({"constant", constant});
        LatencyModel distance;
        distance.kind = LatencyKind::kDistanceProportional;
        distance.base_ticks = 1;
        distance.ticks_per_unit_distance = 64.0;
        latencies.push_back({"distance_proportional", distance});
        LatencyModel jitter;
        jitter.kind = LatencyKind::kSeededJitter;
        jitter.base_ticks = 1;
        jitter.jitter_ticks = 3;
        jitter.seed = 83002;
        latencies.push_back({"seeded_jitter", jitter});
    }

    const std::vector<std::size_t> in_flight =
        smoke ? std::vector<std::size_t>{32, 128}
              : std::vector<std::size_t>{64, 256, 1024, 4096};
    std::vector<Cell> cells;
    for (const LatencyEntry& latency : latencies) {
        for (const std::size_t count : in_flight) {
            cells.push_back({latency.name, count, false, 0});
            cells.push_back({latency.name, count, true, 0});
        }
    }
    // Queue-pressure series: bounded inboxes under the constant model.
    const std::size_t pressure_count = smoke ? 128 : 1024;
    for (const std::size_t capacity : {std::size_t{8}, std::size_t{2}}) {
        cells.push_back({"constant", pressure_count, false, capacity});
    }

    struct Row {
        Cell cell;
        std::size_t delivered = 0;
        std::size_t dead_end = 0;
        std::size_t step_limit = 0;
        SimTime makespan = 0;
        std::uint64_t events = 0;
        std::size_t heap_high_water = 0;
        std::uint64_t total_wakes = 0;
        std::size_t queue_drops = 0;
        std::uint32_t max_queue_depth = 0;
        double mean_hops_delivered = 0.0;
    };
    std::vector<Row> rows;
    bool identical = true;

    for (const Cell& cell : cells) {
        const LatencyModel* model = nullptr;
        for (const LatencyEntry& latency : latencies) {
            if (std::string(latency.name) == cell.latency) model = &latency.model;
        }
        const auto queries = make_queries(girg, cell.in_flight, 82001);
        const DistributedGreedy greedy;
        ServingOptions options;
        options.latency = *model;
        options.positions = &girg.positions;
        options.routing.faults = cell.faulted ? &faults : nullptr;
        options.queue_capacity = cell.queue_capacity;
        options.seed = 83003;

        // The argmax contract, asserted cell by cell: pruned and remembered
        // decisions give the full result the full scan gives. A faulted
        // cell's rows are residual, so both runs scan them in full.
        const ServingResult result =
            simulate_many(girg.graph, factory_for(girg), greedy, queries, options);
        if (simulate_many(girg.graph, factory_for(girg, true), greedy, queries, options) !=
            result) {
            std::cerr << "sweep: FATAL: " << cell.latency << " q=" << cell.in_flight
                      << " faulted=" << cell.faulted << " cap=" << cell.queue_capacity
                      << " differs from the full-scan run\n";
            identical = false;
        }

        Row row;
        row.cell = cell;
        row.makespan = result.serving.clock_end;
        row.events = result.serving.events_fired;
        row.heap_high_water = result.serving.heap_high_water;
        row.total_wakes = result.serving.total_wakes;
        row.queue_drops = result.serving.queue_drops;
        for (const std::uint32_t depth : result.serving.node_queue_high_water) {
            if (depth > row.max_queue_depth) row.max_queue_depth = depth;
        }
        double hops = 0.0;
        for (const DistributedResult& q : result.queries) {
            switch (q.routing.status) {
                case RoutingStatus::kDelivered:
                    ++row.delivered;
                    hops += static_cast<double>(q.routing.steps());
                    break;
                case RoutingStatus::kDeadEnd: ++row.dead_end; break;
                case RoutingStatus::kStepLimit: ++row.step_limit; break;
                case RoutingStatus::kExhausted: break;
            }
        }
        row.mean_hops_delivered =
            row.delivered > 0 ? hops / static_cast<double>(row.delivered) : 0.0;
        std::cerr << "sweep: " << cell.latency << " q=" << cell.in_flight
                  << " faulted=" << cell.faulted << " cap=" << cell.queue_capacity
                  << " delivered=" << row.delivered << "/" << cell.in_flight
                  << " makespan=" << row.makespan << " drops=" << row.queue_drops
                  << " peak_queue=" << row.max_queue_depth << "\n";
        rows.push_back(row);
    }
    {
        // The grid's targets are uniform, so its queries seldom share an
        // objective. Here every target is one of 8, so most wakes answer
        // from a remembered decision, and the result must match too.
        auto queries = make_queries(girg, in_flight.back(), 82004);
        for (ServingQuery& q : queries) q.target = q.target % 8 * (girg.num_vertices() / 8);
        const DistributedGreedy greedy;
        if (simulate_many(girg.graph, factory_for(girg), greedy, queries) !=
            simulate_many(girg.graph, factory_for(girg, true), greedy, queries)) {
            std::cerr << "sweep: FATAL: the shared-target batch differs from the full-scan run\n";
            identical = false;
        }
    }
    if (!identical) return 1;

    json.field("smoke", smoke ? 1.0 : 0.0);
    json.field("n", static_cast<double>(n));
    json.field("dim", 2.0);
    json.field("alpha", 2.0);
    json.field("beta", 2.5);
    json.field("wmin", 2.0);
    json.field("protocol", "dist-greedy");
    json.field("phi_simd_active", phi_simd_available() ? 1.0 : 0.0);
    json.field("query_seed", 82001.0);
    json.field("event_seed", 83003.0);
    json.field("fault_seed", 83001.0);
    json.field("message_loss_prob", plan.message_loss_prob);
    json.field("link_failure_prob", plan.link_failure_prob);
    json.field("crash_fraction", plan.crash_fraction);
    json.field("outcomes_identical_to_full_scan", 1.0);

    std::ostringstream series;
    series << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        series << "    {\"latency\": \"" << row.cell.latency << "\", \"in_flight\": "
               << row.cell.in_flight << ", \"faulted\": "
               << (row.cell.faulted ? "true" : "false") << ", \"queue_capacity\": "
               << row.cell.queue_capacity << ", \"delivered\": " << row.delivered
               << ", \"dead_end\": " << row.dead_end << ", \"step_limit\": "
               << row.step_limit << ", \"mean_hops_delivered\": "
               << row.mean_hops_delivered << ", \"makespan_ticks\": " << row.makespan
               << ", \"events\": " << row.events << ", \"heap_high_water\": "
               << row.heap_high_water << ", \"total_wakes\": " << row.total_wakes
               << ", \"queue_drops\": " << row.queue_drops << ", \"peak_queue_depth\": "
               << row.max_queue_depth << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    series << "  ]";
    json.field_raw("series", series.str());
    json.close();

    std::cerr << "sweep: wrote " << output_path << "\n";
    return 0;
}

}  // namespace
}  // namespace smallworld::bench

int main(int argc, char** argv) {
    bool sweep = false;
    bool smoke = false;
    std::string path = "BENCH_serving.json";
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
