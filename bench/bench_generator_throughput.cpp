// EXP-GEN — generator ablation: the expected-linear-time layered cell
// sampler vs the O(n^2) reference sampler. Same distribution (tested in
// girg_test.cpp); here we reproduce the scaling separation and report
// edges/second. Also sweeps dimension, the threshold model, and the
// sampler's thread count (the regimes that stress different parts of the
// cell recursion and its parallel task decomposition).
//
// `--sweep [output.json] [--smoke]` skips google-benchmark and runs a
// hand-timed thread sweep of the parallel sampler (sample_edges_fast_stream,
// the generator's entry point) on a 2^20-vertex instance (2^14 with --smoke,
// for CI), writing the measurements (per-thread-count seconds, edges/sec,
// speedup, FNV-1a fingerprint of the edge sequence) to JSON.
// The sweep fails when the rows' edge lists differ: a fixed seed must give
// the same edges at every thread count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "girg/fast_sampler.h"
#include "girg/naive_sampler.h"
#include "graph/edge_stream.h"
#include "graph/fingerprint.h"
#include "random/power_law.h"

namespace smallworld::bench {
namespace {

struct VertexSet {
    std::vector<double> weights;
    PointCloud positions;
};

VertexSet make_vertices(const GirgParams& params, std::uint64_t seed) {
    Rng rng(seed);
    VertexSet out;
    out.positions = sample_poisson_point_process(params.n, params.dim, rng);
    const PowerLaw law(params.beta, params.wmin);
    out.weights = law.sample_many(out.positions.count(), rng);
    return out;
}

void sampler_bench(benchmark::State& state, SamplerKind kind, double alpha, int dim,
                   unsigned threads) {
    GirgParams params = standard_params(static_cast<double>(state.range(0)), 2.5, alpha,
                                        2.0, dim);
    params.threads = threads;
    const VertexSet vertices = make_vertices(params, 22001);
    std::size_t edges = 0;
    std::uint64_t seed = 23001;
    for (auto _ : state) {
        Rng rng(seed++);
        const ChunkedEdgeList sampled =
            kind == SamplerKind::kFast
                ? sample_edges_fast_stream(params, vertices.weights, vertices.positions, rng)
                : sample_edges_naive_stream(params, vertices.weights, vertices.positions, rng);
        edges = sampled.size();
        benchmark::DoNotOptimize(edges);
    }
    state.counters["edges"] = static_cast<double>(edges);
    state.counters["edges_per_sec"] = benchmark::Counter(
        static_cast<double>(edges) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["vertices"] = static_cast<double>(vertices.weights.size());
    state.counters["threads"] = static_cast<double>(threads);
}

void register_all() {
    const auto add = [](const std::string& name, SamplerKind kind, double alpha, int dim,
                        std::initializer_list<int> sizes, unsigned threads = 1) {
        auto* b = benchmark::RegisterBenchmark(
            ("GEN_Sampler/" + name).c_str(),
            [kind, alpha, dim, threads](benchmark::State& state) {
                sampler_bench(state, kind, alpha, dim, threads);
            });
        for (const int n : sizes) b->Arg(n);
        b->Unit(benchmark::kMillisecond);
    };
    add("naive/alpha2/d2", SamplerKind::kNaive, 2.0, 2, {1 << 10, 1 << 12, 1 << 14});
    add("fast/alpha2/d2", SamplerKind::kFast, 2.0, 2,
        {1 << 10, 1 << 12, 1 << 14, 1 << 17, 1 << 20});
    add("fast/alphaInf/d2", SamplerKind::kFast, kAlphaInfinity, 2, {1 << 14, 1 << 17});
    add("fast/alpha2/d1", SamplerKind::kFast, 2.0, 1, {1 << 17});
    add("fast/alpha2/d3", SamplerKind::kFast, 2.0, 3, {1 << 17});
    // Thread sweep of the parallel task decomposition (same seed -> same
    // edges at every width; only the wall clock changes).
    for (const unsigned t : {1u, 2u, 4u, 8u}) {
        add("fast/alpha2/d2/threads" + std::to_string(t), SamplerKind::kFast, 2.0, 2,
            {1 << 17, 1 << 20}, t);
    }
}

// ------------------------------------------------------------------ --sweep

/// Hand-timed thread sweep on a 2^20-vertex instance (2^14 when `smoke`),
/// written as JSON so the result can be committed alongside the code it
/// measures. Returns non-zero when the thread counts disagree on the edges.
int run_sweep(const std::string& output_path, bool smoke) {
    // Fail on an unwritable path before spending minutes measuring.
    BenchJson json(output_path, "GEN_Sampler/thread_sweep");
    if (!json.ok()) {
        std::cerr << "sweep: cannot open " << output_path << "\n";
        return 1;
    }
    const int n = smoke ? 1 << 14 : 1 << 20;
    GirgParams params = standard_params(static_cast<double>(n), 2.5, 2.0, 2.0, 2);
    std::cerr << "sweep: sampling " << n << " vertices...\n";
    const VertexSet vertices = make_vertices(params, 22001);

    struct Row {
        unsigned threads;
        double seconds;
        std::size_t edges;
        std::uint64_t fingerprint;
    };
    std::vector<Row> rows;
    const int kReps = smoke ? 1 : 3;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        params.threads = threads;
        double best = 0.0;
        std::size_t edges = 0;
        std::uint64_t fingerprint = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            Rng rng(23001);
            const auto start = std::chrono::steady_clock::now();
            const ChunkedEdgeList sampled =
                sample_edges_fast_stream(params, vertices.weights, vertices.positions, rng);
            const auto stop = std::chrono::steady_clock::now();
            const double secs = std::chrono::duration<double>(stop - start).count();
            if (rep == 0 || secs < best) best = secs;
            edges = sampled.size();
            const std::vector<Edge> flat = sampled.to_vector();
            fingerprint =
                fnv1a_bytes(kFingerprintBasis, flat.data(), flat.size() * sizeof(Edge));
        }
        rows.push_back({threads, best, edges, fingerprint});
        std::cerr << "sweep: threads=" << threads << " best=" << best << "s edges="
                  << edges << " fingerprint=" << std::hex << fingerprint << std::dec << "\n";
    }

    const double base = rows.front().seconds;
    json.field("n", static_cast<double>(n));
    json.field("dim", 2.0);
    json.field("alpha", 2.0);
    json.field("beta", 2.5);
    json.field("reps", static_cast<double>(kReps));
    json.field("timing", "best of reps, wall clock");
    json.field("fingerprint_definition", "FNV-1a over the sampled edge list's raw bytes");
    const unsigned cores = std::thread::hardware_concurrency();
    json.field("machine", "recorded on " + std::to_string(cores) +
                              " cores: widths up to " + std::to_string(cores) +
                              " measure scaling, wider ones oversubscribe");
    bool identical = true;
    std::ostringstream results;
    results << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        identical = identical && r.edges == rows.front().edges &&
                    r.fingerprint == rows.front().fingerprint;
        results << "    {\"threads\": " << r.threads << ", \"seconds\": " << r.seconds
                << ", \"edges\": " << r.edges << ", \"edges_per_sec\": "
                << static_cast<double>(r.edges) / r.seconds
                << ", \"speedup_vs_1\": " << base / r.seconds << ", \"fingerprint\": \""
                << std::hex << r.fingerprint << std::dec << "\"}"
                << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    results << "  ]";
    json.field("identical_output", identical ? "true" : "false");
    json.field_raw("results", results.str());
    json.close();
    std::cerr << "sweep: wrote " << output_path << "\n";
    if (!identical) {
        std::cerr << "sweep: FAIL — the thread counts sampled different edge lists\n";
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace smallworld::bench

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) smoke = smoke || std::string(argv[i]) == "--smoke";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--sweep") {
            const std::string path = i + 1 < argc && std::string(argv[i + 1]) != "--smoke"
                                         ? argv[i + 1]
                                         : "BENCH_generator_throughput.json";
            return smallworld::bench::run_sweep(path, smoke);
        }
    }
    smallworld::bench::register_all();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
