// EXP-PACK — serving graphs from disk: cold-load latency, peak RSS and
// routed-pairs/sec of the `.girgpack` mmap path against regenerating the
// instance and against materializing a resident CSR from the pack. Four
// modes per n:
//
//   regen       generate_girg from (params, seed): the no-pack cold start
//   resident    open the pack, rebuild an in-memory CSR, route over it
//   mmap-raw    mmap the raw-variant pack, route zero-copy
//   mmap-blob   mmap the delta-varint pack, route through per-thread decode
//
// Every mode routes the same deterministic (source, target) pairs with
// Φ-DFS at 1, 2 and 8 threads and reports an outcome fingerprint; the sweep
// fails loudly if any mode or thread count disagrees — the format must not
// change a single routing decision. ru_maxrss is a process-lifetime
// high-water mark, so each (mode, n) runs in its own child process:
//
//   --measure <mode> <n> <pack-or-"-"> [pairs]   one measurement (child)
//   --sweep [output.json]    n = 2^18..2^21, writes BENCH_graph_io.json
//   --smoke [output.json]    n = 2^14..2^15, same format (CI-sized)
//
// Running with no arguments performs the full sweep.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bench_common.h"
#include "core/objective.h"
#include "core/phi_dfs.h"
#include "experiments/memory.h"
#include "girg/generator.h"
#include "girg/pack_io.h"
#include "graph/edge_stream.h"
#include "graph/fingerprint.h"
#include "graph/packed_graph.h"

namespace smallworld::bench {
namespace {

constexpr std::uint64_t kVertexSeed = 47001;
constexpr std::size_t kRoutedPairs = 256;

GirgParams pack_params(int n) {
    return standard_params(static_cast<double>(n), 2.5, 2.0, 2.0, 2);
}

std::vector<std::pair<Vertex, Vertex>> routed_pairs(Vertex n, std::size_t count) {
    std::vector<std::pair<Vertex, Vertex>> pairs;
    pairs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto s = static_cast<Vertex>((i * 2654435761ULL + 99) % n);
        const auto t = static_cast<Vertex>((i * 0x9E3779B97F4A7C15ULL + n / 3) % n);
        if (s != t) pairs.emplace_back(s, t);
    }
    return pairs;
}

struct RoutePass {
    std::uint64_t fingerprint = 0;  ///< digest of every pair's outcome
    double pairs_per_second = 0.0;
};

/// Routes all pairs with Φ-DFS over `threads` workers (each with its own
/// decode scratch and GraphView of `pack`, or the shared flat `view`). The
/// outcome fingerprint folds (status, steps, final vertex) per pair, so any
/// divergence between modes or thread counts changes the digest.
RoutePass route_pairs(const Girg& attributes, const PackedGraph* pack, GraphView view,
                      const std::vector<std::pair<Vertex, Vertex>>& pairs,
                      unsigned threads) {
    std::vector<RoutingResult> results(pairs.size());
    const PhiDfsRouter router;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
        workers.emplace_back([&, w] {
            NeighborScratch scratch;
            const GraphView local = pack != nullptr ? pack->view(scratch) : view;
            for (std::size_t i = w; i < pairs.size(); i += threads) {
                const GirgObjective objective(attributes, pairs[i].second);
                results[i] = router.route(local, objective, pairs[i].first);
            }
        });
    }
    for (std::thread& worker : workers) worker.join();
    const auto stop = std::chrono::steady_clock::now();

    RoutePass pass;
    std::uint64_t digest = kFingerprintBasis;
    const auto fold = [&digest](std::uint64_t value) {
        digest = fnv1a_bytes(digest, &value, sizeof(value));
    };
    for (const RoutingResult& result : results) {
        fold(static_cast<std::uint64_t>(result.status));
        fold(result.steps());
        fold(result.path.empty() ? ~std::uint64_t{0} : result.path.back());
    }
    pass.fingerprint = digest;
    const double seconds = std::chrono::duration<double>(stop - start).count();
    pass.pairs_per_second =
        seconds > 0.0 ? static_cast<double>(pairs.size()) / seconds : 0.0;
    return pass;
}

/// Child mode: one (mode, n) measurement, one parseable RESULT line.
/// `pair_count` shrinks the routed workload for the CI memory-cap step,
/// which needs the peak, not the rates.
int run_measure(const std::string& mode, int n, const std::string& pack_path,
                std::size_t pair_count) {
    const std::size_t baseline = current_rss_bytes();
    const auto start = std::chrono::steady_clock::now();

    // Cold load: everything needed before the first route() can run.
    Girg attributes;            // weights/positions/params (objective inputs)
    Girg regenerated;           // regen mode keeps its full instance here
    PackedGraph pack;           // mmap modes route straight off this
    std::unique_ptr<Graph> rebuilt;  // resident mode's materialized CSR
    GraphView view;
    const PackedGraph* decode_pack = nullptr;
    std::uint64_t file_bytes = 0;
    std::uint64_t adjacency_bytes = 0;

    if (mode == "regen") {
        regenerated = generate_girg(pack_params(n), kVertexSeed);
        view = GraphView(regenerated.graph);
    } else {
        pack = PackedGraph(pack_path);
        attributes = load_pack_attributes(pack);
        file_bytes = pack.file_bytes();
        adjacency_bytes = pack.info().adjacency_bytes;
        if (mode == "resident") {
            // Rebuild the in-memory CSR through the standard edge pipeline —
            // the honest "load into RAM" baseline the mmap path replaces.
            NeighborScratch scratch;
            const GraphView rows = pack.view(scratch);
            ChunkedEdgeSink sink(std::make_shared<EdgeArena>());
            for (Vertex v = 0; v < pack.num_vertices(); ++v) {
                for (const Vertex u : rows.neighbors(v)) {
                    if (v < u) sink.emit(v, u);
                }
            }
            rebuilt = std::make_unique<Graph>(pack.num_vertices(), sink.take());
            view = GraphView(*rebuilt);
        } else {
            decode_pack = &pack;  // mmap-raw / mmap-blob: per-thread views
        }
    }
    const auto loaded = std::chrono::steady_clock::now();
    const double load_seconds = std::chrono::duration<double>(loaded - start).count();
    // Serving footprint: what stands in RAM once the graph is up, before any
    // query runs. Routing-phase allocations (each worker's objective, walk
    // state and decode scratch) come on top in every mode, so the load-time
    // snapshot is the deterministic resident-vs-mmap comparison; peak_rss
    // still captures the whole process below.
    const std::size_t load_rss = current_rss_bytes();

    const Girg& objective_girg = mode == "regen" ? regenerated : attributes;
    const auto pairs = routed_pairs(
        mode == "regen" ? regenerated.num_vertices() : pack.num_vertices(),
        pair_count);
    const RoutePass pass1 = route_pairs(objective_girg, decode_pack, view, pairs, 1);
    const RoutePass pass2 = route_pairs(objective_girg, decode_pack, view, pairs, 2);
    const RoutePass pass8 = route_pairs(objective_girg, decode_pack, view, pairs, 8);

    std::cout << "RESULT mode=" << mode << " n=" << n
              << " load_seconds=" << load_seconds
              << " file_bytes=" << file_bytes
              << " adjacency_bytes=" << adjacency_bytes
              << " baseline_rss=" << baseline
              << " load_rss=" << load_rss
              << " peak_rss=" << peak_rss_bytes()
              << " vm_peak=" << peak_vm_bytes()
              << " route_fp=" << pass1.fingerprint
              << " route_fp2=" << pass2.fingerprint
              << " route_fp8=" << pass8.fingerprint
              << " pps1=" << pass1.pairs_per_second
              << " pps2=" << pass2.pairs_per_second
              << " pps8=" << pass8.pairs_per_second << "\n";
    return 0;
}

struct Measurement {
    std::string mode;
    int n = 0;
    double load_seconds = 0.0;
    std::uint64_t file_bytes = 0;
    std::uint64_t adjacency_bytes = 0;
    std::size_t baseline_rss = 0;
    std::size_t load_rss = 0;
    std::size_t peak_rss = 0;
    std::size_t vm_peak = 0;
    std::uint64_t route_fp = 0;
    std::uint64_t route_fp2 = 0;
    std::uint64_t route_fp8 = 0;
    double pps1 = 0.0;
    double pps2 = 0.0;
    double pps8 = 0.0;

    [[nodiscard]] std::size_t working_rss() const {
        return peak_rss > baseline_rss ? peak_rss - baseline_rss : 0;
    }

    /// Bytes standing in RAM once the graph is ready to serve (post cold
    /// load, pre routing) — the deterministic resident-vs-mmap comparison.
    [[nodiscard]] std::size_t serving_rss() const {
        return load_rss > baseline_rss ? load_rss - baseline_rss : 0;
    }
};

bool spawn_measure(const std::string& exe, const std::string& mode, int n,
                   const std::string& pack_path, Measurement& out) {
    // One malloc arena: per-thread arenas reserve address space on first
    // contention, which adds tens of MB of run-to-run RSS noise.
    const std::string command = "MALLOC_ARENA_MAX=1 " + exe + " --measure " + mode +
                                " " + std::to_string(n) + " " + pack_path;
    std::FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) {
        std::cerr << "graph-io sweep: popen failed for: " << command << "\n";
        return false;
    }
    std::string output;
    char buffer[512];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
    const int status = ::pclose(pipe);
    if (status != 0) {
        std::cerr << "graph-io sweep: child exited with status " << status << ": "
                  << command << "\n";
        return false;
    }
    const std::size_t line_start = output.find("RESULT ");
    if (line_start == std::string::npos) {
        std::cerr << "graph-io sweep: no RESULT line from: " << command << "\n";
        return false;
    }
    std::istringstream tokens(output.substr(line_start + 7));
    out = Measurement{};
    out.mode = mode;
    std::string token;
    while (tokens >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "n") out.n = std::stoi(value);
        else if (key == "load_seconds") out.load_seconds = std::stod(value);
        else if (key == "file_bytes") out.file_bytes = std::stoull(value);
        else if (key == "adjacency_bytes") out.adjacency_bytes = std::stoull(value);
        else if (key == "baseline_rss") out.baseline_rss = std::stoull(value);
        else if (key == "load_rss") out.load_rss = std::stoull(value);
        else if (key == "peak_rss") out.peak_rss = std::stoull(value);
        else if (key == "vm_peak") out.vm_peak = std::stoull(value);
        else if (key == "route_fp") out.route_fp = std::stoull(value);
        else if (key == "route_fp2") out.route_fp2 = std::stoull(value);
        else if (key == "route_fp8") out.route_fp8 = std::stoull(value);
        else if (key == "pps1") out.pps1 = std::stod(value);
        else if (key == "pps2") out.pps2 = std::stod(value);
        else if (key == "pps8") out.pps8 = std::stod(value);
    }
    return out.n == n;
}

int run_sweep(const std::string& exe, const std::vector<int>& sizes,
              const std::string& output_path, const std::string& label) {
    BenchJson json(output_path, label);
    if (!json.ok()) {
        std::cerr << "graph-io sweep: cannot open " << output_path << "\n";
        return 1;
    }

    const std::vector<std::string> modes = {"regen", "resident", "mmap-raw", "mmap-blob"};
    std::vector<Measurement> rows;
    bool identical = true;
    bool rss_improves = true;
    double largest_speedup = 0.0;
    for (const int n : sizes) {
        // Build both pack variants once per n; children only open them.
        const std::string raw_path = output_path + "." + std::to_string(n) + ".raw.pack";
        const std::string blob_path = output_path + "." + std::to_string(n) + ".blob.pack";
        PackOptions compressed;
        compressed.compress = true;
        (void)pack_girg_out_of_core(raw_path, pack_params(n), kVertexSeed);
        (void)pack_girg_out_of_core(blob_path, pack_params(n), kVertexSeed, {}, compressed);

        std::vector<Measurement> cell;
        for (const std::string& mode : modes) {
            const std::string pack_path = mode == "mmap-blob"  ? blob_path
                                          : mode == "regen"    ? "-"
                                                               : raw_path;
            Measurement m;
            if (!spawn_measure(exe, mode, n, pack_path, m)) return 1;
            cell.push_back(m);
        }
        std::remove(raw_path.c_str());
        std::remove(blob_path.c_str());

        for (const Measurement& m : cell) {
            // Outcome identity: every mode, every thread count, one digest.
            if (m.route_fp != cell.front().route_fp || m.route_fp2 != m.route_fp ||
                m.route_fp8 != m.route_fp) {
                std::cerr << "graph-io sweep: OUTCOME MISMATCH at n=" << m.n << " mode="
                          << m.mode << "\n";
                identical = false;
            }
        }
        const Measurement& regen = cell[0];
        const Measurement& resident = cell[1];
        const Measurement& raw = cell[2];
        const Measurement& blob = cell[3];
        const double speedup =
            raw.load_seconds > 0.0 ? regen.load_seconds / raw.load_seconds : 0.0;
        largest_speedup = speedup;
        if (raw.serving_rss() >= resident.serving_rss()) rss_improves = false;
        std::cerr << "graph-io sweep: n=" << n << " cold-load regen=" << regen.load_seconds
                  << "s resident=" << resident.load_seconds
                  << "s mmap-raw=" << raw.load_seconds << "s (speedup " << speedup
                  << "x) serving-rss resident=" << resident.serving_rss()
                  << " mmap-raw=" << raw.serving_rss() << " mmap-blob="
                  << blob.serving_rss() << " pack-ratio="
                  << (blob.adjacency_bytes > 0
                          ? static_cast<double>(raw.adjacency_bytes) /
                                static_cast<double>(blob.adjacency_bytes)
                          : 0.0)
                  << "\n";
        rows.insert(rows.end(), cell.begin(), cell.end());
    }

    json.field("dim", 2.0);
    json.field("alpha", 2.0);
    json.field("beta", 2.5);
    json.field("wmin", 2.0);
    json.field("vertex_seed", static_cast<double>(kVertexSeed));
    json.field("routed_pairs", static_cast<double>(kRoutedPairs));
    json.field("router", "phi-dfs");
    json.field("measurement",
               "one child per (mode, n); cold load = open + attribute/CSR setup; "
               "serving_rss = post-load snapshot (the resident-vs-mmap claim), "
               "peak_rss = process lifetime; routed-pairs/sec at 1/2/8 threads "
               "over the same pair set");
    json.field("identical_outcomes", identical ? "true" : "false");
    json.field("mmap_rss_below_resident", rss_improves ? "true" : "false");
    json.field("largest_n_coldload_speedup_vs_regen", largest_speedup);
    std::ostringstream results;
    results << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Measurement& r = rows[i];
        results << "    {\"n\": " << r.n << ", \"mode\": \"" << r.mode
                << "\", \"load_seconds\": " << r.load_seconds
                << ", \"file_bytes\": " << r.file_bytes
                << ", \"adjacency_bytes\": " << r.adjacency_bytes
                << ", \"baseline_rss_bytes\": " << r.baseline_rss
                << ", \"load_rss_bytes\": " << r.load_rss
                << ", \"peak_rss_bytes\": " << r.peak_rss
                << ", \"vm_peak_bytes\": " << r.vm_peak
                << ", \"serving_rss_bytes\": " << r.serving_rss()
                << ", \"working_rss_bytes\": " << r.working_rss()
                << ", \"pairs_per_second\": {\"t1\": " << r.pps1 << ", \"t2\": " << r.pps2
                << ", \"t8\": " << r.pps8 << "}"
                << ", \"outcome_fingerprint\": \"" << std::hex << r.route_fp << std::dec
                << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    results << "  ]";
    json.field_raw("results", results.str());
    json.close();
    std::cerr << "graph-io sweep: wrote " << output_path << "\n";
    return identical && rss_improves ? 0 : 1;
}

std::string self_executable(const char* argv0) {
#if defined(__linux__)
    char buffer[4096];
    const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (len > 0) {
        buffer[len] = '\0';
        return buffer;
    }
#endif
    return argv0;
}

}  // namespace
}  // namespace smallworld::bench

int main(int argc, char** argv) {
    using namespace smallworld::bench;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--measure" && i + 3 < argc) {
            const std::size_t pair_count =
                i + 4 < argc ? std::stoull(argv[i + 4]) : kRoutedPairs;
            return run_measure(argv[i + 1], std::stoi(argv[i + 2]), argv[i + 3],
                               pair_count);
        }
        if (arg == "--smoke") {
            const std::string path =
                i + 1 < argc ? argv[i + 1] : "BENCH_graph_io_smoke.json";
            return run_sweep(self_executable(argv[0]), {1 << 14, 1 << 15}, path,
                             "GRAPH_IO/smoke");
        }
        if (arg == "--sweep") {
            const std::string path = i + 1 < argc ? argv[i + 1] : "BENCH_graph_io.json";
            return run_sweep(self_executable(argv[0]),
                             {1 << 18, 1 << 19, 1 << 20, 1 << 21}, path,
                             "GRAPH_IO/sweep");
        }
    }
    return run_sweep(self_executable(argv[0]), {1 << 18, 1 << 19, 1 << 20, 1 << 21},
                     "BENCH_graph_io.json", "GRAPH_IO/sweep");
}
