// EXP-SCALE — generation peak memory of the streaming pipeline: chunked
// edge sinks (graph/edge_stream.h) feeding the CSR build directly, with the
// Morton relabeling fused into emission. Reports, per n, the generation
// peak RSS as a ratio of the finished instance's heap footprint, with an
// FNV fingerprint of the instance (weights, coordinates, CSR) per row.
//
// ru_maxrss is a process-lifetime high-water mark, so each n runs in its
// own child process: the parent re-executes this binary with
// `--measure <n>` and parses one key=value result line. Modes:
//
//   --measure <n> [threads]  one measurement (child)
//   --sweep [output.json]    n = 2^17..2^22, writes BENCH_generator_memory.json
//   --smoke [output.json]    n = 2^14..2^15, same format (CI-sized)
//
// Running with no arguments performs the full sweep.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bench_common.h"
#include "experiments/memory.h"
#include "girg/fingerprint.h"
#include "girg/generator.h"

namespace smallworld::bench {
namespace {

constexpr std::uint64_t kVertexSeed = 22001;


/// Child mode: generate one instance and print a parseable result line.
int run_measure(int n, unsigned threads) {
    GirgParams params = standard_params(static_cast<double>(n), 2.5, 2.0, 2.0, 2);
    params.threads = threads;

    const std::size_t baseline = current_rss_bytes();
    const auto start = std::chrono::steady_clock::now();
    const Girg girg = generate_girg(params, kVertexSeed);
    const auto stop = std::chrono::steady_clock::now();

    std::cout << "RESULT n=" << n
              << " seconds=" << std::chrono::duration<double>(stop - start).count()
              << " edges=" << girg.graph.num_edges()
              << " girg_bytes=" << girg.memory_bytes()
              << " baseline_rss=" << baseline
              << " peak_rss=" << peak_rss_bytes()
              << " vm_peak=" << peak_vm_bytes()
              << " major_faults=" << major_page_faults()
              << " fingerprint=" << girg_fingerprint(girg) << "\n";
    return 0;
}

struct Measurement {
    int n = 0;
    double seconds = 0.0;
    std::size_t edges = 0;
    std::size_t girg_bytes = 0;
    std::size_t baseline_rss = 0;
    std::size_t peak_rss = 0;
    std::size_t vm_peak = 0;
    std::size_t major_faults = 0;
    std::uint64_t fingerprint = 0;

    /// Generation working set over the instance's own footprint. The child's
    /// pre-generation RSS (runtime + binary) is subtracted so small n aren't
    /// dominated by the constant ~10 MB process baseline.
    [[nodiscard]] double ratio() const {
        const std::size_t working = peak_rss > baseline_rss ? peak_rss - baseline_rss : 0;
        return girg_bytes == 0 ? 0.0
                               : static_cast<double>(working) / static_cast<double>(girg_bytes);
    }
};

/// Parent side of one measurement: re-exec this binary and parse the line.
bool spawn_measure(const std::string& exe, int n, Measurement& out) {
    const std::string command = exe + " --measure " + std::to_string(n);
    std::FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) {
        std::cerr << "memory sweep: popen failed for: " << command << "\n";
        return false;
    }
    std::string output;
    char buffer[512];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
    const int status = ::pclose(pipe);
    if (status != 0) {
        std::cerr << "memory sweep: child exited with status " << status << ": "
                  << command << "\n";
        return false;
    }

    const std::size_t line_start = output.find("RESULT ");
    if (line_start == std::string::npos) {
        std::cerr << "memory sweep: no RESULT line from: " << command << "\n";
        return false;
    }
    std::istringstream tokens(output.substr(line_start + 7));
    out = Measurement{};
    std::string token;
    while (tokens >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "n") out.n = std::stoi(value);
        else if (key == "seconds") out.seconds = std::stod(value);
        else if (key == "edges") out.edges = std::stoull(value);
        else if (key == "girg_bytes") out.girg_bytes = std::stoull(value);
        else if (key == "baseline_rss") out.baseline_rss = std::stoull(value);
        else if (key == "peak_rss") out.peak_rss = std::stoull(value);
        else if (key == "vm_peak") out.vm_peak = std::stoull(value);
        else if (key == "major_faults") out.major_faults = std::stoull(value);
        else if (key == "fingerprint") out.fingerprint = std::stoull(value);
    }
    return out.n == n;
}

int run_sweep(const std::string& exe, const std::vector<int>& sizes,
              const std::string& output_path, const std::string& label) {
    BenchJson json(output_path, label);
    if (!json.ok()) {
        std::cerr << "memory sweep: cannot open " << output_path << "\n";
        return 1;
    }

    std::vector<Measurement> rows;
    for (const int n : sizes) {
        Measurement row;
        if (!spawn_measure(exe, n, row)) return 1;
        std::cerr << "memory sweep: n=" << n << " ratio=" << row.ratio() << " (peak "
                  << row.peak_rss << " bytes)\n";
        rows.push_back(row);
    }

    json.field("dim", 2.0);
    json.field("alpha", 2.0);
    json.field("beta", 2.5);
    json.field("wmin", 2.0);
    json.field("vertex_seed", static_cast<double>(kVertexSeed));
    json.field("measurement", "one child process per n; peak_rss = ru_maxrss of the child");
    json.field("ratio_definition",
               "(peak_rss_bytes - baseline_rss_bytes) / girg_heap_bytes");
    std::ostringstream results;
    results << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Measurement& r = rows[i];
        results << "    {\"n\": " << r.n << ", \"seconds\": " << r.seconds
                << ", \"edges\": " << r.edges
                << ", \"girg_heap_bytes\": " << r.girg_bytes
                << ", \"baseline_rss_bytes\": " << r.baseline_rss
                << ", \"peak_rss_bytes\": " << r.peak_rss
                << ", \"vm_peak_bytes\": " << r.vm_peak
                << ", \"major_page_faults\": " << r.major_faults
                << ", \"ratio\": " << r.ratio() << ", \"fingerprint\": \"" << std::hex
                << r.fingerprint << std::dec << "\"}"
                << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    results << "  ]";
    json.field_raw("results", results.str());
    json.close();
    std::cerr << "memory sweep: wrote " << output_path << "\n";
    return 0;
}

/// The parent must re-exec *itself*; /proc/self/exe is exact on Linux,
/// argv[0] is the portable fallback.
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
        if (arg == "--measure" && i + 1 < argc) {
            const unsigned threads =
                i + 2 < argc ? static_cast<unsigned>(std::stoul(argv[i + 2])) : 0;
            return run_measure(std::stoi(argv[i + 1]), threads);
        }
        if (arg == "--smoke") {
            const std::string path =
                i + 1 < argc ? argv[i + 1] : "BENCH_generator_memory_smoke.json";
            return run_sweep(self_executable(argv[0]), {1 << 14, 1 << 15}, path,
                             "GEN_Memory/smoke");
        }
        if (arg == "--sweep") {
            const std::string path =
                i + 1 < argc ? argv[i + 1] : "BENCH_generator_memory.json";
            return run_sweep(self_executable(argv[0]),
                             {1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22},
                             path, "GEN_Memory/sweep");
        }
    }
    return run_sweep(self_executable(argv[0]),
                     {1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22},
                     "BENCH_generator_memory.json", "GEN_Memory/sweep");
}
