#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace smallworld::e2e {

/// The four workloads, in the order the all-workloads mode runs them. Why
/// each exists is in README.md and BENCHMARK.json.
inline const std::vector<std::string> kWorkloads = {"greedy_resident", "patching_hostile",
                                                    "serving_hotspot", "cold_pack_blob"};

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    /// Length of the measured phase. The phase always completes one full
    /// pass over the workload's queries (its outcome_fp and output checks
    /// cover exactly that pass), then repeats them until the time is up;
    /// 0 runs exactly one pass.
    double seconds = 10.0;
    /// Run the measured phase untraced and then traced, and report the
    /// per-layer metrics instead of the end-to-end ones.
    bool trace = false;
    bool smoke = false;     ///< n 2^12..2^14 and <= 2048 queries per workload
    unsigned clients = 0;   ///< closed-loop client threads; 0 = min(4, nproc)
    std::string work_dir = "bench_e2e_work";  ///< pack files, and traces under traces/
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

struct Report {
    std::string workload;
    std::vector<Metric> end_to_end;  ///< from the untraced measured phase
    std::vector<Metric> per_layer;   ///< traced runs only
    std::vector<std::string> notes;  ///< LAYER / SETUP / FAIL lines for humans
    std::uint64_t outcome_fp = 0;
    std::size_t attempted = 0;  ///< every query routed in the measured phase(s)
    std::size_t failed = 0;     ///< queries that failed an output check
};

/// Runs one workload: three set-ups (two of them in forked children, so
/// call it before starting any thread), then the measured phase (see
/// RunConfig). Aborts on an unknown workload name.
[[nodiscard]] Report run_workload(const RunConfig& config);

/// Closed-loop client threads of a run: config.clients, or min(4, nproc).
[[nodiscard]] unsigned client_count(const RunConfig& config);

/// Metric names exactly as BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
[[nodiscard]] const std::vector<std::string>& per_layer_names();

}  // namespace smallworld::e2e
