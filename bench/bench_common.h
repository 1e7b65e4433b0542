#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/annotations.h"
#include "core/objective.h"
#include "core/thread_pool.h"
#include "experiments/memory.h"
#include "experiments/runner.h"
#include "girg/generator.h"

namespace smallworld::bench {

/// Scale factor for bench workloads: SMALLWORLD_BENCH_SCALE=4 quadruples the
/// base graph sizes (the shipped defaults finish the whole bench suite in a
/// few minutes on a laptop).
inline double bench_scale() {
    static const double scale = [] {
        const char* env = std::getenv("SMALLWORLD_BENCH_SCALE");
        if (env == nullptr) return 1.0;
        const double parsed = std::atof(env);
        return parsed > 0.0 ? parsed : 1.0;
    }();
    return scale;
}

/// Process-wide cache of generated GIRGs so every sweep point of every
/// registered benchmark reuses the instance instead of re-sampling it.
inline const Girg& cached_girg(const GirgParams& params, std::uint64_t seed) {
    static Mutex mutex;
    static std::map<std::string, std::unique_ptr<Girg>> cache;
    std::ostringstream key;
    key << params.n << '|' << params.dim << '|' << params.alpha << '|' << params.beta
        << '|' << params.wmin << '|' << params.edge_scale << '|' << seed;
    const MutexLock lock(mutex);
    auto& slot = cache[key.str()];
    if (!slot) slot = std::make_unique<Girg>(generate_girg(params, seed));
    return *slot;
}

/// Publishes the trial aggregate as benchmark counters (the "row" of the
/// reproduced series).
inline void report_stats(benchmark::State& state, const TrialStats& stats) {
    state.counters["success"] = stats.success_rate();
    state.counters["success_in_comp"] = stats.in_component_success_rate();
    state.counters["hops_mean"] = stats.hops.mean();
    state.counters["hops_max"] = stats.hops.max();
    state.counters["stretch_mean"] = stats.stretch.mean();
    state.counters["bfs_mean"] = stats.bfs_distance.mean();
    state.counters["attempts"] = static_cast<double>(stats.attempts);
}

/// Writer for the committed `BENCH_*.json` artifacts. Every file gets the
/// same provenance header — benchmark name, git SHA (compiled in via the
/// SMALLWORLD_GIT_SHA definition), compiler, the shared pool's thread count,
/// and the hardware concurrency — so a recorded number is always traceable
/// to the tree, toolchain, and machine that produced it. After the header,
/// callers append scalar fields and raw-JSON arrays, then close() (also run
/// by the destructor) writes the footer.
class BenchJson {
public:
    BenchJson(const std::string& path, const std::string& benchmark_name)
        : out_(path) {
        if (!out_) return;
        out_ << "{\n";
        field("benchmark", benchmark_name);
        field("git_sha",
#ifdef SMALLWORLD_GIT_SHA
              SMALLWORLD_GIT_SHA
#else
              "unknown"
#endif
        );
        field("compiler", compiler_string());
        field("pool_threads",
              static_cast<double>(ThreadPool::shared().workers() + 1));
        field("hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));
    }
    ~BenchJson() { close(); }

    BenchJson(const BenchJson&) = delete;
    BenchJson& operator=(const BenchJson&) = delete;

    /// False when the output path could not be opened; callers should bail
    /// before measuring anything.
    [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

    void field(const std::string& key, const std::string& value) {
        separator();
        out_ << "  \"" << key << "\": \"" << value << '"';
    }
    void field(const std::string& key, double value) {
        separator();
        out_ << "  \"" << key << "\": " << value;
    }
    /// Verbatim JSON (arrays, nested objects) under `key`.
    void field_raw(const std::string& key, const std::string& raw_json) {
        separator();
        out_ << "  \"" << key << "\": " << raw_json;
    }

    void close() {
        if (closed_ || !out_) return;
        // Stamp process-wide memory counters last, so they reflect the whole
        // run that produced this file (ru_maxrss is a lifetime high-water
        // mark; nonzero major faults flag a swap-polluted measurement).
        field("peak_rss_bytes", static_cast<double>(peak_rss_bytes()));
        field("major_page_faults", static_cast<double>(major_page_faults()));
        out_ << "\n}\n";
        closed_ = true;
    }

    [[nodiscard]] static std::string compiler_string() {
#if defined(__clang__)
        return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
        return std::string("gcc ") + __VERSION__;
#else
        return "unknown";
#endif
    }

private:
    void separator() {
        if (any_field_) out_ << ",\n";
        any_field_ = true;
    }

    std::ofstream out_;
    bool any_field_ = false;
    bool closed_ = false;
};

inline GirgParams standard_params(double n, double beta, double alpha, double wmin,
                                  int dim = 2) {
    GirgParams params;
    params.n = n;
    params.dim = dim;
    params.alpha = alpha;
    params.beta = beta;
    params.wmin = wmin;
    params.edge_scale = calibrated_edge_scale(params);
    return params;
}

/// Forwards everything but Objective::best_above, so a walk's argmax over
/// it runs the default, the full scan of best_of filtered by the floor,
/// afresh at every wake: the reference for the pruned argmax and the
/// decisions GirgObjective remembers.
class FullScanObjective final : public Objective {
public:
    explicit FullScanObjective(std::unique_ptr<Objective> base) : base_(std::move(base)) {}

    [[nodiscard]] double value(Vertex v) const override { return base_->value(v); }
    [[nodiscard]] Vertex target() const override { return base_->target(); }
    void values(std::span<const Vertex> vertices, double* out) const override {
        base_->values(vertices, out);
    }
    [[nodiscard]] BestNeighbor best_of(std::span<const Vertex> vertices) const override {
        return base_->best_of(vertices);
    }

private:
    std::unique_ptr<Objective> base_;
};

}  // namespace smallworld::bench
