#include "reference_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/check.h"
#include "core/thread_pool.h"
#include "geometry/cells.h"
#include "geometry/morton.h"
#include "girg/edge_probability.h"
#include "girg/fast_sampler.h"
#include "graph/edge_stream.h"

// A copy of the layered cell sampler as it was before it split each slice
// once per node, sorted (code, vertex) records and ended type-II pairs by a
// bound (see reference_sampler.h). Besides namespaces and comments it
// differs only in the SamplerCoverage tallies, which observe and never
// steer. Keep the code as it is: it is the oracle.
namespace smallworld::reference {

namespace {

/// One weight layer: its vertices sorted by Morton code at the deepest
/// level, with the codes kept alongside for range extraction. Page-backed
/// (PageVector) because the layers together hold 12 bytes per vertex and
/// die before the CSR build — malloc free lists would keep that resident
/// straight through the generation pipeline's peak-memory window.
struct Layer {
    PageVector<std::uint64_t> codes;
    PageVector<Vertex> vertices;
    double weight_upper = 0.0;  // exclusive upper bound of the layer's weights

    [[nodiscard]] bool empty() const noexcept { return vertices.empty(); }
};

/// A contiguous slice of one layer's Morton-sorted vertex array — the
/// vertices of that layer inside one dyadic cell. Children slices are
/// found by binary search *within* the parent slice, so range extraction
/// gets cheaper as the recursion descends.
struct Slice {
    const std::uint64_t* codes = nullptr;
    const Vertex* vertices = nullptr;
    std::size_t count = 0;

    [[nodiscard]] Slice subrange(std::uint64_t lo, std::uint64_t hi) const noexcept {
        const std::uint64_t* begin = std::lower_bound(codes, codes + count, lo);
        const std::uint64_t* end = std::lower_bound(begin, codes + count, hi);
        return {begin, vertices + (begin - codes), static_cast<std::size_t>(end - begin)};
    }
};

/// One unit of parallel work: a (layer i, layer j) pair restricted to a
/// cell pair, exactly as the recursion would visit it. Tasks are collected
/// by a serial descent in a fixed order, so task index t is a deterministic
/// function of the instance alone — never of the thread count.
struct Task {
    int i = 0;
    int j = 0;
    int target = 0;
    Cell a;
    Cell b;
    std::uint64_t code_a = 0;
    std::uint64_t code_b = 0;
    Slice a_i, a_j, b_i, b_j;
};

/// Per-task mutable state: its own counter-seeded RNG stream and edge sink.
/// Sinks are spliced in task order afterwards, which makes the full edge
/// sequence byte-identical at any thread count.
struct TaskContext {
    Rng rng;
    ChunkedEdgeSink& sink;
};

class FastSampler {
public:
    FastSampler(const GirgParams& params, const std::vector<double>& weights,
                const PointCloud& positions, Rng& rng, SamplerCoverage* coverage)
        : params_(params), weights_(weights), positions_(positions), rng_(rng),
          coverage_(coverage) {
        GIRG_CHECK(coverage == nullptr || params.threads == 1,
                   "coverage tallies need a single-threaded run");
    }

    /// Runs the parallel recursion, every task emitting into its own sink
    /// (endpoints remapped through `relabel` when it is non-null), and
    /// returns the per-task chunk lists spliced in task order. The RNG draw
    /// sequence is streams() after collect_tasks(), skipped on an empty
    /// instance.
    ChunkedEdgeList run(const Vertex* relabel) {
        auto arena = std::make_shared<EdgeArena>();
        ChunkedEdgeList edges(arena);
        if (weights_.empty()) return edges;
        build_layers();
        collect_tasks();
        // Counter-seeded streams: task t's randomness depends only on the
        // parent generator's state and t, so the dynamic assignment of
        // tasks to threads cannot perturb the output.
        const RngStreams streams = rng_.streams();
        std::vector<ChunkedEdgeSink> sinks;
        sinks.reserve(tasks_.size());
        for (std::size_t t = 0; t < tasks_.size(); ++t) sinks.emplace_back(arena, relabel);
        parallel_for(
            tasks_.size(),
            [&](std::size_t t) {
                TaskContext ctx{streams.stream(t), sinks[t]};
                const Task& task = tasks_[t];
                process(task.i, task.j, task.target, task.a, task.code_a, task.b,
                        task.code_b, task.a_i, task.a_j, task.b_i, task.b_j, ctx);
                // Still on the producing thread: give the final chunk's
                // unused tail back while it is reclaimable (see finish()).
                ctx.sink.finish();
            },
            params_.threads, /*chunk=*/8);
        for (ChunkedEdgeSink& sink : sinks) edges.splice(sink.take());
        return edges;
    }

private:
    // ---- setup ---------------------------------------------------------

    void build_layers() {
        const double wmin = params_.wmin;
        double wmax = wmin;
        for (const double w : weights_) wmax = std::max(wmax, w);
        num_layers_ = 1 + static_cast<int>(std::floor(std::log2(wmax / wmin)));

        // Deepest partition level: the target level of the lightest layer
        // pair; deeper cells would never be inspected. Also bounded so the
        // Morton codes fit and the expected cell occupancy stays Theta(1).
        deepest_ = std::min({target_level_unclamped(0, 0), kMaxLevel, max_level_for_count()});
        deepest_ = std::max(deepest_, 0);

        layers_.assign(static_cast<std::size_t>(num_layers_), Layer{});
        for (int i = 0; i < num_layers_; ++i) {
            // LINT-ALLOW(pow): once per layer at construction, not per edge
            layers_[static_cast<std::size_t>(i)].weight_upper =
                wmin * std::pow(2.0, static_cast<double>(i + 1));
        }
        const auto n = static_cast<Vertex>(weights_.size());
        for (Vertex v = 0; v < n; ++v) {
            auto& layer = layers_[static_cast<std::size_t>(layer_of(weights_[v]))];
            layer.codes.push_back(morton_of_point(positions_.point(v), params_.dim, deepest_));
            layer.vertices.push_back(v);
        }
        for (auto& layer : layers_) {
            PageVector<std::size_t> order(layer.vertices.size());
            for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
            std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
                return layer.codes[a] < layer.codes[b];
            });
            PageVector<std::uint64_t> codes(order.size());
            PageVector<Vertex> vertices(order.size());
            for (std::size_t k = 0; k < order.size(); ++k) {
                codes[k] = layer.codes[order[k]];
                vertices[k] = layer.vertices[order[k]];
            }
            layer.codes = std::move(codes);
            layer.vertices = std::move(vertices);
            if (coverage_ != nullptr) {
                for (std::size_t k = 1; k < layer.codes.size(); ++k) {
                    if (layer.codes[k] == layer.codes[k - 1]) ++coverage_->layer_sort_ties;
                }
            }
        }
    }

    [[nodiscard]] Slice full_slice(int i) const noexcept {
        const Layer& layer = layers_[static_cast<std::size_t>(i)];
        return {layer.codes.data(), layer.vertices.data(), layer.codes.size()};
    }

    [[nodiscard]] int layer_of(double w) const noexcept {
        const int i = static_cast<int>(std::floor(std::log2(w / params_.wmin)));
        return std::clamp(i, 0, num_layers_ - 1);
    }

    /// Threshold volume of a layer pair using the layers' upper weights.
    [[nodiscard]] double pair_volume(int i, int j) const noexcept {
        // LINT-ALLOW(pow): once per layer pair (O(log^2 n) calls), not per edge
        const double wi = params_.wmin * std::pow(2.0, static_cast<double>(i + 1));
        const double wj = params_.wmin * std::pow(2.0, static_cast<double>(j + 1));
        return std::min(1.0, params_.edge_scale * wi * wj / (params_.wmin * params_.n));
    }

    /// Largest level l with cell volume 2^{-dl} >= pair threshold volume.
    [[nodiscard]] int target_level_unclamped(int i, int j) const noexcept {
        const double v = pair_volume(i, j);
        if (v >= 1.0) return 0;
        return static_cast<int>(std::floor(std::log2(1.0 / v) / params_.dim));
    }

    [[nodiscard]] int target_level(int i, int j) const noexcept {
        return std::clamp(target_level_unclamped(i, j), 0, deepest_);
    }

    /// Cap so the implicit cell tree has O(n) leaves even for tiny wmin.
    [[nodiscard]] int max_level_for_count() const noexcept {
        const double cells = std::max(1.0, static_cast<double>(weights_.size()));
        return static_cast<int>(std::floor(std::log2(cells) / params_.dim));
    }

    // ---- task collection -----------------------------------------------

    /// Level at which layer-pair subtrees are cut into tasks: deep enough
    /// for load balance (at most ~64 cells, so a few hundred cell pairs per
    /// layer pair before slice pruning), never past the pair's target.
    [[nodiscard]] int split_level() const noexcept { return 6 / params_.dim; }

    void collect_tasks() {
        const Cell root;
        for (int i = 0; i < num_layers_; ++i) {
            if (layers_[static_cast<std::size_t>(i)].empty()) continue;
            for (int j = i; j < num_layers_; ++j) {
                if (layers_[static_cast<std::size_t>(j)].empty()) continue;
                const int target = target_level(i, j);
                const int split = std::min(target, split_level());
                collect(i, j, target, split, root, 0, root, 0, full_slice(i),
                        full_slice(j), full_slice(i), full_slice(j));
            }
        }
    }

    /// Descends exactly like process() down to the split level, emitting a
    /// task for every subtree (touching pair at the split level) or type-II
    /// pair (first non-touching pair) reached. Because the descent prunes
    /// on the same slice-emptiness conditions, the union of the emitted
    /// tasks covers every vertex pair exactly once, as the serial recursion
    /// did.
    void collect(int i, int j, int target, int split, const Cell& a,  // NOLINT
                 std::uint64_t code_a, const Cell& b, std::uint64_t code_b,
                 const Slice& a_i, const Slice& a_j, const Slice& b_i, const Slice& b_j) {
        const bool same_cell = code_a == code_b;
        const bool dir1 = a_i.count > 0 && b_j.count > 0;
        const bool dir2 = i != j && !same_cell && a_j.count > 0 && b_i.count > 0;
        if (!dir1 && !dir2) return;

        if (!cells_touch(a, b, params_.dim) || a.level >= split) {
            tasks_.push_back({i, j, target, a, b, code_a, code_b, a_i, a_j, b_i, b_j});
            return;
        }

        const unsigned fanout = 1U << params_.dim;
        const int shift = params_.dim * (deepest_ - a.level - 1);
        const std::uint64_t base_a = code_a << params_.dim;
        const std::uint64_t base_b = code_b << params_.dim;
        for (unsigned ka = 0; ka < fanout; ++ka) {
            const std::uint64_t lo_a = (base_a + ka) << shift;
            const std::uint64_t hi_a = lo_a + (std::uint64_t{1} << shift);
            const Slice ca_i = a_i.subrange(lo_a, hi_a);
            const Slice ca_j = i == j ? ca_i : a_j.subrange(lo_a, hi_a);
            if (ca_i.count == 0 && ca_j.count == 0) continue;
            const Cell ca = cell_child(a, params_.dim, ka);
            for (unsigned kb = same_cell ? ka : 0U; kb < fanout; ++kb) {
                const std::uint64_t lo_b = (base_b + kb) << shift;
                const std::uint64_t hi_b = lo_b + (std::uint64_t{1} << shift);
                const Slice cb_i = b_i.subrange(lo_b, hi_b);
                const Slice cb_j = i == j ? cb_i : b_j.subrange(lo_b, hi_b);
                if (cb_i.count == 0 && cb_j.count == 0) continue;
                const Cell cb = cell_child(b, params_.dim, kb);
                collect(i, j, target, split, ca, base_a + ka, cb, base_b + kb, ca_i,
                        ca_j, cb_i, cb_j);
            }
        }
    }

    // ---- edge checks ---------------------------------------------------

    [[nodiscard]] double exact_probability(Vertex u, Vertex v) const noexcept {
        return girg_edge_probability(params_, weights_[u], weights_[v], positions_.point(u),
                                     positions_.point(v));
    }

    void check_pair(Vertex u, Vertex v, TaskContext& ctx) const {
        if (ctx.rng.bernoulli(exact_probability(u, v))) ctx.sink.emit(u, v);
    }

    // ---- recursion per layer pair ---------------------------------------

    /// Handles the layer pair (i, j) restricted to cells a and b (with their
    /// Morton codes threaded through to avoid re-encoding), where a_i/a_j
    /// are layer i/j's vertices in a and b_i/b_j in b. Invariant on entry:
    /// the chain of ancestors of (a, b) all touch.
    void process(int i, int j, int target, const Cell& a, std::uint64_t code_a,  // NOLINT
                 const Cell& b, std::uint64_t code_b, const Slice& a_i, const Slice& a_j,
                 const Slice& b_i, const Slice& b_j, TaskContext& ctx) const {
        const bool same_cell = code_a == code_b;
        // A candidate pair needs a layer-i vertex on one side and a layer-j
        // vertex on the other (for same_cell both live in a).
        const bool dir1 = a_i.count > 0 && b_j.count > 0;
        const bool dir2 = i != j && !same_cell && a_j.count > 0 && b_i.count > 0;
        if (!dir1 && !dir2) return;

        if (cells_touch(a, b, params_.dim)) {
            if (a.level == target) {
                sample_type1(same_cell, i, j, a_i, a_j, b_i, b_j, ctx);
                return;
            }
            // Descend into all child cell pairs (unordered when a == b).
            const unsigned fanout = 1U << params_.dim;
            const int shift = params_.dim * (deepest_ - a.level - 1);
            const std::uint64_t base_a = code_a << params_.dim;
            const std::uint64_t base_b = code_b << params_.dim;
            for (unsigned ka = 0; ka < fanout; ++ka) {
                const std::uint64_t lo_a = (base_a + ka) << shift;
                const std::uint64_t hi_a = lo_a + (std::uint64_t{1} << shift);
                const Slice ca_i = a_i.subrange(lo_a, hi_a);
                const Slice ca_j =
                    i == j ? ca_i : a_j.subrange(lo_a, hi_a);
                if (ca_i.count == 0 && ca_j.count == 0) continue;
                const Cell ca = cell_child(a, params_.dim, ka);
                for (unsigned kb = same_cell ? ka : 0U; kb < fanout; ++kb) {
                    const std::uint64_t lo_b = (base_b + kb) << shift;
                    const std::uint64_t hi_b = lo_b + (std::uint64_t{1} << shift);
                    const Slice cb_i = b_i.subrange(lo_b, hi_b);
                    const Slice cb_j = i == j ? cb_i : b_j.subrange(lo_b, hi_b);
                    if (cb_i.count == 0 && cb_j.count == 0) continue;
                    const Cell cb = cell_child(b, params_.dim, kb);
                    process(i, j, target, ca, base_a + ka, cb, base_b + kb, ca_i, ca_j,
                            cb_i, cb_j, ctx);
                }
            }
            return;
        }

        // Type II: the cells separated at this level (<= target); bound the
        // kernel by the layers' max weights and the cells' min distance and
        // enumerate candidate pairs with geometric jumps.
        const double min_distance = cell_min_distance(a, b, params_.dim);
        const double wi = layers_[static_cast<std::size_t>(i)].weight_upper;
        const double wj = layers_[static_cast<std::size_t>(j)].weight_upper;
        const double pbar = girg_edge_probability(params_, wi * wj, min_distance);
        if (pbar <= 0.0) return;
        if (dir1) sample_type2_direction(a_i, b_j, pbar, ctx);
        if (dir2) sample_type2_direction(a_j, b_i, pbar, ctx);
    }

    // ---- type I: exhaustive at the target level -------------------------

    void cross_check(const Slice& ra, const Slice& rb, TaskContext& ctx) const {
        for (std::size_t p = 0; p < ra.count; ++p) {
            for (std::size_t q = 0; q < rb.count; ++q) {
                check_pair(ra.vertices[p], rb.vertices[q], ctx);
            }
        }
    }

    void sample_type1(bool same_cell, int i, int j, const Slice& a_i, const Slice& a_j,
                      const Slice& b_i, const Slice& b_j, TaskContext& ctx) const {
        if (same_cell && i == j) {
            for (std::size_t p = 0; p < a_i.count; ++p) {
                for (std::size_t q = p + 1; q < a_i.count; ++q) {
                    check_pair(a_i.vertices[p], a_i.vertices[q], ctx);
                }
            }
            return;
        }
        cross_check(a_i, b_j, ctx);
        // Mirror direction: layer j in a against layer i in b.
        if (!same_cell && i != j) cross_check(a_j, b_i, ctx);
    }

    // ---- type II: geometric jumps over distant cell pairs ---------------

    void sample_type2_direction(const Slice& ra, const Slice& rb, double pbar,
                                TaskContext& ctx) const {
        const std::uint64_t total =
            static_cast<std::uint64_t>(ra.count) * static_cast<std::uint64_t>(rb.count);
        if (coverage_ != nullptr && pbar >= 1.0) ++coverage_->pbar_at_least_one;
        std::uint64_t k = observed_skip(ctx.rng, pbar, total);
        while (k < total) {
            const Vertex u = ra.vertices[k / rb.count];
            const Vertex v = rb.vertices[k % rb.count];
            const double p = exact_probability(u, v);
            // p <= pbar by construction (weights below the layer bound,
            // distance above the cell bound).
            if (ctx.rng.bernoulli(p / pbar)) ctx.sink.emit(u, v);
            k += 1 + observed_skip(ctx.rng, pbar, total - k - 1);
        }
    }

    /// rng.geometric_skip(pbar), tallying (from a copy of the generator)
    /// which way a skip past all `remaining` candidates is decided.
    std::uint64_t observed_skip(Rng& rng, double pbar, std::uint64_t remaining) const {
        if (coverage_ == nullptr || pbar >= 1.0) return rng.geometric_skip(pbar);
        Rng peek = rng;
        double u = peek.uniform();
        if (u <= 0.0) u = 0x1.0p-53;
        const std::uint64_t skip = rng.geometric_skip(pbar);
        const bool bound = detail::skip_surely_reaches(u, remaining, pbar);
        if (skip >= remaining) {
            ++(bound ? coverage_->bound_rejects : coverage_->log_rejects);
        } else if (bound) {
            ++coverage_->bound_errors;
        }
        return skip;
    }

    const GirgParams& params_;
    const std::vector<double>& weights_;
    const PointCloud& positions_;
    Rng& rng_;
    SamplerCoverage* coverage_;

    int num_layers_ = 0;
    int deepest_ = 0;
    std::vector<Layer> layers_;
    std::vector<Task> tasks_;
};

}  // namespace

std::vector<Edge> sample_edges_fast(const GirgParams& params,
                                    const std::vector<double>& weights,
                                    const PointCloud& positions, Rng& rng,
                                    SamplerCoverage* coverage) {
    GIRG_CHECK(weights.size() == positions.count(), "weights ", weights.size(),
               " vs positions ", positions.count());
    GIRG_CHECK(positions.dim == params.dim, "dim mismatch");
    return FastSampler(params, weights, positions, rng, coverage).run(nullptr).to_vector();
}

ChunkedEdgeList sample_edges_fast_stream(const GirgParams& params,
                                         const std::vector<double>& weights,
                                         const PointCloud& positions, Rng& rng,
                                         const Vertex* relabel) {
    GIRG_CHECK(weights.size() == positions.count(), "weights ", weights.size(),
               " vs positions ", positions.count());
    GIRG_CHECK(positions.dim == params.dim, "dim mismatch");
    return FastSampler(params, weights, positions, rng, nullptr).run(relabel);
}

}  // namespace smallworld::reference
