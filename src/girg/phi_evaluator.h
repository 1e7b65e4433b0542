#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "core/check.h"
#include "geometry/torus.h"
#include "girg/girg.h"
#include "girg/hub_rows.h"
#include "girg/phi_memo.h"
#include "girg/phi_soa.h"

namespace smallworld {

/// Result of a batched argmax over a neighbor list: the first maximizer in
/// list order and its objective value (kNoVertex / 0.0 for an empty list).
struct BestNeighbor {
    Vertex vertex = kNoVertex;
    double value = 0.0;
};

/// How a PhiEvaluator evaluates. All modes produce bit-identical values,
/// best_of choices, and therefore RoutingResults — asserted by
/// tests/phi_simd_test.cpp and per bench cell.
enum class PhiEvalMode {
    kAuto,    ///< AVX2 kernels when phi_simd_available(), scalar otherwise
    kScalar,  ///< SoA scalar kernels, (norm, dim) dispatch hoisted to ctor
    kSimd,    ///< AVX2 kernels; construction aborts if the path cannot run
};

/// Construction-time evaluator options, threaded through the objective
/// factories (GirgObjective and friends take a trailing PhiOptions).
struct PhiOptions {
    PhiEvalMode mode = PhiEvalMode::kAuto;
    /// Cohort-shared memo tables: when set, the evaluator acquires a
    /// recycled NaN-sentinel table from the pool (O(touched) reset instead
    /// of an O(n) refill) and returns it on destruction. Memoized phi is a
    /// pure function of the vertex attributes, so pooling affects allocation
    /// traffic only, never values.
    std::shared_ptr<PhiMemoPool> pool;
};

/// Non-virtual, memoizing evaluator of the canonical objective
///
///   phi(v) = wv / (wmin * n * ||xv - xt||^d)
///
/// bound to one target. This is the hot-path kernel behind GirgObjective and
/// its derived objectives. Construction binds one kernel family (see
/// PhiEvalMode); both read the Girg's cache-aligned attribute planes (shared
/// read-only across evaluators via Girg::phi_soa()) through (norm,
/// dim)-templated kernels, vectorized 8-wide under AVX2. Both are
/// bit-identical to Girg::objective(v, position(target)): the division
/// groups as weights[v] / ((wmin * n) * dist^d) with wmin * n precomputed,
/// which is exactly the expression the original evaluated.
///
/// The memo makes evaluation non-thread-safe: use one evaluator (one
/// objective instance) per worker. Memoized values are pure functions of the
/// vertex attributes, so independent memos always agree.
class PhiEvaluator {
public:
    explicit PhiEvaluator(const Girg& girg, Vertex target, const PhiOptions& options = {})
        : pool_(options.pool) {
        const std::size_t n = girg.weights.size();
        GIRG_CHECK(target < n, "phi target ", target, " >= n=", n);
        PhiEvalMode mode = options.mode;
        if (mode == PhiEvalMode::kAuto) {
            mode = phi_simd_available() ? PhiEvalMode::kSimd : PhiEvalMode::kScalar;
        }
        GIRG_CHECK(mode != PhiEvalMode::kSimd || phi_simd_available(),
                   "PhiEvalMode::kSimd requested but the AVX2 path cannot run");
        soa_ = girg.phi_soa();
        ctx_.weights = soa_->weight_plane();
        ctx_.wn = girg.params.wmin * girg.params.n;
        ctx_.dim = girg.params.dim;
        ctx_.target = target;
        const double* t = girg.position(target);
        for (int axis = 0; axis < ctx_.dim; ++axis) {
            ctx_.axes[axis] = soa_->axis_plane(axis);
            ctx_.target_position[axis] = t[axis];
        }
        ops_ = &phi_kernel_ops(girg.params.norm, ctx_.dim,
                               mode == PhiEvalMode::kSimd ? PhiKernel::kAvx2 : PhiKernel::kScalar);
        // Single-vertex probes always run the scalar compute; identical bits
        // to the vector lanes by the kernel contract.
        compute_ = phi_compute_fn(girg.params.norm, ctx_.dim);
        table_ = pool_ != nullptr ? pool_->acquire(n) : std::make_unique<PhiMemoTable>(n);
        ctx_.memo = table_->data();
        ctx_.touched = table_->touched();
    }

    ~PhiEvaluator() {
        if (pool_ != nullptr) pool_->release(std::move(table_));
    }

    // The kernel context points into the memo table; copying would alias it.
    PhiEvaluator(const PhiEvaluator&) = delete;
    PhiEvaluator& operator=(const PhiEvaluator&) = delete;
    PhiEvaluator(PhiEvaluator&&) = delete;
    PhiEvaluator& operator=(PhiEvaluator&&) = delete;

    [[nodiscard]] Vertex target() const noexcept { return ctx_.target; }
    [[nodiscard]] double weight(Vertex v) const noexcept { return ctx_.weights[v]; }

    /// phi(v), memoized; +infinity iff v is the target (or collides with it).
    [[nodiscard]] double value(Vertex v) const {
        GIRG_DCHECK(v < table_->size(), "phi of out-of-range vertex ", v);
        double& slot = ctx_.memo[v];
        if (std::isnan(slot)) {
            slot = compute_(ctx_, v);
            ctx_.touched->push_back(v);
        }
        return slot;
    }

    /// Fills out[i] = value(vertices[i]) — one batched pass over a neighbor
    /// list (vectorized under AVX2, bulk-computed when the memo is cold).
    void values(std::span<const Vertex> vertices, double* out) const {
        ops_->values(ctx_, vertices.data(), vertices.size(), out);
    }

    /// First maximizer of phi over `vertices` in list order (ties toward the
    /// earlier entry, i.e. the smaller id on sorted CSR neighbor lists).
    [[nodiscard]] BestNeighbor best_of(std::span<const Vertex> vertices) const {
        const PhiBestLane lane = ops_->best(ctx_, vertices.data(), vertices.size());
        if (lane.index == PhiBestLane::kNone) return {};
        return {vertices[lane.index], lane.value};
    }

    /// best_of over `row`, `holder`'s row in the graph `hubs` summarizes,
    /// among the entries whose phi exceeds `floor` ({kNoVertex, 0.0} when
    /// none does), skipping the blocks that cannot win. `hubs` must be
    /// built from soa() (HubRowSummary::built_from).
    [[nodiscard]] BestNeighbor best_above(const HubRowSummary& hubs, Vertex holder,
                                          std::span<const Vertex> row, double floor) const {
        const PhiBestLane lane = hubs.best_above(ctx_, ops_->best, holder, row, floor);
        if (lane.index == PhiBestLane::kNone) return {};
        return {row[lane.index], lane.value};
    }

    /// The attribute planes this evaluator reads.
    [[nodiscard]] const PhiSoA* soa() const noexcept { return soa_.get(); }

private:
    PhiKernelCtx ctx_;
    const PhiKernelOps* ops_ = nullptr;
    PhiComputeFn compute_ = nullptr;
    std::shared_ptr<const PhiSoA> soa_;
    std::shared_ptr<PhiMemoPool> pool_;
    std::unique_ptr<PhiMemoTable> table_;
};

}  // namespace smallworld
