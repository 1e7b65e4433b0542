#pragma once

#include <memory>
#include <span>

#include "core/check.h"
#include "girg/girg.h"
#include "girg/hub_rows.h"
#include "girg/phi_records.h"

namespace smallworld {

class PhiMemoPool;  // girg/phi_memo.h

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
    kScalar,  ///< scalar kernels, (norm, dim) dispatch hoisted to ctor
    kSimd,    ///< AVX2 kernels; construction aborts if the path cannot run
};

/// Construction-time evaluator options, threaded through the objective
/// factories (GirgObjective and friends take a trailing PhiOptions).
struct PhiOptions {
    PhiEvalMode mode = PhiEvalMode::kAuto;
    /// Unused: nothing memoizes phi, so there is no table to pool. Kept only
    /// so bench_e2e compiles; it goes with ROADMAP item 1's benchmark change.
    std::shared_ptr<PhiMemoPool> pool;
};

/// Non-virtual evaluator of the canonical objective
///
///   phi(v) = wv / (wmin * n * ||xv - xt||^d)
///
/// bound to one target. This is the hot-path kernel behind GirgObjective and
/// its derived objectives. Construction binds one kernel family (see
/// PhiEvalMode); both read the Girg's cache-aligned vertex records (shared
/// read-only across evaluators via Girg::phi_soa()) through (norm,
/// dim)-templated kernels, vectorized 8-wide under AVX2, so an evaluation
/// reads one record, one cache line. Both are bit-identical to
/// Girg::objective(v, position(target)): the division groups as
/// weights[v] / ((wmin * n) * dist^d) with wmin * n precomputed, which is
/// exactly the expression the original evaluated.
///
/// Every evaluation is a pure function of the records and the target, and
/// the evaluator holds no other state, so one evaluator may be read from
/// any number of threads.
class PhiEvaluator {
public:
    explicit PhiEvaluator(const Girg& girg, Vertex target, const PhiOptions& options = {})
        : records_(girg.phi_soa()), ctx_(girg, *records_, target) {
        PhiEvalMode mode = options.mode;
        if (mode == PhiEvalMode::kAuto) {
            mode = phi_simd_available() ? PhiEvalMode::kSimd : PhiEvalMode::kScalar;
        }
        GIRG_CHECK(mode != PhiEvalMode::kSimd || phi_simd_available(),
                   "PhiEvalMode::kSimd requested but the AVX2 path cannot run");
        ops_ = &phi_kernel_ops(girg.params.norm, ctx_.dim,
                               mode == PhiEvalMode::kSimd ? PhiKernel::kAvx2 : PhiKernel::kScalar);
        // Single-vertex probes always run the scalar compute; identical bits
        // to the vector lanes by the kernel contract.
        compute_ = phi_compute_fn(girg.params.norm, ctx_.dim);
    }

    [[nodiscard]] Vertex target() const noexcept { return ctx_.target; }
    [[nodiscard]] double weight(Vertex v) const noexcept {
        return records_->record(v)[records_->dim()];
    }

    /// phi(v); +infinity iff v is the target (or collides with it).
    [[nodiscard]] double value(Vertex v) const {
        GIRG_DCHECK(v < records_->size(), "phi of out-of-range vertex ", v);
        return compute_(ctx_, v);
    }

    /// Fills out[i] = value(vertices[i]) — one batched pass over a neighbor
    /// list (vectorized under AVX2).
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
    /// built from records() (HubRowSummary::built_from).
    [[nodiscard]] BestNeighbor best_above(const HubRowSummary& hubs, Vertex holder,
                                          std::span<const Vertex> row, double floor) const {
        const PhiBestLane lane = hubs.best_above(ctx_, ops_->best, holder, row, floor);
        if (lane.index == PhiBestLane::kNone) return {};
        return {row[lane.index], lane.value};
    }

    /// The vertex records this evaluator reads.
    [[nodiscard]] const PhiRecords* records() const noexcept { return records_.get(); }

private:
    std::shared_ptr<const PhiRecords> records_;  // before ctx_, which points into it
    PhiKernelCtx ctx_;
    const PhiKernelOps* ops_ = nullptr;
    PhiComputeFn compute_ = nullptr;
};

}  // namespace smallworld
