#include "girg/hub_rows.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "core/check.h"
#include "girg/phi_kernels_inl.h"

namespace smallworld {

namespace {

using detail::kPhiInf;
using detail::phi_dist_pow;

/// The largest float <= x.
float round_down(double x) noexcept {
    if (x >= static_cast<double>(std::numeric_limits<float>::max())) {
        return std::numeric_limits<float>::max();
    }
    float f = static_cast<float>(x);
    if (static_cast<double>(f) > x) f = std::nextafter(f, -std::numeric_limits<float>::infinity());
    return f;
}

/// The smallest float >= x (+inf beyond the float range).
float round_up(double x) noexcept {
    if (x > static_cast<double>(std::numeric_limits<float>::max())) {
        return std::numeric_limits<float>::infinity();
    }
    float f = static_cast<float>(x);
    if (static_cast<double>(f) < x) f = std::nextafter(f, std::numeric_limits<float>::infinity());
    return f;
}

/// An upper bound on the phi that phi_compute_lane<N, D> (and so every
/// kernel, DESIGN.md §11) computes for any vertex v whose weight is at most
/// box[0] and whose coordinate x_a lies in [lo_a, hi_a] = [box[1 + 2a],
/// box[2 + 2a]] on every axis a. It runs the kernel's own operations on the
/// box's extremes, so it needs no margin:
///
///  * Per axis, when t lies outside [lo, hi], the kernel's D = fl|x - t| is
///    monotone in x (correct rounding is monotone, and fl(x - t) =
///    -fl(t - x)), so D(x) lies between D(lo) and D(hi). The wrapped
///    distance min(D, 1 - D) rises up to D = 1/2 and falls after it, where
///    1 - D is exact by Sterbenz, so over that interval it is smallest at an
///    endpoint: the axis term below is <= v's. When t lies in [lo, hi] the
///    term is 0.
///  * phi_dist_pow folds the terms with the L-inf max, or the L2 ordered sum
///    of squares and its sqrt, then the power ladder: each step is monotone
///    in nonnegative inputs under correct rounding, so the fold is <= v's
///    dist^D.
///  * wn * dist^D is monotone in dist^D, and the quotient rises with the
///    weight and falls with the denominator, so the result is >= phi(v).
///    A zero fold gives +inf, as the kernel does: a box holding t is never
///    skipped, so neither is the target.
///
/// -ffp-contract=off (src/girg/CMakeLists.txt) keeps every step a single
/// correctly rounded operation, as in the kernels.
template <Norm N, int D>
double box_bound(const PhiKernelCtx& ctx, const float* box) noexcept {
    const double dist_pow_d = phi_dist_pow<N, D>([&](int axis) {
        const double lo = box[1 + 2 * axis];
        const double hi = box[2 + 2 * axis];
        const double t = ctx.target_position[axis];
        if (lo <= t && t <= hi) return 0.0;
        return std::min(torus_coord_distance(lo, t), torus_coord_distance(hi, t));
    });
    if (dist_pow_d == 0.0) return kPhiInf;
    return static_cast<double>(box[0]) / (ctx.wn * dist_pow_d);
}

/// The pruned argmax over one summarized row. A block is skipped only when
/// its bound is <= `bar`, the value an entry must strictly exceed to win:
/// the floor, then the running best. No entry of a skipped block could then
/// pass the strict >, so the winner is the first maximum in row order, as
/// in the full scan.
template <Norm N, int D>
PhiBestLane pruned_best(const PhiKernelCtx& ctx, PhiBestFn best, const float* boxes,
                        const Vertex* row, std::size_t count, double floor) {
    constexpr std::size_t kStride = 1 + 2 * D;
    constexpr std::size_t kFine = HubRowSummary::kFineBlock;
    constexpr std::size_t kCoarse = HubRowSummary::kCoarseBlock;
    const std::size_t coarse_blocks = (count + kCoarse - 1) / kCoarse;
    const float* fine_boxes = boxes + coarse_blocks * kStride;
    PhiBestLane winner;
    double bar = floor;
    for (std::size_t c = 0; c < coarse_blocks; ++c) {
        if (box_bound<N, D>(ctx, boxes + c * kStride) <= bar) continue;
        const std::size_t end = std::min(count, (c + 1) * kCoarse);
        for (std::size_t begin = c * kCoarse; begin < end; begin += kFine) {
            if (box_bound<N, D>(ctx, fine_boxes + begin / kFine * kStride) <= bar) continue;
            const PhiBestLane lane = best(ctx, row + begin, std::min(kFine, end - begin));
            if (lane.value > bar) {
                winner.index = begin + lane.index;
                winner.value = lane.value;
                bar = lane.value;
            }
        }
    }
    return winner;
}

using PrunedBestFn = PhiBestLane (*)(const PhiKernelCtx&, PhiBestFn, const float*,
                                     const Vertex*, std::size_t, double);

constexpr PrunedBestFn kPruned[2][kMaxDim] = {
    {pruned_best<Norm::kMax, 1>, pruned_best<Norm::kMax, 2>, pruned_best<Norm::kMax, 3>,
     pruned_best<Norm::kMax, 4>},
    {pruned_best<Norm::kEuclidean, 1>, pruned_best<Norm::kEuclidean, 2>,
     pruned_best<Norm::kEuclidean, 3>, pruned_best<Norm::kEuclidean, 4>},
};

}  // namespace

HubRowSummary::HubRowSummary(const Graph& graph, std::shared_ptr<const PhiSoA> soa, Norm norm)
    : graph_identity_(graph.identity()), soa_(std::move(soa)) {
    GIRG_CHECK(soa_->size() == graph.num_vertices(), "HubRowSummary: ", soa_->size(),
               " plane entries for ", graph.num_vertices(), " vertices");
    const int dim = soa_->dim();
    stride_ = 1 + 2 * static_cast<std::size_t>(dim);
    pruned_ = kPruned[norm == Norm::kMax ? 0 : 1][dim - 1];
    const auto coarse_blocks = [](std::size_t degree) {
        return (degree + kCoarseBlock - 1) / kCoarseBlock;
    };
    const auto fine_blocks = [](std::size_t degree) {
        return (degree + kFineBlock - 1) / kFineBlock;
    };
    std::size_t total = 0;
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
        const std::size_t degree = graph.degree(v);
        if (degree < kMinDegree) continue;
        rows_.push_back({v, static_cast<std::uint32_t>(total)});
        total += coarse_blocks(degree) + fine_blocks(degree);
        GIRG_CHECK(total <= std::numeric_limits<std::uint32_t>::max(),
                   "HubRowSummary: box index overflows");
    }
    boxes_.resize(total * stride_);

    const double* weights = soa_->weight_plane();
    for (const Row& r : rows_) {
        const std::span<const Vertex> row = graph.neighbors(r.vertex);
        float* coarse = boxes_.data() + r.first_box * stride_;
        float* fine = coarse + coarse_blocks(row.size()) * stride_;
        for (std::size_t begin = 0; begin < row.size(); begin += kFineBlock) {
            const std::size_t end = std::min(row.size(), begin + kFineBlock);
            double weight = weights[row[begin]];
            double lo[kMaxDim] = {};
            double hi[kMaxDim] = {};
            for (int axis = 0; axis < dim; ++axis) {
                lo[axis] = hi[axis] = soa_->axis_plane(axis)[row[begin]];
            }
            for (std::size_t i = begin + 1; i < end; ++i) {
                weight = std::max(weight, weights[row[i]]);
                for (int axis = 0; axis < dim; ++axis) {
                    const double x = soa_->axis_plane(axis)[row[i]];
                    lo[axis] = std::min(lo[axis], x);
                    hi[axis] = std::max(hi[axis], x);
                }
            }
            float* box = fine + begin / kFineBlock * stride_;
            box[0] = round_up(weight);
            for (int axis = 0; axis < dim; ++axis) {
                box[1 + 2 * axis] = round_down(lo[axis]);
                box[2 + 2 * axis] = round_up(hi[axis]);
            }
            // The coarse box is the hull of its fine boxes: outward rounding
            // commutes with min and max, so it equals rounding the block's
            // own extremes.
            float* hull = coarse + begin / kCoarseBlock * stride_;
            if (begin % kCoarseBlock == 0) {
                std::copy(box, box + stride_, hull);
                continue;
            }
            hull[0] = std::max(hull[0], box[0]);
            for (int axis = 0; axis < dim; ++axis) {
                hull[1 + 2 * axis] = std::min(hull[1 + 2 * axis], box[1 + 2 * axis]);
                hull[2 + 2 * axis] = std::max(hull[2 + 2 * axis], box[2 + 2 * axis]);
            }
        }
    }
}

PhiBestLane HubRowSummary::best_above(const PhiKernelCtx& ctx, PhiBestFn best, Vertex holder,
                                      std::span<const Vertex> row, double floor) const {
    const auto it = std::lower_bound(rows_.begin(), rows_.end(), holder,
                                     [](const Row& r, Vertex v) { return r.vertex < v; });
    if (it == rows_.end() || it->vertex != holder) {
        PhiBestLane lane = best(ctx, row.data(), row.size());
        if (lane.index != PhiBestLane::kNone && !(lane.value > floor)) lane = {};
        return lane;
    }
    return pruned_(ctx, best, boxes_.data() + it->first_box * stride_, row.data(), row.size(),
                   floor);
}

}  // namespace smallworld
