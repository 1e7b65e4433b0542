#pragma once

// Scalar phi kernel bodies shared by phi_records.cpp (the scalar dispatch
// tables) and phi_simd_avx2.cpp (ragged-tail lanes). Header-only so both TUs
// inline the same source; every operation is plain double arithmetic in a
// fixed order, and both TUs pin -ffp-contract=off, so the instantiations are
// bit-identical regardless of the enclosing TU's -m flags.

#include <cmath>
#include <limits>

#include "girg/phi_records.h"

namespace smallworld::detail {

inline constexpr double kPhiInf = std::numeric_limits<double>::infinity();

/// The distance half of phi: the per-axis wrapped distances folded into
/// dist^D by the L-inf max chain (or the L2 axis-order sum and sqrt), then
/// the integer-d power ladder. `axis_distance(axis)` supplies the axes in
/// order. phi_compute_lane and the hub-row bound (girg/hub_rows.cpp) both
/// run exactly these operations.
template <Norm N, int D, typename AxisDistance>
double phi_dist_pow(const AxisDistance& axis_distance) noexcept {
    double dist;
    if constexpr (N == Norm::kMax) {
        dist = 0.0;
        for (int axis = 0; axis < D; ++axis) {
            const double di = axis_distance(axis);
            if (di > dist) dist = di;
        }
    } else {
        double sum = 0.0;
        for (int axis = 0; axis < D; ++axis) {
            const double di = axis_distance(axis);
            sum += di * di;
        }
        dist = std::sqrt(sum);
    }
    double dist_pow_d = dist;
    for (int i = 1; i < D; ++i) dist_pow_d *= dist;
    return dist_pow_d;
}

/// Scalar phi with the (norm, dim) dispatch hoisted into template
/// parameters, read from v's record alone. Reproduces Girg::objective bit
/// for bit: wrapped per-axis distance, L-inf max chain (or L2 axis-order sum
/// + sqrt), integer-d power ladder, one division with the wmin*n grouping.
/// The v == target and zero-distance early returns both yield +inf, which is
/// also what the division produces for dist_pow_d == 0 — kept explicit to
/// mirror the original control flow.
template <Norm N, int D>
double phi_compute_lane(const PhiKernelCtx& ctx, Vertex v) noexcept {
    if (v == ctx.target) return kPhiInf;
    const double* record = ctx.records + static_cast<std::size_t>(v) * PhiRecords::stride_for(D);
    const double dist_pow_d = phi_dist_pow<N, D>([&](int axis) {
        return torus_coord_distance(record[axis], ctx.target_position[axis]);
    });
    if (dist_pow_d == 0.0) return kPhiInf;
    return record[D] / (ctx.wn * dist_pow_d);
}

}  // namespace smallworld::detail
