// AVX2 phi kernels: 8-wide batched evaluation (two 4-lane gather halves per
// iteration) and a first-maximum argmax over a neighbor span, bit-identical
// to the scalar kernels in phi_records.cpp — same wrapped-distance form, same
// operation order, no FMA contraction (the build pins -ffp-contract=off on
// this TU and never enables -mfma).
//
// Scalar-equivalence test: tests/phi_simd_test.cpp
#include "girg/phi_records.h"

#if defined(SMALLWORLD_PHI_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>

#include "girg/phi_kernels_inl.h"

namespace smallworld::detail {
namespace {

/// |x| by clearing the sign bit — identical to std::fabs for every double.
inline __m256d abs_pd(__m256d x) noexcept {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/// Phi for vs[i..i+4), each lane gathered from its vertex's record at
/// index v * stride (PhiRecords::fits_i32_gather bounds it). No target or
/// zero-distance lane masking is needed: both collapse to dist_pow_d == 0,
/// and IEEE w/(wn*0) == +inf is exactly the value the scalar early returns
/// produce (weights and wn are strictly positive).
template <Norm N, int D>
inline __m256d lanes4(const PhiKernelCtx& ctx, const Vertex* vs, std::size_t i) noexcept {
    constexpr int kShift = std::countr_zero(PhiRecords::stride_for(D));
    const __m128i idx = _mm_slli_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vs + i)), kShift);
    const __m256d one = _mm256_set1_pd(1.0);
    __m256d dist = _mm256_setzero_pd();
    for (int axis = 0; axis < D; ++axis) {
        const __m256d coord = _mm256_i32gather_pd(ctx.records + axis, idx, 8);
        const __m256d target = _mm256_set1_pd(ctx.target_position[axis]);
        const __m256d diff = abs_pd(_mm256_sub_pd(coord, target));
        // min(diff, 1-diff) == the scalar branch for diff in [0, 1).
        const __m256d wrapped = _mm256_min_pd(diff, _mm256_sub_pd(one, diff));
        if constexpr (N == Norm::kMax) {
            dist = _mm256_max_pd(dist, wrapped);
        } else {
            dist = _mm256_add_pd(dist, _mm256_mul_pd(wrapped, wrapped));
        }
    }
    if constexpr (N != Norm::kMax) dist = _mm256_sqrt_pd(dist);
    __m256d dist_pow_d = dist;
    for (int p = 1; p < D; ++p) dist_pow_d = _mm256_mul_pd(dist_pow_d, dist);
    const __m256d weight = _mm256_i32gather_pd(ctx.records + D, idx, 8);
    return _mm256_div_pd(weight, _mm256_mul_pd(_mm256_set1_pd(ctx.wn), dist_pow_d));
}

/// Maximum of the four lanes, bit-exact: max_pd returns one of its inputs
/// and no lane is NaN or -0 (phi values are > 0 or +inf).
inline double horizontal_max(__m256d x) noexcept {
    const __m256d swapped_halves = _mm256_permute2f128_pd(x, x, 1);
    const __m256d pair_max = _mm256_max_pd(x, swapped_halves);
    const __m256d swapped_pairs = _mm256_permute_pd(pair_max, 0b0101);
    return _mm256_cvtsd_f64(_mm256_max_pd(pair_max, swapped_pairs));
}

template <Norm N, int D>
void phi_values_avx2(const PhiKernelCtx& ctx, const Vertex* vs, std::size_t count, double* out) {
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        _mm256_storeu_pd(out + i, lanes4<N, D>(ctx, vs, i));
        _mm256_storeu_pd(out + i + 4, lanes4<N, D>(ctx, vs, i + 4));
    }
    if (i + 4 <= count) {
        _mm256_storeu_pd(out + i, lanes4<N, D>(ctx, vs, i));
        i += 4;
    }
    for (; i < count; ++i) out[i] = phi_compute_lane<N, D>(ctx, vs[i]);
}

/// First-max argmax. Tie-break proof sketch: the scalar scan updates only on
/// a strictly greater value, so after a block it rests on the first lane (in
/// list order) attaining the block max, and across blocks it moves only when
/// a later block's max strictly exceeds the running best. The vector path
/// reproduces this by taking the block max, skipping the block unless it
/// strictly beats the running best (or the best is still empty), and
/// selecting the lowest lane equal to the block max (movemask+countr_zero;
/// the equality mask is nonzero because the max is one of the lanes, and
/// +inf == +inf holds under _CMP_EQ_OQ).
template <Norm N, int D>
PhiBestLane phi_best_avx2(const PhiKernelCtx& ctx, const Vertex* vs, std::size_t count) {
    PhiBestLane best;
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256d lo = lanes4<N, D>(ctx, vs, i);
        const __m256d hi = lanes4<N, D>(ctx, vs, i + 4);
        const double block_max = std::max(horizontal_max(lo), horizontal_max(hi));
        if (best.index != PhiBestLane::kNone && !(block_max > best.value)) continue;
        const __m256d max_vec = _mm256_set1_pd(block_max);
        const auto lo_mask = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(lo, max_vec, _CMP_EQ_OQ)));
        const auto hi_mask = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(hi, max_vec, _CMP_EQ_OQ)));
        const unsigned mask = lo_mask | (hi_mask << 4U);
        best.index = i + static_cast<std::size_t>(std::countr_zero(mask));
        best.value = block_max;
    }
    if (i + 4 <= count) {
        const __m256d lanes = lanes4<N, D>(ctx, vs, i);
        const double block_max = horizontal_max(lanes);
        if (best.index == PhiBestLane::kNone || block_max > best.value) {
            const auto mask = static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_cmp_pd(lanes, _mm256_set1_pd(block_max), _CMP_EQ_OQ)));
            best.index = i + static_cast<std::size_t>(std::countr_zero(mask));
            best.value = block_max;
        }
        i += 4;
    }
    for (; i < count; ++i) {
        const double value = phi_compute_lane<N, D>(ctx, vs[i]);
        if (best.index == PhiBestLane::kNone || value > best.value) {
            best.index = i;
            best.value = value;
        }
    }
    return best;
}

template <Norm N, int D>
constexpr PhiKernelOps kAvx2OpsFor{phi_values_avx2<N, D>, phi_best_avx2<N, D>};

constexpr PhiKernelOps kAvx2Ops[2][kMaxDim] = {
    {kAvx2OpsFor<Norm::kMax, 1>, kAvx2OpsFor<Norm::kMax, 2>, kAvx2OpsFor<Norm::kMax, 3>,
     kAvx2OpsFor<Norm::kMax, 4>},
    {kAvx2OpsFor<Norm::kEuclidean, 1>, kAvx2OpsFor<Norm::kEuclidean, 2>,
     kAvx2OpsFor<Norm::kEuclidean, 3>, kAvx2OpsFor<Norm::kEuclidean, 4>},
};

}  // namespace

const PhiKernelOps* phi_avx2_ops(Norm norm, int dim) noexcept {
    if (dim < 1 || dim > kMaxDim) return nullptr;
    return &kAvx2Ops[norm == Norm::kMax ? 0 : 1][dim - 1];
}

}  // namespace smallworld::detail

#else  // !SMALLWORLD_PHI_AVX2

namespace smallworld::detail {

const PhiKernelOps* phi_avx2_ops(Norm /*norm*/, int /*dim*/) noexcept { return nullptr; }

}  // namespace smallworld::detail

#endif  // SMALLWORLD_PHI_AVX2
