#include "girg/phi_soa.h"

#include <cstdlib>
#include <span>
#include <string_view>

#include "core/check.h"
#include "girg/phi_kernels_inl.h"

namespace smallworld {

PhiSoA::PhiSoA(std::span<const double> weights, const PointCloud& positions)
    : n_(weights.size()), dim_(positions.dim) {
    GIRG_CHECK(positions.coords.size() == n_ * static_cast<std::size_t>(dim_),
               "PhiSoA: ", n_, " weights vs ", positions.coords.size(), " coords of dim ", dim_);
    GIRG_CHECK(dim_ >= 1 && dim_ <= kMaxDim, "PhiSoA: dim=", dim_);
    // The AVX2 kernels gather with 32-bit signed vertex indices.
    GIRG_CHECK(n_ < (std::size_t{1} << 31U), "PhiSoA: n=", n_, " overflows i32 gathers");
    constexpr std::size_t kDoublesPerLine = 8;  // 64 bytes
    stride_ = (n_ + kDoublesPerLine - 1) / kDoublesPerLine * kDoublesPerLine;
    storage_.resize(stride_ * static_cast<std::size_t>(dim_ + 1));
    double* weight_out = storage_.data();
    for (std::size_t v = 0; v < n_; ++v) weight_out[v] = weights[v];
    for (int axis = 0; axis < dim_; ++axis) {
        double* axis_out = storage_.data() + static_cast<std::size_t>(axis + 1) * stride_;
        for (std::size_t v = 0; v < n_; ++v) {
            axis_out[v] = positions.coords[v * static_cast<std::size_t>(dim_) +
                                           static_cast<std::size_t>(axis)];
        }
    }
}

namespace {

using detail::phi_compute_lane;
using detail::phi_probe_or_compute;

template <Norm N, int D>
void phi_values_scalar(const PhiKernelCtx& ctx, const Vertex* vs, std::size_t count,
                       double* out) {
    if (ctx.touched->empty()) {
        // Cold bulk fast path: nothing is memoized yet, so skip the
        // per-element NaN probe and compute every lane straight through.
        // Phi is pure, so a vertex duplicated inside the span recomputes
        // the identical bits its earlier occurrence just memoized.
        for (std::size_t i = 0; i < count; ++i) {
            const Vertex v = vs[i];
            const double value = phi_compute_lane<N, D>(ctx, v);
            ctx.memo[v] = value;
            ctx.touched->push_back(v);
            out[i] = value;
        }
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = phi_probe_or_compute<phi_compute_lane<N, D>>(ctx, vs[i]);
    }
}

template <Norm N, int D>
PhiBestLane phi_best_scalar(const PhiKernelCtx& ctx, const Vertex* vs, std::size_t count) {
    PhiBestLane best;
    for (std::size_t i = 0; i < count; ++i) {
        const double value = phi_probe_or_compute<phi_compute_lane<N, D>>(ctx, vs[i]);
        if (best.index == PhiBestLane::kNone || value > best.value) {
            best.index = i;
            best.value = value;
        }
    }
    return best;
}

template <Norm N, int D>
constexpr PhiKernelOps kScalarOpsFor{phi_values_scalar<N, D>, phi_best_scalar<N, D>};

constexpr PhiKernelOps kScalarOps[2][kMaxDim] = {
    {kScalarOpsFor<Norm::kMax, 1>, kScalarOpsFor<Norm::kMax, 2>, kScalarOpsFor<Norm::kMax, 3>,
     kScalarOpsFor<Norm::kMax, 4>},
    {kScalarOpsFor<Norm::kEuclidean, 1>, kScalarOpsFor<Norm::kEuclidean, 2>,
     kScalarOpsFor<Norm::kEuclidean, 3>, kScalarOpsFor<Norm::kEuclidean, 4>},
};

constexpr PhiComputeFn kScalarCompute[2][kMaxDim] = {
    {phi_compute_lane<Norm::kMax, 1>, phi_compute_lane<Norm::kMax, 2>,
     phi_compute_lane<Norm::kMax, 3>, phi_compute_lane<Norm::kMax, 4>},
    {phi_compute_lane<Norm::kEuclidean, 1>, phi_compute_lane<Norm::kEuclidean, 2>,
     phi_compute_lane<Norm::kEuclidean, 3>, phi_compute_lane<Norm::kEuclidean, 4>},
};

[[nodiscard]] int norm_row(Norm norm) noexcept { return norm == Norm::kMax ? 0 : 1; }

}  // namespace

const PhiKernelOps& phi_kernel_ops(Norm norm, int dim, PhiKernel kernel) {
    GIRG_CHECK(dim >= 1 && dim <= kMaxDim, "phi kernel dim=", dim);
    if (kernel == PhiKernel::kAvx2) {
        const PhiKernelOps* ops = detail::phi_avx2_ops(norm, dim);
        GIRG_CHECK(ops != nullptr, "AVX2 phi kernels requested but not compiled in");
        return *ops;
    }
    return kScalarOps[norm_row(norm)][dim - 1];
}

PhiComputeFn phi_compute_fn(Norm norm, int dim) {
    GIRG_CHECK(dim >= 1 && dim <= kMaxDim, "phi kernel dim=", dim);
    return kScalarCompute[norm_row(norm)][dim - 1];
}

bool phi_simd_compiled() noexcept {
    return detail::phi_avx2_ops(Norm::kMax, 1) != nullptr;
}

bool phi_simd_available() noexcept {
    static const bool available = [] {
        if (!phi_simd_compiled()) return false;
#if defined(__x86_64__) || defined(__i386__)
        if (!__builtin_cpu_supports("avx2")) return false;
#endif
        // getenv at first use only; the result is latched for the process.
        const char* force = std::getenv("GIRG_FORCE_SCALAR");  // NOLINT(concurrency-mt-unsafe)
        if (force != nullptr) {
            const std::string_view value(force);
            if (!value.empty() && value != "0") return false;
        }
        return true;
    }();
    return available;
}

}  // namespace smallworld
