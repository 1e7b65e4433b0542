#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "geometry/torus.h"
#include "graph/graph.h"
#include "random/point_process.h"

namespace smallworld {

/// Allocator pinning every allocation to a 64-byte boundary so the SoA
/// attribute planes start on cache-line (and AVX) boundaries.
template <typename T>
struct CacheAlignedAllocator {
    using value_type = T;
    static constexpr std::align_val_t kAlignment{64};

    CacheAlignedAllocator() = default;
    template <typename U>
    explicit CacheAlignedAllocator(const CacheAlignedAllocator<U>& /*other*/) noexcept {}

    [[nodiscard]] T* allocate(std::size_t count) {
        return static_cast<T*>(::operator new(count * sizeof(T), kAlignment));
    }
    void deallocate(T* pointer, std::size_t /*count*/) noexcept {
        ::operator delete(pointer, kAlignment);
    }
};

template <typename T, typename U>
bool operator==(const CacheAlignedAllocator<T>& /*a*/,
                const CacheAlignedAllocator<U>& /*b*/) noexcept {
    return true;
}

/// Structure-of-arrays view of the per-vertex routing attributes: one
/// 64-byte-aligned plane for the weights and one per coordinate axis, carved
/// out of a single allocation with the plane stride rounded up to a full
/// cache line. Built once per graph (Girg::phi_soa() caches a shared_ptr)
/// and shared read-only across workers. The planes are plain copies of the
/// AoS attributes, so a kernel reading them sees bit-identical inputs.
class PhiSoA {
public:
    PhiSoA(std::span<const double> weights, const PointCloud& positions);

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] int dim() const noexcept { return dim_; }
    [[nodiscard]] const double* weight_plane() const noexcept { return plane(0); }
    [[nodiscard]] const double* axis_plane(int axis) const noexcept { return plane(1 + axis); }
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return storage_.size() * sizeof(double);
    }

private:
    [[nodiscard]] const double* plane(int index) const noexcept {
        return storage_.data() + static_cast<std::size_t>(index) * stride_;
    }

    std::size_t n_ = 0;
    std::size_t stride_ = 0;  // n rounded up to a whole cache line of doubles
    int dim_ = 1;
    std::vector<double, CacheAlignedAllocator<double>> storage_;
};

/// Everything a phi kernel needs, flattened to POD so the per-call path has
/// no pointer chasing through evaluator internals: the attribute planes, the
/// target, and the memo table plus its writeback log. Kernels may write
/// through memo/touched but never resize them; every memo write must also
/// append to touched.
struct PhiKernelCtx {
    const double* weights = nullptr;         // weight plane
    const double* axes[kMaxDim] = {};        // coordinate planes
    double target_position[kMaxDim] = {};
    double wn = 0.0;                         // wmin * n, the grouping Girg::objective uses
    int dim = 1;
    Vertex target = kNoVertex;
    double* memo = nullptr;                  // NaN-sentinel table of size n
    std::vector<Vertex>* touched = nullptr;  // memo writeback log (reset contract)
};

/// Result of a batched argmax kernel: position within the scanned span of
/// the first lane attaining the maximum (kNone for an empty span), plus the
/// winning value — exactly the scalar first-max-in-list-order scan.
struct PhiBestLane {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t index = kNone;
    double value = 0.0;
};

using PhiValuesFn = void (*)(const PhiKernelCtx&, const Vertex*, std::size_t, double*);
using PhiBestFn = PhiBestLane (*)(const PhiKernelCtx&, const Vertex*, std::size_t);
using PhiComputeFn = double (*)(const PhiKernelCtx&, Vertex);

struct PhiKernelOps {
    PhiValuesFn values = nullptr;
    PhiBestFn best = nullptr;
};

/// Kernel families an evaluator can bind at construction.
enum class PhiKernel {
    kScalar,  ///< SoA planes, (norm, dim) dispatch hoisted into the template
    kAvx2,    ///< 8-wide vectorized SoA kernels; bit-identical to kScalar
};

/// Batched kernels for (norm, dim, family). kScalar always exists; kAvx2
/// aborts via GIRG_CHECK when the AVX2 TU was compiled out.
[[nodiscard]] const PhiKernelOps& phi_kernel_ops(Norm norm, int dim, PhiKernel kernel);

/// Single-vertex scalar compute for (norm, dim). The vector path uses it for
/// single probes too — identical bits by the kernel contract.
[[nodiscard]] PhiComputeFn phi_compute_fn(Norm norm, int dim);

/// True when the AVX2 TU was compiled with vector support.
[[nodiscard]] bool phi_simd_compiled() noexcept;

/// True when the vector path may run: compiled in, the CPU reports AVX2, and
/// GIRG_FORCE_SCALAR is unset or empty/"0" in the environment. Evaluated
/// once per process.
[[nodiscard]] bool phi_simd_available() noexcept;

namespace detail {
/// Implemented in phi_simd_avx2.cpp; returns nullptr when that TU was built
/// without AVX2 support (non-x86 target or a compiler lacking -mavx2).
[[nodiscard]] const PhiKernelOps* phi_avx2_ops(Norm norm, int dim) noexcept;
}  // namespace detail

}  // namespace smallworld
