#pragma once

#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <span>

#include "geometry/torus.h"
#include "graph/graph.h"
#include "random/point_process.h"

namespace smallworld {

struct Girg;

/// The per-vertex routing attributes, one record per vertex: its d
/// coordinates, then its weight, zero-padded to stride_for(d) doubles (16,
/// 32, 32 and 64 bytes at d = 1..4), in one 64-byte-aligned allocation, so
/// no record straddles a cache line and one phi evaluation reads one line.
/// Built once per graph (Girg::phi_soa() caches a shared_ptr) and shared
/// read-only across workers. The fields are plain copies of the attributes,
/// so a kernel reading them sees bit-identical inputs.
class PhiRecords {
public:
    PhiRecords(std::span<const double> weights, const PointCloud& positions);

    /// Doubles per record: the smallest power of two >= dim + 1.
    [[nodiscard]] static constexpr std::size_t stride_for(int dim) noexcept {
        return std::bit_ceil(static_cast<std::size_t>(dim) + 1);
    }

    /// True when the AVX2 kernels can address n records of dimension `dim`:
    /// they gather record v at index v * stride_for(dim) in i32 lanes, so
    /// n * stride_for(dim) must stay below 2^31 (n < 2^29 at d = 2). The
    /// constructor checks it before allocating.
    [[nodiscard]] static constexpr bool fits_i32_gather(std::size_t n, int dim) noexcept {
        return n < (std::size_t{1} << 31U) / stride_for(dim);
    }

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] int dim() const noexcept { return dim_; }
    /// Record 0; record v starts stride_for(dim()) doubles after record v - 1.
    [[nodiscard]] const double* data() const noexcept { return storage_.get(); }
    [[nodiscard]] const double* record(Vertex v) const noexcept {
        return storage_.get() + static_cast<std::size_t>(v) * stride_;
    }
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return n_ * stride_ * sizeof(double);
    }

private:
    static constexpr std::align_val_t kAlignment{64};
    struct AlignedDelete {
        void operator()(double* p) const noexcept { ::operator delete(p, kAlignment); }
    };

    std::size_t n_ = 0;
    int dim_ = 1;
    std::size_t stride_ = 2;
    std::unique_ptr<double[], AlignedDelete> storage_;
};

/// Everything a phi kernel needs, flattened to POD so the per-call path has
/// no pointer chasing through evaluator internals: the records and the
/// target. Every kernel, PhiEvaluator and any caller that runs a kernel
/// directly bind it through the one constructor.
struct PhiKernelCtx {
    /// Binds `records`, which must be built from girg's attributes
    /// (Girg::phi_soa()), to `target`. The context points into `records`,
    /// which must outlive it.
    PhiKernelCtx(const Girg& girg, const PhiRecords& records, Vertex target);

    const double* records = nullptr;  ///< PhiRecords::data()
    double target_position[kMaxDim] = {};
    double wn = 0.0;  ///< wmin * n, the grouping Girg::objective uses
    int dim = 1;
    Vertex target = kNoVertex;
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
    kScalar,  ///< one record per lane, (norm, dim) dispatch hoisted into the template
    kAvx2,    ///< 8-wide vectorized kernels gathering from the records; bit-identical to kScalar
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
