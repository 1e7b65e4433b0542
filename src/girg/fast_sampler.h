#pragma once

#include <cstdint>
#include <vector>

#include "girg/girg.h"
#include "random/rng.h"

namespace smallworld {

/// Expected-linear-time GIRG edge sampler (the layered cell algorithm of
/// Bringmann, Keusch & Lengler, "Sampling Geometric Inhomogeneous Random
/// Graphs in Linear Time", reimplemented from scratch).
///
/// Vertices are bucketed into dyadic *weight layers* (layer i holds weights
/// in [wmin 2^i, wmin 2^{i+1})) and each layer is sorted by the Morton code
/// of its vertices at the deepest partition level, so any dyadic cell's
/// vertices form a contiguous subrange. For every layer pair (i,j) a target
/// level l(i,j) is chosen such that cells at that level have volume at least
/// the pair's connection-threshold volume. A single recursion over touching
/// cell pairs then handles every vertex pair exactly once:
///
///  * type I  — cell pairs that still touch at level l(i,j): every vertex
///    pair is checked individually with the exact kernel probability;
///  * type II — cell pairs that first become non-touching at some level
///    <= l(i,j): the kernel probability is upper-bounded by pbar (max layer
///    weights, min cell distance) and candidate pairs are enumerated with
///    geometric jumps of expected length 1/pbar, each accepted with
///    p_exact/pbar.
///
/// The output distribution is *exactly* the model's (tested against the
/// naive sampler); only the running time is randomized.
///
/// The recursion is executed in parallel on params.threads workers (0 = all
/// hardware threads): the layer pairs are cut into per-cell-pair tasks, and
/// every task draws from its own stream counter-seeded by the task index
/// (see RngStreams) and emits into its own ChunkedEdgeSink. The per-task
/// chunk sequences are spliced in task order, so a fixed seed yields a
/// byte-identical edge sequence at any thread count. When `relabel` is
/// non-null, endpoints are remapped through it at emission (fused Morton
/// relabeling; relabel[v] must be a permutation of [0, n)).
[[nodiscard]] ChunkedEdgeList sample_edges_fast_stream(const GirgParams& params,
                                                       const std::vector<double>& weights,
                                                       const PointCloud& positions, Rng& rng,
                                                       const Vertex* relabel = nullptr);

namespace detail {

/// Safety factor of skip_surely_reaches, far above the rounding it absorbs.
inline constexpr double kSkipBoundMargin = 1.0 - 1e-9;

/// The type-II early exit. A type-II jump over t remaining candidates with
/// bound pbar in (0, 1) draws u (u = 0 read as 2^-53, as geometric_skip
/// does) and skips floor(log u / log1p(-pbar)) candidates; when that skip
/// is >= t the cell pair is done. This returns true only when the skip is
/// certainly >= t, so the sampler can end the pair without the two logs:
///
///   * Bernoulli's inequality gives (1 - pbar)^t >= 1 - t pbar, so
///     u < (1 - t pbar)(1 - 1e-9) implies u < (1 - pbar)^t (1 - 1e-9), i.e.
///     log u / log(1 - pbar) > t + 1e-9 / |log(1 - pbar)|. With t pbar < 1
///     and pbar <= 1 - 2^-53 that is t times at least 1 + 2.7e-11, while
///     log, log1p and the division together err by a few 1e-16 relative,
///     so the computed floor is >= t.
///   * The threshold's own rounding (t to double, t * pbar, 1 - t pbar, the
///     product) is at most ~4e-16 absolute. For t = 1, t * pbar is exact and
///     1 - pbar rounds by at most one relative ulp, which the 1e-9 factor
///     covers. For t >= 2 (so pbar < 1/2) the binomial series of
///     (1 - pbar)^t alternates with shrinking terms, so the Bernoulli slack
///     (1 - pbar)^t - (1 - t pbar) is at least (t pbar)^2 / 6: that absorbs
///     the rounding once t pbar > 5e-8 (it is ~1/6 where 1 - t pbar
///     cancels), and below that 1 - t pbar is near 1 and rounds relatively.
///   * t <= (n/2)^2 < 4.7e18 for a 32-bit vertex count, below
///     geometric_skip's 9.2e18 overflow cap, so the cap never decides.
///
/// When this returns false the caller computes the skip exactly as
/// geometric_skip does, so the draws, skips and edges are unchanged.
[[nodiscard]] inline bool skip_surely_reaches(double u, std::uint64_t t, double pbar) noexcept {
    const double expected = static_cast<double>(t) * pbar;
    return expected < 1.0 && u < (1.0 - expected) * kSkipBoundMargin;
}

}  // namespace detail

}  // namespace smallworld
