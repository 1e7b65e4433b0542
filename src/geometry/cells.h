#pragma once

#include <algorithm>
#include <cstdint>

#include "core/check.h"
#include "geometry/morton.h"

namespace smallworld {

/// A dyadic cell of the torus partition: level plus integer coordinates.
struct Cell {
    int level = 0;
    std::uint32_t coords[4] = {0, 0, 0, 0};

    [[nodiscard]] std::uint64_t morton(int dim) const noexcept {
        return morton_encode(coords, dim, level);
    }
};

// The cell arithmetic below runs once per node of the fast sampler's
// recursion (tens of millions of times per instance), so it is inline here
// rather than out of line in cells.cpp.

/// Side length 2^{-level} of cells at a level.
inline double cell_side(int level) noexcept {
    return 1.0 / static_cast<double>(std::uint64_t{1} << level);
}

/// Per-axis integer torus distance between cell coordinates at a level:
/// min{|a-b|, 2^level - |a-b|}.
[[nodiscard]] inline std::uint32_t cell_axis_distance(std::uint32_t a, std::uint32_t b,
                                                      int level) noexcept {
    const auto per_axis = static_cast<std::uint32_t>(std::uint64_t{1} << level);
    const std::uint32_t diff = a > b ? a - b : b - a;
    return std::min(diff, per_axis - diff);
}

/// Two cells at the same level "touch" if their integer torus distance is
/// <= 1 in every axis (they share at least a corner, possibly across the
/// wrap-around). Touching cell pairs are the type-I pairs of the sampler.
[[nodiscard]] inline bool cells_touch(const Cell& a, const Cell& b, int dim) noexcept {
    GIRG_DCHECK(a.level == b.level, "levels ", a.level, " vs ", b.level);
    if (a.level == 0) return true;  // the root cell touches itself
    for (int axis = 0; axis < dim; ++axis) {
        if (cell_axis_distance(a.coords[axis], b.coords[axis], a.level) > 1) return false;
    }
    return true;
}

/// Lower bound on the L-infinity torus distance between any point of cell a
/// and any point of cell b: max over axes of (axis_dist - 1) * 2^{-level},
/// clamped at 0. Exact for the L-infinity metric on aligned dyadic cells.
[[nodiscard]] inline double cell_min_distance(const Cell& a, const Cell& b, int dim) noexcept {
    GIRG_DCHECK(a.level == b.level, "levels ", a.level, " vs ", b.level);
    std::uint32_t max_axis_gap = 0;
    for (int axis = 0; axis < dim; ++axis) {
        const std::uint32_t d = cell_axis_distance(a.coords[axis], b.coords[axis], a.level);
        const std::uint32_t gap = d > 0 ? d - 1 : 0;
        max_axis_gap = std::max(max_axis_gap, gap);
    }
    return static_cast<double>(max_axis_gap) * cell_side(a.level);
}

/// The k-th child (k in [0, 2^dim)) of a cell, one level deeper; the bits of
/// k select the halves per axis, matching Morton order (child codes of a cell
/// are contiguous: parent_code * 2^dim + k).
[[nodiscard]] inline Cell cell_child(const Cell& parent, int dim, unsigned k) noexcept {
    GIRG_DCHECK(k < (1U << dim), "child k=", k, " dim=", dim);
    Cell child;
    child.level = parent.level + 1;
    for (int axis = 0; axis < dim; ++axis) {
        // Match Morton bit order: axis 0 owns the most significant bit of k.
        const unsigned bit = (k >> (dim - 1 - axis)) & 1U;
        child.coords[axis] = (parent.coords[axis] << 1) | bit;
    }
    return child;
}

/// Cell at `level` containing the given point.
[[nodiscard]] Cell cell_of_point(const double* point, int dim, int level) noexcept;

}  // namespace smallworld
