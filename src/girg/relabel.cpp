#include "girg/relabel.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "core/check.h"
#include "geometry/morton.h"
#include "geometry/torus.h"
#include "graph/edge_stream.h"

namespace smallworld {

namespace {

/// Cell level with ~1 expected vertex per cell: 2^{dl} <= n, capped at the
/// Morton code's bit budget. Finer levels would only reshuffle singleton
/// cells; coarser ones leave unsorted clumps.
int level_for(std::size_t count, int dim) noexcept {
    if (count < 2) return 0;
    const int level = static_cast<int>(std::log2(static_cast<double>(count)) /
                                       static_cast<double>(dim));
    return std::clamp(level, 0, kMaxLevel);
}

}  // namespace

PageVector<Vertex> morton_order(const PointCloud& positions, std::size_t movable_prefix) {
    const std::size_t n = positions.count();
    GIRG_CHECK(movable_prefix <= n, "movable_prefix ", movable_prefix, " > n=", n);
    const int level = level_for(movable_prefix, positions.dim);

    // Pack (code, id) into one u64: the cell level satisfies
    // 2^(dim*level) <= movable_prefix <= 2^32, so the code fits in the high
    // 32 bits with the id below it. Sorting the packed keys orders by code
    // with ties broken by original id — equal Morton codes keep their
    // relative order and the permutation is a deterministic function of the
    // positions alone. Half the footprint of a pair<u64, Vertex> array,
    // which sat in the generator's peak-memory window.
    GIRG_CHECK(positions.dim * level <= 32, "packed key overflow: dim*level=",
               positions.dim * level);
    PageVector<std::uint64_t> keyed(movable_prefix);
    for (std::size_t v = 0; v < movable_prefix; ++v) {
        keyed[v] = (morton_of_point(positions.point(v), positions.dim, level) << 32) |
                   static_cast<std::uint64_t>(v);
    }
    std::sort(keyed.begin(), keyed.end());

    PageVector<Vertex> new_ids(n);
    for (std::size_t rank = 0; rank < keyed.size(); ++rank) {
        new_ids[static_cast<Vertex>(keyed[rank])] = static_cast<Vertex>(rank);
    }
    for (std::size_t v = movable_prefix; v < n; ++v) new_ids[v] = static_cast<Vertex>(v);
    return new_ids;
}

void apply_relabeling(std::span<const Vertex> new_ids, std::vector<double>& weights,
                      PointCloud& positions) {
    const std::size_t n = new_ids.size();
    GIRG_CHECK(weights.size() == n && positions.count() == n,
               "attribute arrays disagree with permutation size ", n);
    const std::size_t dim = static_cast<std::size_t>(positions.dim);

    // In-place cycle-following permutation: vertex old_id's attributes move
    // to slot new_ids[old_id]. Walking each cycle once, swapping the carried
    // attributes into the next slot, needs one bit per vertex instead of a
    // full second copy of weights and coordinates — that copy used to be the
    // single largest transient of the streaming generation pipeline
    // (~n * (dim + 1) * 8 bytes right at the peak-memory window). Values are
    // moved, never recomputed, so the result is bit-identical to the
    // out-of-place version.
    std::vector<bool> placed(n, false);
    double held_coords[kMaxDim];
    GIRG_CHECK(dim <= kMaxDim, "dim=", dim);
    for (std::size_t start = 0; start < n; ++start) {
        if (placed[start] || new_ids[start] == start) continue;
        double held_weight = weights[start];
        for (std::size_t axis = 0; axis < dim; ++axis) {
            held_coords[axis] = positions.coords[start * dim + axis];
        }
        std::size_t dst = new_ids[start];
        while (dst != start) {
            GIRG_DCHECK(dst < n, "new_ids is not a permutation: slot ", dst);
            std::swap(held_weight, weights[dst]);
            for (std::size_t axis = 0; axis < dim; ++axis) {
                std::swap(held_coords[axis], positions.coords[dst * dim + axis]);
            }
            placed[dst] = true;
            dst = new_ids[dst];
        }
        weights[start] = held_weight;
        for (std::size_t axis = 0; axis < dim; ++axis) {
            positions.coords[start * dim + axis] = held_coords[axis];
        }
    }
}

void morton_relabel(Girg& girg, std::size_t movable_prefix) {
    const std::size_t n = girg.num_vertices();
    if (movable_prefix > n) movable_prefix = n;
    const PageVector<Vertex> new_ids = morton_order(girg.positions, movable_prefix);
    apply_relabeling(new_ids, girg.weights, girg.positions);
    // The permutation mutated the attribute arrays in place: any cached SoA
    // attribute planes now describe the old vertex order.
    girg.invalidate_phi_soa();

    // Stream the CSR's edges through a relabeling sink instead of
    // materializing edge_list(): the old adjacency is the only contiguous
    // edge copy alive while the new CSR is scattered together.
    ChunkedEdgeSink sink(std::make_shared<EdgeArena>(), new_ids.data());
    const Graph& graph = girg.graph;
    for (Vertex u = 0; u < graph.num_vertices(); ++u) {
        for (const Vertex v : graph.neighbors(u)) {
            if (u < v) sink.emit(u, v);
        }
    }
    girg.graph = Graph(static_cast<Vertex>(n), sink.take(), girg.params.threads);
}

}  // namespace smallworld
