#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "girg/girg.h"
#include "graph/edge_stream.h"

namespace smallworld {

/// Morton-order vertex relabeling: sorts vertices by the z-order code of
/// their grid cell so geometrically-close vertices get adjacent ids. After
/// the relabeling, the CSR neighbor lists of vertices visited consecutively
/// by greedy routing (which moves through geometric space) land on nearby
/// cache lines, which is where the routing hot loop spends its time.
///
/// The relabeling is a pure permutation of vertex ids applied *after* edge
/// sampling: weights, positions, and edge endpoints are permuted together,
/// so the labeled graph is isomorphic to the unrelabeled one and every
/// position-indexed quantity (phi, distances, degrees) is preserved
/// vertex-for-vertex under the permutation.

/// Permutation new_ids[old_id] ordering the first `movable_prefix` vertices
/// by the Morton code of their cell at level ~ log2(n)/d (ties broken by
/// original id, so the permutation is deterministic); ids at and beyond
/// `movable_prefix` keep their original labels. The prefix cut keeps the
/// generator's planted-vertices-are-last contract intact.
/// Page-backed return type (and span parameters below): the permutation is
/// generation-lifetime scratch that must not linger in malloc free lists
/// inside the pipeline's peak-memory window.
[[nodiscard]] PageVector<Vertex> morton_order(const PointCloud& positions,
                                              std::size_t movable_prefix);

/// Applies `new_ids` in place to per-vertex attributes only — a
/// cycle-following permutation, so the transient footprint is one bit per
/// vertex, not a second copy of the attributes. Edge endpoints are remapped
/// *at emission* instead (the relabel pointer of ChunkedEdgeSink), so no
/// edge-rewrite pass exists.
void apply_relabeling(std::span<const Vertex> new_ids, std::vector<double>& weights,
                      PointCloud& positions);

/// Relabels a fully-built Girg in place (attributes, edges, CSR rebuild).
/// `movable_prefix` defaults to all vertices; pass n - planted to preserve
/// the planted suffix. Generation applies the same permutation before the
/// CSR is first built; this entry point exists so tests can verify that
/// generate(relabel) == relabel(generate) byte for byte.
void morton_relabel(Girg& girg, std::size_t movable_prefix = static_cast<std::size_t>(-1));

}  // namespace smallworld
