#pragma once

#include <vector>

#include "girg/girg.h"
#include "random/rng.h"

namespace smallworld {

/// Reference edge sampler: flips an independent coin for every vertex pair
/// with the exact kernel probability, in (u, v) order with u < v. O(n^2) —
/// used as ground truth for the fast sampler's distributional tests and for
/// small experiments. Endpoints are remapped through `relabel` at emission
/// when it is non-null.
[[nodiscard]] ChunkedEdgeList sample_edges_naive_stream(const GirgParams& params,
                                                        const std::vector<double>& weights,
                                                        const PointCloud& positions, Rng& rng,
                                                        const Vertex* relabel = nullptr);

}  // namespace smallworld
