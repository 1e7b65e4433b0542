#pragma once

#include <cstdint>
#include <vector>

#include "girg/girg.h"
#include "graph/edge_stream.h"
#include "random/rng.h"

// Test-only oracle: the layered cell sampler (girg/fast_sampler) as it was
// before set-up was tuned. It cuts child slices with two binary searches
// per child cell pair, sorts each layer through an index array, and draws
// every type-II skip with Rng::geometric_skip. sampler_diff_test asserts
// that the production entry points emit exactly the edge sequence these do.
namespace smallworld::reference {

/// What a reference run met, for the diff test's coverage asserts. Tallied
/// only when passed in, and only on a single-threaded run.
struct SamplerCoverage {
    std::uint64_t layer_sort_ties = 0;    ///< equal adjacent codes in a sorted layer
    std::uint64_t pbar_at_least_one = 0;  ///< type-II directions with bound 1 (no draws)
    std::uint64_t bound_rejects = 0;      ///< skips past the end the bound decides
    std::uint64_t log_rejects = 0;        ///< skips past the end only the logs decide
    std::uint64_t bound_errors = 0;       ///< bound said "past the end" but it was not
};

[[nodiscard]] std::vector<Edge> sample_edges_fast(const GirgParams& params,
                                                  const std::vector<double>& weights,
                                                  const PointCloud& positions, Rng& rng,
                                                  SamplerCoverage* coverage = nullptr);

[[nodiscard]] ChunkedEdgeList sample_edges_fast_stream(const GirgParams& params,
                                                       const std::vector<double>& weights,
                                                       const PointCloud& positions, Rng& rng,
                                                       const Vertex* relabel = nullptr);

}  // namespace smallworld::reference
