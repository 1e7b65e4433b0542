#pragma once

#include <cstdint>
#include <vector>

#include "girg/girg.h"
#include "graph/edge_stream.h"
#include "random/rng.h"

namespace smallworld {

/// Which edge sampler to use; both draw from the identical distribution.
enum class SamplerKind {
    kFast,   ///< expected-linear layered cell sampler (default)
    kNaive,  ///< O(n^2) reference sampler
};

/// Options for planting specific vertices. The paper's theorems allow an
/// adversary to fix weights and positions of the source s and target t while
/// everything else stays random (Section 3); planted vertices are appended
/// after the Poisson process, so their indices are the last ones.
struct PlantedVertex {
    double weight = 1.0;
    double position[4] = {0.0, 0.0, 0.0, 0.0};
};

struct GenerateOptions {
    SamplerKind sampler = SamplerKind::kFast;
    /// Use exactly n vertices instead of Poisson(n) many (the binomial
    /// model of [16]; the paper notes both models agree conditionally).
    bool fixed_vertex_count = false;
    /// Non-empty: use exactly these weights (one per vertex, all >= wmin)
    /// instead of drawing from the power law — e.g. to match an observed
    /// degree sequence. Implies fixed_vertex_count with n = weights.size();
    /// positions are still random and edges follow the kernel.
    std::vector<double> weights;
    std::vector<PlantedVertex> planted;
    /// Relabel vertices in Morton (z-order) of their grid cell after edge
    /// sampling, so CSR neighbor lists of geometrically-close vertices share
    /// cache lines (see girg/relabel.h). A pure permutation applied to
    /// weights, positions, and edge endpoints together — the sampled graph
    /// is the same up to labels. Planted vertices keep their
    /// appended-at-the-end ids; ignored when `weights` is supplied (the
    /// caller pinned per-index attributes).
    bool morton_relabel = true;
};

/// Samples a complete GIRG: vertex set (Poisson point process of intensity
/// params.n), weights (power law), and edges (chosen sampler). Sampled edges
/// stream through chunked sinks straight into the CSR build
/// (graph/edge_stream.h), with the Morton relabeling fused into edge
/// emission, so no contiguous intermediate edge list ever exists.
[[nodiscard]] Girg generate_girg(const GirgParams& params, std::uint64_t seed,
                                 const GenerateOptions& options = {});

/// Resamples only the edges over existing weights/positions (used by tests
/// that compare samplers on identical vertex sets).
[[nodiscard]] Graph resample_edges(const Girg& girg, std::uint64_t seed, SamplerKind sampler);

namespace detail {

/// The attribute-sampling prefix of generate_girg: fills girg.params /
/// girg.weights / girg.positions (including planted vertices), consuming
/// randomness from `rng` exactly as generate_girg does before edge
/// sampling. Returns the Morton permutation when relabeling applies, empty
/// otherwise. Exposed so girg/pack_io's out-of-core build reproduces the
/// resident pipeline's (seed, params) -> instance map bit for bit.
PageVector<Vertex> sample_attributes(const GirgParams& params, const GenerateOptions& options,
                                     Rng& rng, Girg& girg);

/// Sampler-kind dispatch for the chunked edge stream (see fast_sampler.h).
[[nodiscard]] ChunkedEdgeList sample_edges_stream(const GirgParams& params,
                                                  const std::vector<double>& weights,
                                                  const PointCloud& positions, Rng& rng,
                                                  SamplerKind kind, const Vertex* relabel);

}  // namespace detail

}  // namespace smallworld
