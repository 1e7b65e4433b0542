#include "girg/generator.h"

#include <stdexcept>
#include <vector>

#include "core/check.h"
#include "geometry/torus.h"
#include "girg/fast_sampler.h"
#include "girg/naive_sampler.h"
#include "girg/relabel.h"
#include "graph/edge_stream.h"
#include "random/power_law.h"

namespace smallworld {

namespace detail {

ChunkedEdgeList sample_edges_stream(const GirgParams& params,
                                    const std::vector<double>& weights,
                                    const PointCloud& positions, Rng& rng, SamplerKind kind,
                                    const Vertex* relabel) {
    switch (kind) {
        case SamplerKind::kFast:
            return sample_edges_fast_stream(params, weights, positions, rng, relabel);
        case SamplerKind::kNaive:
            return sample_edges_naive_stream(params, weights, positions, rng, relabel);
    }
    throw std::logic_error("sample_edges_stream: unknown sampler kind");
}

PageVector<Vertex> sample_attributes(const GirgParams& params, const GenerateOptions& options,
                                     Rng& rng, Girg& girg) {
    girg.params = params;
    if (!options.weights.empty()) {
        for (const double w : options.weights) {
            if (w < params.wmin) {
                throw std::invalid_argument("generate_girg: supplied weight below wmin");
            }
        }
        girg.weights = options.weights;
        girg.positions = sample_uniform_points(girg.weights.size(), params.dim, rng);
    } else {
        girg.positions = options.fixed_vertex_count
                             ? sample_uniform_points(static_cast<std::size_t>(params.n),
                                                     params.dim, rng)
                             : sample_poisson_point_process(params.n, params.dim, rng);
        const PowerLaw weight_law(params.beta, params.wmin);
        girg.weights = weight_law.sample_many(girg.positions.count(), rng);
    }

    for (const PlantedVertex& planted : options.planted) {
        if (planted.weight < params.wmin) {
            throw std::invalid_argument("generate_girg: planted weight below wmin");
        }
        girg.weights.push_back(planted.weight);
        for (int axis = 0; axis < params.dim; ++axis) {
            girg.positions.coords.push_back(torus_wrap(planted.position[axis]));
        }
    }

    GIRG_CHECK(girg.weights.size() == girg.positions.count(),
               "attribute arrays diverged: ", girg.weights.size(), " weights vs ",
               girg.positions.count(), " positions");

    // The Morton permutation is a function of the positions alone and
    // consumes no randomness, so it can be computed *before* edge sampling;
    // the samplers still read attributes in original id order (their output
    // depends on vertex order), and the permutation is applied to the
    // attributes afterwards and to each edge as it is emitted.
    const bool relabel = options.morton_relabel && options.weights.empty();
    PageVector<Vertex> new_ids;
    if (relabel) {
        const std::size_t movable = girg.weights.size() - options.planted.size();
        new_ids = morton_order(girg.positions, movable);
    }
    return new_ids;
}

}  // namespace detail

Girg generate_girg(const GirgParams& params, std::uint64_t seed,
                   const GenerateOptions& options) {
    params.validate();
    Rng rng(seed);

    Girg girg;
    PageVector<Vertex> new_ids = detail::sample_attributes(params, options, rng, girg);
    const bool relabel = !new_ids.empty();

    ChunkedEdgeList edges =
        detail::sample_edges_stream(params, girg.weights, girg.positions, rng, options.sampler,
                                    relabel ? new_ids.data() : nullptr);
    if (relabel) apply_relabeling(new_ids, girg.weights, girg.positions);
    // The permutation is fully applied; unmap it before the CSR build so it
    // does not sit in the peak-memory window. (swap, not `= {}`: the
    // initializer-list assignment keeps the old capacity allocated.)
    PageVector<Vertex>().swap(new_ids);
    girg.graph = Graph(girg.num_vertices(), std::move(edges), params.threads);
    return girg;
}

Graph resample_edges(const Girg& girg, std::uint64_t seed, SamplerKind sampler) {
    Rng rng(seed);
    ChunkedEdgeList edges = detail::sample_edges_stream(girg.params, girg.weights,
                                                        girg.positions, rng, sampler, nullptr);
    return Graph(girg.num_vertices(), std::move(edges), girg.params.threads);
}

}  // namespace smallworld
