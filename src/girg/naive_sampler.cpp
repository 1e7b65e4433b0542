#include "girg/naive_sampler.h"

#include <memory>
#include <vector>

#include "core/check.h"

#include "girg/edge_probability.h"
#include "graph/edge_stream.h"

namespace smallworld {

ChunkedEdgeList sample_edges_naive_stream(const GirgParams& params,
                                          const std::vector<double>& weights,
                                          const PointCloud& positions, Rng& rng,
                                          const Vertex* relabel) {
    GIRG_CHECK(weights.size() == positions.count(), "weights ", weights.size(),
               " vs positions ", positions.count());
    GIRG_CHECK(positions.dim == params.dim, "dim mismatch");
    ChunkedEdgeSink sink(std::make_shared<EdgeArena>(), relabel);
    const auto n = static_cast<Vertex>(weights.size());
    for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = u + 1; v < n; ++v) {
            const double p = girg_edge_probability(params, weights[u], weights[v],
                                                   positions.point(u), positions.point(v));
            if (rng.bernoulli(p)) sink.emit(u, v);
        }
    }
    return sink.take();
}

}  // namespace smallworld
