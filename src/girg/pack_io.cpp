#include "girg/pack_io.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "core/check.h"
#include "girg/relabel.h"
#include "graph/edge_stream.h"

namespace smallworld {

PackedParams to_packed_params(const GirgParams& params, std::uint64_t seed) noexcept {
    PackedParams packed{};
    packed.n = params.n;
    packed.alpha = params.alpha;
    packed.beta = params.beta;
    packed.wmin = params.wmin;
    packed.edge_scale = params.edge_scale;
    packed.dim = static_cast<std::uint32_t>(params.dim);
    packed.norm = static_cast<std::uint32_t>(params.norm);
    packed.seed = seed;
    return packed;
}

GirgParams from_packed_params(const PackedParams& packed) noexcept {
    GirgParams params;
    params.n = packed.n;
    params.alpha = packed.alpha;
    params.beta = packed.beta;
    params.wmin = packed.wmin;
    params.edge_scale = packed.edge_scale;
    params.dim = static_cast<int>(packed.dim);
    params.norm = static_cast<Norm>(packed.norm);
    return params;
}

PackFileInfo write_girg_pack(const std::string& path, const Girg& girg,
                             const PackOptions& options) {
    PackWriter writer(path, girg.num_vertices(), to_packed_params(girg.params, options.seed),
                      girg.weights, girg.positions.coords, options.compress);
    for (Vertex v = 0; v < girg.num_vertices(); ++v) {
        writer.add_row(girg.graph.neighbors(v));
    }
    return writer.finish();
}

PackBuildStats pack_girg_out_of_core(const std::string& path, const GirgParams& params,
                                     std::uint64_t seed, const GenerateOptions& generate,
                                     PackOptions options) {
    params.validate();
    options.seed = seed;
    Rng rng(seed);

    // Same attribute prefix and fused-relabel edge stream as generate_girg —
    // the (seed, params) -> instance map cannot drift between the resident
    // and out-of-core builds.
    Girg girg;
    PageVector<Vertex> new_ids = detail::sample_attributes(params, generate, rng, girg);
    const bool relabel = !new_ids.empty();
    ChunkedEdgeList edges =
        detail::sample_edges_stream(params, girg.weights, girg.positions, rng,
                                    generate.sampler, relabel ? new_ids.data() : nullptr);
    if (relabel) apply_relabeling(new_ids, girg.weights, girg.positions);
    PageVector<Vertex>().swap(new_ids);

    // Rows straight into the writer, one vertex range at a time through a
    // bounded buffer (graph/edge_stream.h's build_rows): no resident
    // adjacency, no offset array beyond the writer's own O(n) tables.
    PackBuildStats stats;
    stats.num_vertices = girg.num_vertices();
    PackWriter writer(path, girg.num_vertices(), to_packed_params(params, seed),
                      girg.weights, girg.positions.coords, options.compress);
    const RowBuildStats rows =
        build_rows(girg.num_vertices(), std::move(edges), params.threads,
                   [&](std::span<const Vertex> row) { writer.add_row(row); });
    stats.row_ranges = rows.ranges;
    stats.sampled_arcs = rows.arcs;
    stats.file = writer.finish();
    return stats;
}

Girg load_pack_attributes(const PackedGraph& pack) {
    GIRG_CHECK(pack.has_params(), "pack has no params section to rehydrate from");
    GIRG_CHECK(pack.has_attributes(), "pack has no attribute sections to rehydrate from");
    Girg girg;
    const PackedParams packed = pack.params();
    // The checks read_girg (girg/io.h) runs on a text instance.
    GIRG_CHECK(packed.norm <= static_cast<std::uint32_t>(Norm::kEuclidean), "pack norm ",
               packed.norm, " is not a Norm");
    girg.params = from_packed_params(packed);
    girg.params.validate();
    const auto weights = pack.weights();
    const auto coords = pack.coords();
    GIRG_CHECK(coords.size() == weights.size() * static_cast<std::size_t>(girg.params.dim),
               "pack attribute sections disagree with the vertex count");
    for (const double weight : weights) {
        GIRG_CHECK(std::isfinite(weight) && weight >= girg.params.wmin, "pack weight ", weight,
                   " is not finite or below wmin");
    }
    for (const double coord : coords) {
        // NaN fails the interval test too.
        GIRG_CHECK(coord >= 0.0 && coord < 1.0, "pack coordinate ", coord,
                   " lies outside the torus");
    }
    girg.weights.assign(weights.begin(), weights.end());
    girg.positions.dim = girg.params.dim;
    girg.positions.coords.assign(coords.begin(), coords.end());
    // Routing reads the copies; the mapped pages behind them need not stay
    // resident.
    pack.release_pages(pack.section(PackSection::kWeights));
    pack.release_pages(pack.section(PackSection::kPositions));
    return girg;
}

}  // namespace smallworld
