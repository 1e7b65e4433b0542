#pragma once

#include <cstdint>
#include <string>

#include "girg/generator.h"
#include "girg/girg.h"
#include "graph/packed_graph.h"

namespace smallworld {

/// GIRG-level entry points for the `.girgpack` format (graph/packed_graph.h):
/// write a generated instance, build one out-of-core straight from the
/// samplers, and rehydrate the attribute side of a pack for the objectives.

struct PackOptions {
    bool compress = false;    ///< delta-varint rows instead of raw arcs
    std::uint64_t seed = 0;   ///< recorded in the params section (0 = unknown)
};

/// Girg <-> on-disk params conversion. The threads knob is an execution
/// detail, not a model parameter, so it is not stored; from_packed_params
/// leaves it at the default.
[[nodiscard]] PackedParams to_packed_params(const GirgParams& params,
                                            std::uint64_t seed) noexcept;
[[nodiscard]] GirgParams from_packed_params(const PackedParams& packed) noexcept;

/// Writes a resident instance as a pack (params + attributes + CSR rows).
PackFileInfo write_girg_pack(const std::string& path, const Girg& girg,
                             const PackOptions& options = {});

struct PackBuildStats {
    PackFileInfo file;
    std::size_t row_ranges = 0;      ///< vertex ranges of the row build
    std::uint64_t sampled_arcs = 0;  ///< arcs fed to the row build (before dedup)
    Vertex num_vertices = 0;
};

/// Generates (params, seed) and writes the pack without ever building the
/// resident CSR: attributes and the chunked edge stream come from the exact
/// pipeline generate_girg runs (same RNG sequence, same Morton relabeling),
/// then build_rows (graph/edge_stream.h) scatters and sorts the rows range
/// by range through one bounded buffer, straight into the PackWriter, and
/// writes no temporary files. The resulting file is byte-identical to
/// write_girg_pack(generate_girg(params, seed, options)) with the same
/// PackOptions — asserted by tests/pack_io_test.cpp. `options.seed` is
/// overridden by `seed`.
PackBuildStats pack_girg_out_of_core(const std::string& path, const GirgParams& params,
                                     std::uint64_t seed, const GenerateOptions& generate = {},
                                     PackOptions options = {});

/// Rehydrates the attribute side of a pack into a Girg whose `graph` is
/// empty: weights, positions and params — everything PhiEvaluator and the
/// objectives read (they never touch adjacency), so routing over a
/// GraphView of the pack needs no resident CSR at all.
[[nodiscard]] Girg load_pack_attributes(const PackedGraph& pack);

}  // namespace smallworld
