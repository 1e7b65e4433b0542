#pragma once

#include <cstdint>

#include "distributed/event.h"
#include "graph/graph.h"
#include "random/point_process.h"

namespace smallworld {

/// Per-link message latency, in simulated ticks. Every model is a pure
/// function of its parameters and, for the jittered model, of
/// (seed, canonical edge key, per-query send index) — never of execution
/// order or wall clock — so event timestamps replay bit for bit.
enum class LatencyKind : std::uint8_t {
    /// Every send takes exactly `base_ticks`.
    kConstant,
    /// `base_ticks + floor(ticks_per_unit_distance * torus distance)`:
    /// geometrically embedded links are slower the longer they reach —
    /// the weak-tie long-range contacts cost what they save in hops.
    /// Requires positions (ServingOptions::positions).
    kDistanceProportional,
    /// `base_ticks + uniform{0..jitter_ticks}`, the draw keyed by
    /// (seed, edge, send index): seeded queueing noise on every link.
    kSeededJitter,
};

struct LatencyModel {
    LatencyKind kind = LatencyKind::kConstant;
    SimTime base_ticks = 1;
    double ticks_per_unit_distance = 0.0;  ///< kDistanceProportional only
    SimTime jitter_ticks = 0;              ///< kSeededJitter only
    std::uint64_t seed = 0;                ///< jitter stream root
};

/// Bound evaluator of a LatencyModel: validates the configuration once and
/// answers delay queries on the send path. `positions` may be null unless
/// the model is distance-proportional.
class LinkLatency {
public:
    LinkLatency(const LatencyModel& model, const PointCloud* positions);

    /// Ticks the `send_index`-th send of a query spends on the wire from
    /// `u` to `v`.
    [[nodiscard]] SimTime delay(Vertex u, Vertex v, std::uint64_t send_index) const;

private:
    LatencyModel model_;
    const PointCloud* positions_;
};

}  // namespace smallworld
