#include "distributed/latency.h"

#include "core/check.h"
#include "core/fault.h"
#include "geometry/torus.h"
#include "random/splitmix64.h"

namespace smallworld {

LinkLatency::LinkLatency(const LatencyModel& model, const PointCloud* positions)
    : model_(model), positions_(positions) {
    // Torus distances are at most 1/2, so with 0.5 * rate below 2^64 every
    // distance term converts to SimTime without overflow (UB for doubles).
    // NaN fails both comparisons and +inf the second.
    constexpr double kSimTimeLimit = 18446744073709551616.0;  // 2^64
    const double rate = model.ticks_per_unit_distance;
    GIRG_CHECK(rate >= 0.0 && 0.5 * rate < kSimTimeLimit,
               "LatencyModel: ticks_per_unit_distance=", rate,
               " must be finite, non-negative and below 2^65");
    GIRG_CHECK(model.kind != LatencyKind::kDistanceProportional || positions != nullptr,
               "LatencyModel: kDistanceProportional needs vertex positions");
}

SimTime LinkLatency::delay(Vertex u, Vertex v, std::uint64_t send_index) const {
    switch (model_.kind) {
        case LatencyKind::kConstant:
            return model_.base_ticks;
        case LatencyKind::kDistanceProportional: {
            // Torus L-infinity distance in [0, 1/2]; floor keeps the mapping
            // to ticks exact-integer and therefore bit-stable across libm.
            const double dist = torus_distance(positions_->point(u),
                                               positions_->point(v), positions_->dim);
            return model_.base_ticks +
                   static_cast<SimTime>(model_.ticks_per_unit_distance * dist);
        }
        case LatencyKind::kSeededJitter: {
            if (model_.jitter_ticks == 0) return model_.base_ticks;
            // Keyed draw, FaultState-style: both endpoints and every replay
            // agree on the jitter of a given (edge, send index).
            const std::uint64_t h = hash_combine(
                hash_combine(model_.seed, FaultState::edge_key(u, v)), send_index);
            // 53-bit mantissa trick scaled to {0..jitter}: unbiased enough
            // for a latency model and branch-free.
            const double unit = FaultState::fault_coin(h);
            return model_.base_ticks +
                   static_cast<SimTime>(unit *
                                        static_cast<double>(model_.jitter_ticks + 1));
        }
    }
    return model_.base_ticks;
}

}  // namespace smallworld
