#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/router.h"
#include "graph/graph.h"

namespace smallworld {
class AdversaryState;
struct Girg;
}  // namespace smallworld

namespace smallworld::e2e {

/// What one query returned; the fields outcome_fp folds.
struct Outcome {
    RoutingStatus status = RoutingStatus::kDeadEnd;
    std::uint32_t steps = 0;
    std::uint32_t retries = 0;
    Vertex last = kNoVertex;
};

[[nodiscard]] Outcome outcome_of(const RoutingResult& result);

/// FNV-1a over (index, status, steps, retries, last vertex). Folding every
/// query in query order gives outcome_fp, which must not depend on the
/// client count or on tracing.
[[nodiscard]] std::uint64_t fold_outcome(std::uint64_t digest, std::uint64_t index,
                                         const Outcome& outcome);

/// The output rules every query is checked against after the timed phase.
struct CheckRules {
    GraphView graph;  ///< the honest adjacency the queries were routed over
    const Girg* attributes = nullptr;           ///< phi for the monotonicity rule
    const AdversaryState* adversary = nullptr;  ///< whose phantom hops are allowed
    bool phi_increases = false;                 ///< honest greedy workloads only
};

/// Per-path quantities the per-layer metrics aggregate.
struct PathStats {
    std::size_t distinct = 0;        ///< distinct vertices on the path
    std::uint64_t row_entries = 0;   ///< sum of degrees of the vertices left
    bool phantom_hop = false;        ///< ended with a hop along a phantom link
    bool blackholed = false;         ///< swallowed by a byzantine vertex
};

/// Checks one query: the path starts at the source and walks honest edges
/// only (except a final phantom hop from a byzantine holder that ends the
/// query as a dead end); it is delivered iff it ends at the target; steps
/// plus retries stay within 8n+64 and it never ends in kStepLimit; and,
/// when required, phi strictly increases along the path. Returns nullptr
/// when every rule holds, else the rule that broke. Fills `stats`.
[[nodiscard]] const char* check_query(const CheckRules& rules, Vertex source, Vertex target,
                                      const Outcome& outcome, std::span<const Vertex> path,
                                      PathStats& stats);

}  // namespace smallworld::e2e
