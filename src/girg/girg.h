#pragma once

#include <memory>
#include <vector>

#include "core/annotations.h"
#include "graph/graph.h"
#include "girg/params.h"
#include "random/point_process.h"

namespace smallworld {

class HubRowSummary;
class PhiSoA;

namespace detail {
/// Process-wide lock for every Girg's lazily built SoA planes and hub-row
/// summary. One shared mutex (not a per-instance member) keeps Girg
/// copyable/movable; the critical section is a pointer check plus, once per
/// graph, the build. Defined in girg.cpp; named here so the guarded members
/// below can carry their capability annotation.
extern Mutex phi_soa_mutex;
}  // namespace detail

/// A sampled geometric inhomogeneous random graph: the parameters, the
/// vertex attributes (weights, torus positions), and the resulting graph.
/// Vertex v's address in the routing protocol is the pair
/// (positions.point(v), weights[v]) — exactly the model of Section 2.2.
struct Girg {
    GirgParams params;
    std::vector<double> weights;  // one per vertex
    PointCloud positions;         // dim = params.dim
    Graph graph;

    [[nodiscard]] Vertex num_vertices() const noexcept {
        return static_cast<Vertex>(weights.size());
    }
    [[nodiscard]] double weight(Vertex v) const noexcept { return weights[v]; }
    [[nodiscard]] const double* position(Vertex v) const noexcept {
        return positions.point(v);
    }

    /// The routing objective phi(v) = wv / (wmin * n * ||xv - xt||^d)
    /// (Section 2.2) toward an arbitrary target *position*.
    [[nodiscard]] double objective(Vertex v, const double* target_position) const noexcept;

    /// Torus distance between two vertices.
    [[nodiscard]] double distance(Vertex u, Vertex v) const noexcept;

    /// Heap bytes of the finished instance (weights + coordinates + CSR) —
    /// the denominator of the generation peak-memory ratio reported by
    /// bench_generator_memory.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return weights.capacity() * sizeof(double) +
               positions.coords.capacity() * sizeof(double) + graph.memory_bytes();
    }

    /// Lazily built, cached structure-of-arrays view of (weights, positions)
    /// shared read-only by every PhiEvaluator on this instance. Thread-safe;
    /// the first caller pays the O(n*d) plane build.
    [[nodiscard]] std::shared_ptr<const PhiSoA> phi_soa() const;

    /// Lazily built, cached summary of the graph's hub rows over the
    /// phi_soa() planes (girg/hub_rows.h), for GirgObjective's pruned
    /// argmax. Thread-safe; the first caller pays the build, and a graph
    /// assigned since the last build (a new Graph::identity) is summarized
    /// afresh.
    [[nodiscard]] std::shared_ptr<const HubRowSummary> hub_rows() const;

    /// Drops the cached SoA view and hub-row summary. Must be called after
    /// mutating weights or positions in place (morton_relabel does);
    /// outstanding shared_ptrs keep the old planes alive but new evaluators
    /// see the fresh ones.
    void invalidate_phi_soa() const;

private:
    /// phi_soa_cache_, rebuilt first if missing or sized for other weights.
    [[nodiscard]] const std::shared_ptr<const PhiSoA>& fresh_phi_soa() const
        GIRG_REQUIRES(detail::phi_soa_mutex);

    mutable std::shared_ptr<const PhiSoA> phi_soa_cache_
        GIRG_GUARDED_BY(detail::phi_soa_mutex);
    mutable std::shared_ptr<const HubRowSummary> hub_rows_cache_
        GIRG_GUARDED_BY(detail::phi_soa_mutex);
};

}  // namespace smallworld
