#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "core/objective.h"
#include "core/router.h"
#include "girg/girg.h"
#include "girg/params.h"

namespace smallworld::testing {

/// Hand-built 1-dimensional GIRG instances with exact weights, positions and
/// edges, so routing behavior is fully predictable in unit tests.
class ScenarioBuilder {
public:
    explicit ScenarioBuilder(double n = 100.0) {
        girg_.params.n = n;
        girg_.params.dim = 1;
        girg_.params.alpha = 2.0;
        girg_.params.beta = 2.5;
        girg_.params.wmin = 1.0;
        girg_.params.edge_scale = 1.0;
        girg_.positions.dim = 1;
    }

    /// Adds a vertex and returns its id.
    Vertex vertex(double position, double weight = 1.0) {
        girg_.weights.push_back(weight);
        girg_.positions.coords.push_back(position);
        return static_cast<Vertex>(girg_.weights.size() - 1);
    }

    ScenarioBuilder& edge(Vertex u, Vertex v) {
        edges_.emplace_back(u, v);
        return *this;
    }

    /// Convenience: chain of edges v0-v1-v2-...
    ScenarioBuilder& chain(const std::vector<Vertex>& vertices) {
        for (std::size_t i = 0; i + 1 < vertices.size(); ++i) {
            edge(vertices[i], vertices[i + 1]);
        }
        return *this;
    }

    [[nodiscard]] Girg build() {
        girg_.graph = Graph(static_cast<Vertex>(girg_.weights.size()), edges_);
        return girg_;
    }

private:
    Girg girg_;
    std::vector<Edge> edges_;
};

/// Forwards every entry of an objective but best_above, so a walk's argmax
/// over it runs the default: the full scan of best_of, filtered by the
/// floor. The reference a pruned argmax is checked against.
class FullScanObjective final : public Objective {
public:
    explicit FullScanObjective(const Objective& base) : base_(&base) {}
    explicit FullScanObjective(std::unique_ptr<Objective> owned)
        : owned_(std::move(owned)), base_(owned_.get()) {}

    [[nodiscard]] double value(Vertex v) const override { return base_->value(v); }
    [[nodiscard]] Vertex target() const override { return base_->target(); }
    void values(std::span<const Vertex> vertices, double* out) const override {
        base_->values(vertices, out);
    }
    [[nodiscard]] BestNeighbor best_of(std::span<const Vertex> vertices) const override {
        return base_->best_of(vertices);
    }

private:
    std::unique_ptr<Objective> owned_;
    const Objective* base_;
};

/// Runs `inner` with RoutingOptions::faults set to a FaultState built from
/// `plan` for whichever graph it routes: how a test hands one plan to code
/// that takes a Router. The wrapper's plan replaces the caller's.
class PlannedRouter final : public Router {
public:
    PlannedRouter(std::unique_ptr<Router> inner, const FaultPlan& plan)
        : inner_(std::move(inner)), plan_(plan) {}

    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override {
        const FaultState state(graph, plan_);
        RoutingOptions planned = options;
        planned.faults = &state;
        return inner_->route(graph, objective, source, planned);
    }
    [[nodiscard]] std::string name() const override { return inner_->name() + "+plan"; }

private:
    std::unique_ptr<Router> inner_;
    FaultPlan plan_;
};

/// A plan of transient link failures only: Theorem 3.5's robustness
/// scenario, where each link is down per epoch with probability `p`.
inline FaultPlan link_failure_plan(double p, std::uint64_t seed, int max_retries = 3) {
    FaultPlan plan;
    plan.seed = seed;
    plan.link_failure_prob = p;
    plan.max_retries = max_retries;
    return plan;
}

}  // namespace smallworld::testing
