#pragma once

#include <span>
#include <string>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/router.h"

// Test-only oracles: the straightforward implementations of the routers'
// hostile-regime seams and patching protocols that the optimized code in
// src/core/ replaced — hash-container per-query state, a heap push per
// frontier candidate, a row scan per decision and a value() call per
// neighbor. patching_diff_test asserts that the optimized routers return
// exactly the RoutingResults (status, path, retries) these do.
namespace smallworld::reference {

/// ClaimedObjective as a per-vertex claim_factor() product.
class ClaimedObjective final : public Objective {
public:
    ClaimedObjective(const Objective& base, const AdversaryState& adversary);

    [[nodiscard]] double value(Vertex v) const override;
    [[nodiscard]] Vertex target() const override { return base_->target(); }
    void values(std::span<const Vertex> vertices, double* out) const override;

private:
    const Objective* base_;
    const AdversaryState* adversary_;
    const double* target_position_;
};

/// The faulted / adversarial greedy loop with one value() call per usable
/// neighbor.
[[nodiscard]] RoutingResult route_greedy_faulted(const GraphView& graph,
                                                 const Objective& objective, Vertex source,
                                                 const RoutingOptions& options,
                                                 FaultView faults,
                                                 AdversaryView adversary = {});

/// GreedyRouter dispatch over the oracle loop and claimed objective; the
/// honest path is the production GreedyRouter (unchanged by the rework).
class GreedyRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "greedy"; }
};

class PhiDfsRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "phi-dfs"; }
};

class GravityPressureRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "gravity-pressure"; }
};

class MessageHistoryRouter final : public Router {
public:
    [[nodiscard]] RoutingResult route(const GraphView& graph, const Objective& objective,
                                      Vertex source,
                                      const RoutingOptions& options = {}) const override;
    [[nodiscard]] std::string name() const override { return "msg-history"; }
};

}  // namespace smallworld::reference
