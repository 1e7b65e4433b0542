#include "experiments/runner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "random/rng.h"

namespace smallworld {

ObjectiveFactory girg_objective_factory() {
    return [](const Girg& girg, Vertex target) -> std::unique_ptr<Objective> {
        return std::make_unique<GirgObjective>(girg, target);
    };
}

ObjectiveFactory geometric_objective_factory() {
    return [](const Girg& girg, Vertex target) -> std::unique_ptr<Objective> {
        return std::make_unique<GeometricObjective>(girg, target);
    };
}

ObjectiveFactory relaxed_objective_factory(RelaxationKind kind, double magnitude,
                                           std::uint64_t seed) {
    return [kind, magnitude, seed](const Girg& girg,
                                   Vertex target) -> std::unique_ptr<Objective> {
        return std::make_unique<RelaxedObjective>(girg, target, kind, magnitude, seed);
    };
}

void TrialStats::merge(const TrialStats& other) {
    attempts += other.attempts;
    delivered += other.delivered;
    dead_end += other.dead_end;
    exhausted += other.exhausted;
    step_limit += other.step_limit;
    same_component += other.same_component;
    delivered_in_component += other.delivered_in_component;
    retries += other.retries;
    hops.merge(other.hops);
    stretch.merge(other.stretch);
    bfs_distance.merge(other.bfs_distance);
    steps_all.merge(other.steps_all);
    distinct_visited.merge(other.distinct_visited);
    step_samples.insert(step_samples.end(), other.step_samples.begin(),
                        other.step_samples.end());
}

namespace {

/// Vertex universe a trial may draw from.
std::vector<Vertex> eligible_vertices(const Graph& graph, const Components& components,
                                      bool restrict_to_giant) {
    if (restrict_to_giant) return giant_component_vertices(components);
    std::vector<Vertex> all(graph.num_vertices());
    for (Vertex v = 0; v < graph.num_vertices(); ++v) all[v] = v;
    return all;
}

/// Sources routed per Phase-B work item. Small enough that the slowest
/// target's pairs spread across threads, large enough to amortize the
/// per-block objective construction.
constexpr std::size_t kSourcesPerBlock = 16;

/// Per-target state produced by Phase A and shared read-only by Phase B.
struct TargetContext {
    Vertex target = kNoVertex;
    std::vector<std::int32_t> dist;
};

TrialStats run_trials_impl(const Graph& graph, const Router& router,
                           const GraphObjectiveFactory& factory, const TrialConfig& config,
                           std::uint64_t seed, std::span<const double> weights = {},
                           const PointCloud* positions = nullptr,
                           const GirgParams* params = nullptr) {
    if (graph.num_vertices() < 2) {
        throw std::invalid_argument("run_trials: graph too small");
    }
    // One immutable FaultState for the whole run, shared read-only by every
    // worker; fault draws are keyed by (plan seed, source, ...), so results
    // stay independent of the thread schedule.
    std::optional<FaultState> fault_state;
    if (config.faults.any()) fault_state.emplace(graph, config.faults, weights);
    // Likewise one immutable AdversaryState: every lie is keyed by
    // (plan seed, vertex, ...), so worker scheduling cannot move a liar.
    std::optional<AdversaryState> adversary_state;
    if (config.adversary.any()) {
        adversary_state.emplace(graph, config.adversary, weights, positions, params);
    }
    RoutingOptions routing_options;
    routing_options.faults = fault_state.has_value() ? &*fault_state : nullptr;
    routing_options.adversary =
        adversary_state.has_value() ? &*adversary_state : nullptr;
    const Components components = connected_components(graph);
    const std::vector<Vertex> pool =
        eligible_vertices(graph, components, config.restrict_to_giant);
    if (pool.size() < 2) throw std::invalid_argument("run_trials: vertex pool too small");

    // Two-phase pipeline with counter-seeded streams, so the dynamic
    // assignment of work items to threads never changes the results:
    // Phase A (stream t): pick target t and run its BFS. Phase B (stream
    // targets + item): route a block of sources toward its target, with a
    // private objective instance per block — objectives keep state behind
    // const, so they must not be shared across workers.
    const RngStreams streams(seed);

    std::vector<TargetContext> contexts(config.targets);
    parallel_for(
        config.targets,
        [&](std::size_t target_index) {
            Rng rng = streams.stream(target_index);
            TargetContext& ctx = contexts[target_index];
            ctx.target = pool[rng.uniform_index(pool.size())];
            // Nested parallel_for runs inline when the pool is busy with the
            // target loop, so BFS parallelism kicks in exactly when there
            // are fewer targets than workers.
            ctx.dist = bfs_distances(graph, ctx.target, config.threads);
        },
        config.threads);

    const std::size_t blocks_per_target =
        (config.sources_per_target + kSourcesPerBlock - 1) / kSourcesPerBlock;
    std::vector<TrialStats> per_block(config.targets * blocks_per_target);
    parallel_for(
        per_block.size(),
        [&](std::size_t item) {
            const std::size_t target_index = item / blocks_per_target;
            const std::size_t block = item % blocks_per_target;
            const TargetContext& ctx = contexts[target_index];
            const Vertex target = ctx.target;
            const std::vector<std::int32_t>& dist = ctx.dist;
            Rng rng = streams.stream(config.targets + item);
            TrialStats& stats = per_block[item];
            // One objective per ≤16-source block: the cohort shares it (and,
            // for girg objectives, the graph's vertex records) across all
            // sources routed toward this target.
            const auto objective = factory(target);

            const std::size_t first = block * kSourcesPerBlock;
            const std::size_t last =
                std::min(first + kSourcesPerBlock, config.sources_per_target);
            for (std::size_t k = first; k < last; ++k) {
                // Rejection-sample a source: distinct from the target and
                // satisfying the distance constraint when one is set.
                Vertex source = target;
                for (int tries = 0; tries < 1000; ++tries) {
                    const Vertex candidate = pool[rng.uniform_index(pool.size())];
                    if (candidate == target) continue;
                    if (config.min_graph_distance > 0 &&
                        (dist[candidate] == kUnreachable ||
                         dist[candidate] < config.min_graph_distance)) {
                        continue;
                    }
                    source = candidate;
                    break;
                }
                if (source == target) continue;  // no eligible source found

                ++stats.attempts;
                const bool reachable = dist[source] != kUnreachable;
                if (reachable) ++stats.same_component;

                const RoutingResult result =
                    router.route(graph, *objective, source, routing_options);
                stats.retries += result.retries;
                stats.steps_all.add(static_cast<double>(result.steps()));
                stats.distinct_visited.add(static_cast<double>(result.distinct_vertices()));
                if (config.collect_step_samples) {
                    stats.step_samples.push_back(static_cast<double>(result.steps()));
                }
                switch (result.status) {
                    case RoutingStatus::kDelivered: {
                        ++stats.delivered;
                        if (reachable) {
                            ++stats.delivered_in_component;
                            stats.hops.add(static_cast<double>(result.steps()));
                            stats.bfs_distance.add(static_cast<double>(dist[source]));
                            if (dist[source] > 0) {
                                stats.stretch.add(static_cast<double>(result.steps()) /
                                                  static_cast<double>(dist[source]));
                            }
                        }
                        break;
                    }
                    case RoutingStatus::kDeadEnd:
                        ++stats.dead_end;
                        break;
                    case RoutingStatus::kExhausted:
                        ++stats.exhausted;
                        break;
                    case RoutingStatus::kStepLimit:
                        ++stats.step_limit;
                        break;
                }
            }
        },
        config.threads);

    // Merge in fixed (target, block) order: RunningStats::merge is not
    // commutative in floating point, so the order must not depend on the
    // thread schedule.
    TrialStats total;
    for (const TrialStats& stats : per_block) total.merge(stats);
    return total;
}

}  // namespace

TrialStats run_girg_trials(const Girg& girg, const Router& router,
                           const ObjectiveFactory& factory, const TrialConfig& config,
                           std::uint64_t seed) {
    const GraphObjectiveFactory graph_factory = [&](Vertex target) {
        return factory(girg, target);
    };
    return run_trials_impl(girg.graph, router, graph_factory, config, seed, girg.weights,
                           &girg.positions, &girg.params);
}

TrialStats run_graph_trials(const Graph& graph, const Router& router,
                            const GraphObjectiveFactory& factory, const TrialConfig& config,
                            std::uint64_t seed) {
    return run_trials_impl(graph, router, factory, config, seed);
}

}  // namespace smallworld
