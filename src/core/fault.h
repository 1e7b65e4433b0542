#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "random/rng.h"
#include "random/splitmix64.h"

namespace smallworld {

/// How crashed vertices are picked. Random crashes model independent node
/// failures; the adversarial modes knock out the heavy hubs first — the
/// worst case for weight-seeking greedy routing, and exactly the regime of
/// imperfect neighborhoods studied by the geometric-routing follow-up work.
enum class CrashSelection {
    kRandom,         ///< counter-seeded uniform subset
    kHighestWeight,  ///< heaviest vertices first (requires weights)
    kHighestDegree,  ///< highest-degree vertices first
};

/// Declarative, counter-seeded description of every failure model the repo
/// injects. One plan, passed as `RoutingOptions::faults`, drives the
/// centralized routers, the lockstep and serving simulators, and (via
/// `TrialConfig::faults`) the trial runner. Every draw a plan causes is a
/// pure function of (seed, stable keys) — never of execution order, thread
/// count, or wall clock — so faulted runs replay bit for bit.
struct FaultPlan {
    std::uint64_t seed = 0;  ///< root of all fault draws (RngStreams style)

    /// Transient per-hop link failure: at each epoch of a route, every link
    /// is independently down with this probability (re-drawn per epoch; both
    /// endpoints agree on the state). The Theorem 3.5 robustness scenario.
    double link_failure_prob = 0.0;

    /// Permanent edge removal: each edge is absent from the residual graph
    /// with this probability, fixed per (seed, edge) for the whole run.
    double edge_removal_prob = 0.0;

    /// Fraction of vertices crashed for the whole run (rounded to a count).
    /// A crashed vertex never responds: its links are gone and a packet can
    /// neither start, relay through, nor be delivered to it.
    double crash_fraction = 0.0;
    CrashSelection crash_selection = CrashSelection::kRandom;

    /// Each send attempt is independently lost in flight with this
    /// probability, in every router and simulator (re-drawn per attempt).
    double message_loss_prob = 0.0;

    /// Consecutive wait-out / re-send attempts tolerated before the packet
    /// is dropped. Each wait-out hop consumes one unit of the step budget.
    int max_retries = 3;

    /// True when any failure model is enabled; an inactive plan leaves every
    /// consumer on its unfaulted code path, byte for byte.
    [[nodiscard]] bool any() const noexcept {
        return link_failure_prob > 0.0 || edge_removal_prob > 0.0 ||
               crash_fraction > 0.0 || message_loss_prob > 0.0;
    }
};

/// Immutable per-(graph, plan) fault state: the validated plan, the crashed
/// vertex set, and the permanent edge-removal predicate. Construction is the
/// only mutation, so one instance may be shared read-only by any number of
/// routing threads (the trial runner does exactly that).
class FaultState {
public:
    /// Validates the plan (GIRG_CHECK: probabilities in [0,1], fraction in
    /// [0,1], max_retries >= 0) and materializes the crash set. `weights`
    /// is required iff crash_selection == kHighestWeight and
    /// crash_fraction > 0; pass the GIRG's weight vector.
    FaultState(const GraphView& graph, const FaultPlan& plan,
               std::span<const double> weights = {});

    [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

    [[nodiscard]] bool crashed(Vertex v) const noexcept {
        return !crashed_.empty() && crashed_[v] != 0;
    }
    [[nodiscard]] std::size_t num_crashed() const noexcept { return num_crashed_; }

    /// Permanent removal draw for edge {u,v}: pure function of (seed, edge).
    [[nodiscard]] bool edge_removed(Vertex u, Vertex v) const noexcept {
        if (plan_.edge_removal_prob <= 0.0) return false;
        return fault_coin(hash_combine(removal_salt_, edge_key(u, v))) <
               plan_.edge_removal_prob;
    }

    /// Edge {u,v} exists in the residual graph: neither endpoint crashed and
    /// the edge itself not removed. This is the decision-time neighbor
    /// filter every router applies.
    [[nodiscard]] bool edge_present(Vertex u, Vertex v) const noexcept {
        return !crashed(u) && !crashed(v) && !edge_removed(u, v);
    }

    /// Root of the per-route fault stream: RngStreams counter-seeding keyed
    /// by the source, so fault draws for different (source, hop) pairs are
    /// independent of trial execution order and thread count.
    [[nodiscard]] std::uint64_t route_seed(Vertex source) const noexcept {
        return streams_.stream_seed(source);
    }

    /// Uniform [0,1) coin derived from a hashed key (the 53-mantissa-bit
    /// trick Rng::uniform uses); shared by every fault draw so link states,
    /// removals and losses all live in one keyed-coin scheme.
    [[nodiscard]] static double fault_coin(std::uint64_t h) noexcept {
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    }

    /// Canonical 64-bit key of the undirected edge {u,v} (smaller id in the
    /// high word) — both endpoints derive the same link state from it.
    [[nodiscard]] static std::uint64_t edge_key(Vertex u, Vertex v) noexcept {
        const std::uint64_t lo = u < v ? u : v;
        const std::uint64_t hi = u < v ? v : u;
        return (lo << 32) | hi;
    }

private:
    FaultPlan plan_;
    RngStreams streams_;             // rooted at plan.seed
    std::uint64_t removal_salt_ = 0; // stream seed for permanent removals
    std::vector<std::uint8_t> crashed_;  // empty when crash_fraction == 0
    std::size_t num_crashed_ = 0;
};

/// Route-scoped view of a FaultState: the neighbor filter and the link and
/// loss draws a route's Regime (core/regime.h) applies. Default-constructed
/// (or built from an inactive plan) it filters nothing and the router takes
/// its unfaulted code path, byte-identical to pre-fault behavior. The view
/// carries the route's epoch counter for transient link draws; it is cheap
/// to copy and strictly single-route (never share across sources).
class FaultView {
public:
    FaultView() = default;
    /// `query_nonce` derives an independent fault stream per concurrent query
    /// (the discrete-event serving layer runs many queries from the same
    /// source over one plan). Nonce 0 — the default, and what every
    /// single-query caller uses — reproduces the plain per-source stream bit
    /// for bit, so the event simulator's query #0 replays the lockstep run.
    FaultView(const FaultState* state, Vertex source,
              std::uint64_t query_nonce = 0) noexcept
        : state_(state),
          route_seed_(state == nullptr          ? 0
                      : query_nonce == 0        ? state->route_seed(source)
                                                : hash_combine(state->route_seed(source),
                                                               query_nonce)) {}

    [[nodiscard]] bool active() const noexcept {
        return state_ != nullptr && state_->plan().any();
    }
    /// Any transient (per-epoch) link model enabled.
    [[nodiscard]] bool transient() const noexcept {
        return state_ != nullptr && state_->plan().link_failure_prob > 0.0;
    }
    [[nodiscard]] int max_retries() const noexcept {
        return state_ != nullptr ? state_->plan().max_retries : 0;
    }

    [[nodiscard]] bool vertex_alive(Vertex v) const noexcept {
        return state_ == nullptr || !state_->crashed(v);
    }
    /// Residual-graph filter: the link {u,v} exists at all (no crashed
    /// endpoint, not permanently removed). Routers apply this when *scanning*
    /// neighborhoods, so dead neighbors are invisible to every decision.
    [[nodiscard]] bool usable(Vertex u, Vertex v) const noexcept {
        return state_ == nullptr || state_->edge_present(u, v);
    }

    /// Transient draw: link {u,v} is up in the current epoch. Pure function
    /// of (route seed, edge, epoch) — re-drawn per epoch, both endpoints
    /// agree. Does not fold in `usable`; callers filter residually first.
    [[nodiscard]] bool link_up(Vertex u, Vertex v) const noexcept {
        const double p = state_ != nullptr ? state_->plan().link_failure_prob : 0.0;
        if (p <= 0.0) return true;
        if (p >= 1.0) return false;
        const std::uint64_t h = hash_combine(
            hash_combine(route_seed_, FaultState::edge_key(u, v)), epoch_);
        return FaultState::fault_coin(h) >= p;
    }

    /// One epoch per hop attempt (a move or a wait-out), advanced by the
    /// send path so transient states are re-drawn each attempt.
    void advance_epoch() noexcept { ++epoch_; }
    [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

    /// The send at `attempt` (a route-global counter) is lost in flight.
    /// Keyed off the all-ones pseudo-edge, which no real edge key can
    /// collide with (edge keys require lo < hi).
    [[nodiscard]] bool message_lost(std::uint64_t attempt) const noexcept {
        const double p = state_ != nullptr ? state_->plan().message_loss_prob : 0.0;
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        const std::uint64_t h =
            hash_combine(hash_combine(route_seed_, ~std::uint64_t{0}), attempt);
        return FaultState::fault_coin(h) < p;
    }

private:
    const FaultState* state_ = nullptr;
    std::uint64_t route_seed_ = 0;
    std::uint64_t epoch_ = 0;
};

}  // namespace smallworld
