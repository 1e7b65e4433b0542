#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/phi_dfs.h"
#include "distributed/event.h"
#include "distributed/protocols.h"
#include "distributed/serving.h"
#include "girg/generator.h"
#include "girg/hub_rows.h"
#include "random/rng.h"
#include "oracles.h"

// Differential test of simulate_many (decide each walk, then replay the
// event clock) against the event model written from DESIGN.md §10
// (oracles.h), which runs its own greedy and Φ-DFS steps inside each wake:
// every per-query field, every ServingTelemetry counter and every per-node
// vector must match exactly, across protocols, latency models, service
// intervals, queue bounds, fault plans, adversary plans and batch shapes.

namespace smallworld {
namespace {

// ------------------------------------------------------------- comparison

#define SW_DIFF_FIELD(field)                                                  \
    if (expected.field != actual.field) {                                     \
        out << where << #field << ": expected " << expected.field << ", got " \
            << actual.field;                                                  \
        return out.str();                                                     \
    }

std::string diff_query(const DistributedResult& expected, const DistributedResult& actual,
                       std::size_t index) {
    std::ostringstream out;
    const std::string where = "query " + std::to_string(index) + " ";
    if (expected.routing.status != actual.routing.status) {
        out << where << "status: expected " << static_cast<int>(expected.routing.status)
            << ", got " << static_cast<int>(actual.routing.status);
        return out.str();
    }
    if (expected.routing.path != actual.routing.path) {
        out << where << "path differs (lengths " << expected.routing.path.size() << " vs "
            << actual.routing.path.size() << ")";
        return out.str();
    }
    SW_DIFF_FIELD(routing.retries)
    SW_DIFF_FIELD(telemetry.wakes)
    SW_DIFF_FIELD(telemetry.messages_sent)
    SW_DIFF_FIELD(telemetry.slots_touched)
    SW_DIFF_FIELD(telemetry.locality_violations)
    SW_DIFF_FIELD(telemetry.illegal_forwards)
    SW_DIFF_FIELD(telemetry.message_drops)
    SW_DIFF_FIELD(telemetry.retries)
    SW_DIFF_FIELD(telemetry.skipped_dead_neighbors)
    SW_DIFF_FIELD(telemetry.queue_drops)
    SW_DIFF_FIELD(telemetry.audit_flags)
    SW_DIFF_FIELD(telemetry.misroutes_observed)
    return {};
}

/// The first difference between two serving results, or "" when every
/// field agrees.
std::string diff_serving(const ServingResult& expected, const ServingResult& actual) {
    std::ostringstream out;
    if (expected.queries.size() != actual.queries.size()) {
        out << "query count " << expected.queries.size() << " vs " << actual.queries.size();
        return out.str();
    }
    for (std::size_t i = 0; i < expected.queries.size(); ++i) {
        std::string d = diff_query(expected.queries[i], actual.queries[i], i);
        if (!d.empty()) return d;
    }
    const std::string where;
    SW_DIFF_FIELD(serving.clock_end)
    SW_DIFF_FIELD(serving.events_fired)
    SW_DIFF_FIELD(serving.events_scheduled)
    SW_DIFF_FIELD(serving.heap_high_water)
    SW_DIFF_FIELD(serving.total_wakes)
    SW_DIFF_FIELD(serving.queue_drops)
    SW_DIFF_FIELD(serving.busy_ticks_total)
    if (expected.serving.node_wakes != actual.serving.node_wakes) return "node_wakes differ";
    if (expected.serving.node_queue_high_water != actual.serving.node_queue_high_water) {
        return "node_queue_high_water differ";
    }
    if (expected.serving.node_queue_drops != actual.serving.node_queue_drops) {
        return "node_queue_drops differ";
    }
    if (expected.serving.node_busy_ticks != actual.serving.node_busy_ticks) {
        return "node_busy_ticks differ";
    }
    return {};
}

#undef SW_DIFF_FIELD

// ------------------------------------------------------ audited factory

/// What the production run's factory saw: the targets it was asked for, in
/// call order, and how many of its objectives were alive at once.
struct FactoryAudit {
    std::vector<Vertex> calls;
    int live = 0;
    int max_live = 0;
};

class AuditedObjective final : public Objective {
public:
    AuditedObjective(const Girg& girg, Vertex target, FactoryAudit& audit)
        : base_(girg, target), audit_(&audit) {
        ++audit_->live;
        if (audit_->live > audit_->max_live) audit_->max_live = audit_->live;
    }
    ~AuditedObjective() override { --audit_->live; }
    AuditedObjective(const AuditedObjective&) = delete;
    AuditedObjective& operator=(const AuditedObjective&) = delete;

    [[nodiscard]] double value(Vertex v) const override { return base_.value(v); }
    [[nodiscard]] Vertex target() const override { return base_.target(); }
    void values(std::span<const Vertex> vertices, double* out) const override {
        base_.values(vertices, out);
    }
    [[nodiscard]] BestNeighbor best_of(std::span<const Vertex> vertices) const override {
        return base_.best_of(vertices);
    }
    // Forwarded, so the production side prunes hub rows as a plain
    // GirgObjective does; the oracle reads value() alone.
    [[nodiscard]] BestNeighbor best_above(Vertex holder, std::span<const Vertex> row,
                                          double floor) const override {
        return base_.best_above(holder, row, floor);
    }

private:
    GirgObjective base_;
    FactoryAudit* audit_;
};

// ------------------------------------------------------------------ grid

enum class Proto { kGreedy, kPhiDfs };
enum class Adversary { kNone, kLiars, kMisroute };

struct GridParam {
    Proto protocol;
    bool faulted;
    Adversary adversary;
};

std::string name_of(const GridParam& param) {
    std::string name = param.protocol == Proto::kGreedy ? "Greedy" : "PhiDfs";
    name += param.faulted ? "_Faulted" : "_Honest";
    switch (param.adversary) {
        case Adversary::kNone: name += "_NoAdversary"; break;
        case Adversary::kLiars: name += "_InflateBlackholePhantoms"; break;
        case Adversary::kMisroute: name += "_Misroute"; break;
    }
    return name;
}

std::string param_name(const ::testing::TestParamInfo<GridParam>& info) {
    return name_of(info.param);
}

// gtest would print the parameter's bytes, padding included, into the
// listed (and so the CTest) test names.
void PrintTo(const GridParam& param, std::ostream* os) { *os << name_of(param); }

struct Latency {
    const char* name;
    LatencyModel model;
};

std::vector<Latency> latencies() {
    std::vector<Latency> out;
    LatencyModel zero;
    zero.base_ticks = 0;
    out.push_back({"constant0", zero});
    LatencyModel one;
    one.base_ticks = 1;
    out.push_back({"constant1", one});
    LatencyModel jitter;
    jitter.kind = LatencyKind::kSeededJitter;
    jitter.base_ticks = 1;
    jitter.jitter_ticks = 3;
    jitter.seed = 301;
    out.push_back({"jitter", jitter});
    LatencyModel distance;
    distance.kind = LatencyKind::kDistanceProportional;
    distance.base_ticks = 1;
    distance.ticks_per_unit_distance = 40.0;
    out.push_back({"distance", distance});
    return out;
}

/// One point of the option grid: latency x service interval x queue bound
/// x step budget.
struct Cell {
    std::string name;
    ServingOptions options;
};

std::vector<Cell> cells(const Girg& girg, const FaultState* faults,
                        const AdversaryState* adversary) {
    std::vector<Cell> out;
    for (const Latency& latency : latencies()) {
        for (const SimTime service : {SimTime{0}, SimTime{1}, SimTime{3}}) {
            for (const std::size_t capacity : {0, 1, 2, 4}) {
                // The default budget, and one tight enough that walks end on it.
                for (const std::size_t budget : {0, 3}) {
                    Cell cell;
                    cell.name = std::string(latency.name) +
                                " service=" + std::to_string(service) +
                                " capacity=" + std::to_string(capacity) +
                                " budget=" + std::to_string(budget);
                    ServingOptions& options = cell.options;
                    options.routing.max_steps = budget;
                    options.routing.faults = faults;
                    options.routing.adversary = adversary;
                    options.latency = latency.model;
                    options.positions = &girg.positions;
                    options.service_ticks = service;
                    options.queue_capacity = capacity;
                    options.seed = 306 + out.size();
                    out.push_back(std::move(cell));
                }
            }
        }
    }
    return out;
}

struct Batch {
    const char* name;
    std::vector<ServingQuery> queries;
};

constexpr std::size_t kBatchSize = 16;

/// The six batch shapes, drawn on `girg`; the one-query batch is `single`.
/// Under faults the all-distinct batch starts its first query at a crashed
/// vertex, and the one-source batch uses a live source.
std::vector<Batch> batches(const Girg& girg, const FaultState* faults,
                           const ServingQuery& single) {
    const auto n = girg.num_vertices();
    Rng rng(302);
    const auto any = [&] { return static_cast<Vertex>(rng.uniform_index(n)); };
    const auto live = [&] {
        Vertex v = any();
        while (faults != nullptr && faults->crashed(v)) v = any();
        return v;
    };
    std::vector<Batch> out;
    out.push_back({"one_query", {single}});

    Batch distinct{"distinct_targets", {}};
    for (std::size_t i = 0; i < kBatchSize; ++i) {
        distinct.queries.push_back({any(), static_cast<Vertex>((i * 37 + 5) % n),
                                    static_cast<SimTime>(i % 5)});
    }
    if (faults != nullptr) {
        for (Vertex v = 0; v < n; ++v) {
            if (faults->crashed(v)) {
                distinct.queries.front().source = v;
                break;
            }
        }
    }
    out.push_back(std::move(distinct));

    Batch one_target{"one_target", {}};
    const Vertex shared = any();
    for (std::size_t i = 0; i < kBatchSize; ++i) {
        one_target.queries.push_back({any(), shared, static_cast<SimTime>(i % 3)});
    }
    out.push_back(std::move(one_target));

    Batch zipf{"zipf_targets", {}};
    std::vector<Vertex> hot;
    for (int r = 0; r < 5; ++r) hot.push_back(any());
    const double total = 1.0 + 1.0 / 2 + 1.0 / 3 + 1.0 / 4 + 1.0 / 5;
    for (std::size_t i = 0; i < kBatchSize; ++i) {
        double u = rng.uniform() * total;
        std::size_t rank = 0;
        while (rank + 1 < hot.size() && u >= 1.0 / static_cast<double>(rank + 1)) {
            u -= 1.0 / static_cast<double>(rank + 1);
            ++rank;
        }
        zipf.queries.push_back({any(), hot[rank], static_cast<SimTime>(i / 2)});
    }
    out.push_back(std::move(zipf));

    Batch repeated{"repeated_pair", {}};
    const ServingQuery pair{any(), any(), 0};
    for (std::size_t i = 0; i < kBatchSize; ++i) repeated.queries.push_back(pair);
    out.push_back(std::move(repeated));

    Batch one_source{"one_source_one_tick", {}};
    const Vertex source = live();
    for (std::size_t i = 0; i < kBatchSize; ++i) {
        one_source.queries.push_back({source, any(), 0});
    }
    out.push_back(std::move(one_source));
    return out;
}

/// A query whose lockstep walk (fault nonce 0, which is what batch index 0
/// draws) ends on a phantom hop: a byzantine source forwards along one of
/// the non-edges it advertises. Random pairs rarely do, because blackholes
/// swallow every byzantine vertex but a source.
ServingQuery phantom_ending_query(const Girg& girg, const DistributedProtocol& protocol,
                                  const FaultState* faults,
                                  const AdversaryState& adversary) {
    const AdversaryView view(&adversary);
    RoutingOptions options;
    options.faults = faults;
    options.adversary = &adversary;
    for (Vertex s = 0; s < girg.num_vertices(); ++s) {
        if (!view.advertises_phantoms(s)) continue;
        for (Vertex t = 0; t < girg.num_vertices(); ++t) {
            const GirgObjective objective(girg, t);
            const DistributedResult r =
                simulate_routing(girg.graph, objective, protocol, s, options);
            const auto& path = r.routing.path;
            if (r.telemetry.audit_flags != 0 && path.size() == 2 &&
                AdversaryView::phantom_link(girg.graph, s, path.back())) {
                return {s, t, 0};
            }
        }
    }
    ADD_FAILURE() << "no query ends on a phantom hop";
    return {0, 0, 0};
}

GirgParams grid_params() {
    GirgParams p;
    p.n = 320;
    p.dim = 2;
    p.alpha = 2.0;
    p.beta = 2.5;
    p.wmin = 1.5;  // several components: greedy dead ends and Φ-DFS exhaustion
    p.edge_scale = calibrated_edge_scale(p);
    return p;
}

/// How the queries of a grid instance ended, for the coverage asserts.
struct Coverage {
    std::size_t runs = 0;
    std::size_t queries = 0;
    std::size_t refused_at_injection = 0;
    std::size_t refused_after_forward = 0;
    std::size_t crashed_sources = 0;
    std::size_t phantom_ends = 0;
    std::size_t blackhole_ends = 0;
    std::size_t budget_ends_after_forward = 0;
    std::size_t retries = 0;
    std::size_t misroutes = 0;
};

void tally(const Girg& girg, const AdversaryState* adversary, const ServingResult& result,
           Coverage& coverage) {
    const AdversaryView view(adversary);
    ++coverage.runs;
    for (const DistributedResult& q : result.queries) {
        ++coverage.queries;
        const auto& path = q.routing.path;
        const std::size_t decided = q.telemetry.wakes - q.telemetry.retries;
        coverage.retries += q.routing.retries;
        coverage.misroutes += q.telemetry.misroutes_observed;
        if (q.telemetry.queue_drops != 0) {
            ++(path.size() == 1 ? coverage.refused_at_injection
                                : coverage.refused_after_forward);
            continue;
        }
        if (decided == 0) ++coverage.crashed_sources;
        // A last wake that moved the packet without scheduling its arrival.
        if (path.size() != decided + 1 || path.size() < 2) continue;
        const Vertex from = path[path.size() - 2];
        const Vertex to = path.back();
        if (q.routing.status == RoutingStatus::kStepLimit) {
            ++coverage.budget_ends_after_forward;
        } else if (q.telemetry.audit_flags != 0) {
            ++(view.advertises_phantoms(from) &&
                       AdversaryView::phantom_link(girg.graph, from, to)
                   ? coverage.phantom_ends
                   : coverage.blackhole_ends);
        }
    }
}

class ServingDiff : public ::testing::TestWithParam<GridParam> {};

TEST_P(ServingDiff, MatchesThePreSplitEventLoopOnEveryField) {
    const GridParam param = GetParam();
    const Girg girg = generate_girg(grid_params(), 303);

    FaultPlan fault_plan;
    fault_plan.seed = 304;
    fault_plan.message_loss_prob = 0.1;
    fault_plan.link_failure_prob = 0.1;
    fault_plan.crash_fraction = 0.05;
    fault_plan.edge_removal_prob = 0.05;
    const FaultState fault_state(girg.graph, fault_plan);
    const FaultState* faults = param.faulted ? &fault_state : nullptr;

    AdversaryPlan adversary_plan;
    adversary_plan.seed = 305;
    adversary_plan.byzantine_fraction = 0.1;
    if (param.adversary == Adversary::kLiars) {
        adversary_plan.weight_lie_factor = 4.0;
        adversary_plan.blackhole = true;
        adversary_plan.phantom_neighbors = 2;
    } else if (param.adversary == Adversary::kMisroute) {
        adversary_plan.misroute = true;
    }
    const AdversaryState adversary_state(girg.graph, adversary_plan);
    const AdversaryState* adversary =
        param.adversary != Adversary::kNone ? &adversary_state : nullptr;

    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    const DistributedProtocol& protocol =
        param.protocol == Proto::kGreedy ? static_cast<const DistributedProtocol&>(greedy)
                                         : phi_dfs;
    const reference::Protocol oracle_protocol = param.protocol == Proto::kGreedy
                                                    ? reference::Protocol::kGreedy
                                                    : reference::Protocol::kPhiDfs;
    const TargetObjectiveFactory plain = [&girg](Vertex target) {
        return std::make_unique<GirgObjective>(girg, target);
    };
    const ServingQuery single =
        param.adversary == Adversary::kLiars
            ? phantom_ending_query(girg, protocol, faults, adversary_state)
            : ServingQuery{7, 11, 0};
    const std::vector<Batch> shapes = batches(girg, faults, single);

    Coverage coverage;
    for (const Cell& cell : cells(girg, faults, adversary)) {
        for (const Batch& batch : shapes) {
            const std::string where = cell.name + " batch=" + batch.name;
            const ServingResult expected = reference::simulate_many(
                girg.graph, plain, oracle_protocol, batch.queries, cell.options);

            FactoryAudit audit;
            const TargetObjectiveFactory audited = [&](Vertex target) {
                EXPECT_EQ(audit.live, 0) << "an objective outlived its target";
                audit.calls.push_back(target);
                return std::make_unique<AuditedObjective>(girg, target, audit);
            };
            const ServingResult actual =
                simulate_many(girg.graph, audited, protocol, batch.queries, cell.options);
            ASSERT_EQ(diff_serving(expected, actual), "") << where;

            // One call per distinct target, in ascending order, and never two
            // objectives alive at once.
            std::vector<Vertex> targets;
            for (const ServingQuery& q : batch.queries) targets.push_back(q.target);
            std::sort(targets.begin(), targets.end());
            targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
            ASSERT_EQ(audit.calls, targets) << where;
            ASSERT_EQ(audit.max_live, 1) << where;
            ASSERT_EQ(audit.live, 0) << where;

            tally(girg, adversary, actual, coverage);
        }
    }

    // Every instance must reach the configurations the split is delicate
    // about, or the equality above proves less than it seems to.
    EXPECT_EQ(coverage.runs, 4u * 3u * 4u * 2u * 6u);
    EXPECT_GT(coverage.refused_at_injection, 0u);
    EXPECT_GT(coverage.refused_after_forward, 0u);
    EXPECT_GT(coverage.budget_ends_after_forward, 0u);
    if (param.faulted) {
        EXPECT_GT(coverage.crashed_sources, 0u);
        EXPECT_GT(coverage.retries, 0u);
    }
    if (param.adversary == Adversary::kLiars) {
        EXPECT_GT(coverage.phantom_ends, 0u);
        EXPECT_GT(coverage.blackhole_ends, 0u);
    }
    if (param.adversary == Adversary::kMisroute) {
        EXPECT_GT(coverage.misroutes, 0u);
    }
}

/// Honest serving on an instance with hub rows (degree >= 256), where the
/// production walk prunes its argmax and the oracle reads every row entry's
/// value.
TEST(ServingDiffHubs, PrunedDecisionsMatchThePreSplitEventLoop) {
    GirgParams params = grid_params();
    params.n = 1 << 14;
    params.wmin = 2.0;
    params.edge_scale = calibrated_edge_scale(params);
    const Girg girg = generate_girg(params, 307);
    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    const TargetObjectiveFactory plain = [&girg](Vertex target) {
        return std::make_unique<GirgObjective>(girg, target);
    };
    FactoryAudit audit;
    const TargetObjectiveFactory audited = [&](Vertex target) {
        return std::make_unique<AuditedObjective>(girg, target, audit);
    };

    // Zipf-shared targets, as the serving benchmark draws them.
    Rng rng(308);
    std::vector<Vertex> hot;
    for (int r = 0; r < 8; ++r) {
        hot.push_back(static_cast<Vertex>(rng.uniform_index(girg.num_vertices())));
    }
    std::vector<ServingQuery> queries;
    for (std::size_t i = 0; i < 128; ++i) {
        const std::size_t rank = std::min<std::size_t>(
            hot.size() - 1, static_cast<std::size_t>(1.0 / (1.0 - 0.9 * rng.uniform())) - 1);
        queries.push_back({static_cast<Vertex>(rng.uniform_index(girg.num_vertices())), hot[rank],
                           static_cast<SimTime>(i / 8)});
    }

    std::size_t hub_wakes = 0;
    for (const Latency& latency : latencies()) {
        for (const std::size_t capacity : {0, 2}) {
            for (const auto& [protocol, oracle_protocol] :
                 {std::pair<const DistributedProtocol*, reference::Protocol>{
                      &greedy, reference::Protocol::kGreedy},
                  {&phi_dfs, reference::Protocol::kPhiDfs}}) {
                ServingOptions options;
                options.latency = latency.model;
                options.positions = &girg.positions;
                options.service_ticks = 1;
                options.queue_capacity = capacity;
                options.seed = 309;
                options.routing.max_steps = 2000;  // Φ-DFS toward another component
                const std::string where = std::string(latency.name) +
                                          " capacity=" + std::to_string(capacity) + " " +
                                          protocol->name();
                const ServingResult expected = reference::simulate_many(
                    girg.graph, plain, oracle_protocol, queries, options);
                const ServingResult actual =
                    simulate_many(girg.graph, audited, *protocol, queries, options);
                ASSERT_EQ(diff_serving(expected, actual), "") << where;
                for (const DistributedResult& q : actual.queries) {
                    for (const Vertex v : q.routing.path) {
                        if (girg.graph.degree(v) >= HubRowSummary::kMinDegree) ++hub_wakes;
                    }
                }
            }
        }
    }
    EXPECT_GT(hub_wakes, 100u) << "the walks must cross hub rows";
}

// ------------------------------------------------------------ event queue

/// The production queue (a heap for pushed events, a backlog for injected
/// ones) against the oracle's event order (one sorted set of every pending
/// event), through random interleavings of bulk injections, pushes and
/// pops: the same events pop in the same order, and the high water and
/// the schedule count agree after every step. Times are drawn from the
/// current tick and the next three, so pushes at the current tick and equal
/// times across the backlog and the heap are common; every round drains
/// both queues, so the next round's first schedules follow a drain.
TEST(EventQueueTest, PopsInTheOrderOfTheQueueItReplaced) {
    std::size_t cross_ties = 0;      // consecutive equal-time pops, one per store
    std::size_t current_tick = 0;    // schedules at the last popped time
    std::size_t after_drain = 0;     // schedules onto a drained queue
    for (std::uint64_t trial = 0; trial < 64; ++trial) {
        Rng rng(700 + trial);
        EventQueue queue(trial);
        reference::EventQueue oracle(trial);
        std::vector<bool> injected;  // by schedule number (the oracle's seq)
        SimTime now = 0;
        const auto schedule = [&](bool inject) {
            const SimTime time = now + rng.uniform_index(4);
            const auto node = static_cast<std::uint32_t>(rng.uniform_index(16));
            const QueryId query =
                rng.uniform_index(3) == 0 ? kNoQuery : static_cast<QueryId>(rng.uniform_index(64));
            if (time == now) ++current_tick;
            if (queue.empty()) ++after_drain;
            if (inject) {
                queue.inject(time, node, query);
            } else {
                queue.push(time, node, query);
            }
            oracle.push(time,
                        query == kNoQuery ? reference::EventKind::kWake
                                          : reference::EventKind::kArrival,
                        node, query);
            injected.push_back(inject);
        };
        bool last_injected = false;
        SimTime last_time = 0;
        bool popped = false;
        const auto pop = [&] {
            ASSERT_FALSE(oracle.empty());
            const Event got = queue.pop();
            const reference::Event want = oracle.pop();
            ASSERT_EQ(got.time, want.time);
            ASSERT_EQ(got.salt, want.salt);
            ASSERT_EQ(got.node, want.node);
            ASSERT_EQ(got.query, want.query);
            ASSERT_EQ(want.kind == reference::EventKind::kWake, got.query == kNoQuery);
            if (popped && want.time == last_time && injected[want.seq] != last_injected) {
                ++cross_ties;
            }
            popped = true;
            last_time = want.time;
            last_injected = injected[want.seq];
            now = want.time;
        };
        const auto agree = [&] {
            ASSERT_EQ(queue.empty(), oracle.empty());
            ASSERT_EQ(queue.size(), oracle.size());
            ASSERT_EQ(queue.high_water(), oracle.high_water());
            ASSERT_EQ(queue.scheduled(), oracle.scheduled());
        };
        for (int round = 0; round < 4; ++round) {
            // A batch's injections first, then a random mix.
            const std::size_t batch = rng.uniform_index(48);
            for (std::size_t i = 0; i < batch; ++i) schedule(true);
            ASSERT_NO_FATAL_FAILURE(agree());
            for (int step = 0; step < 200; ++step) {
                const std::uint64_t op = rng.uniform_index(16);
                if (op == 0) {
                    const std::size_t bulk = rng.uniform_index(24);
                    for (std::size_t i = 0; i < bulk; ++i) schedule(true);
                } else if (op < 7) {
                    schedule(false);
                } else if (!oracle.empty()) {
                    ASSERT_NO_FATAL_FAILURE(pop());
                }
                ASSERT_NO_FATAL_FAILURE(agree());
            }
            while (!oracle.empty()) {
                ASSERT_NO_FATAL_FAILURE(pop());
                ASSERT_NO_FATAL_FAILURE(agree());
            }
        }
    }
    EXPECT_GT(cross_ties, 100u);
    EXPECT_GT(current_tick, 1000u);
    EXPECT_GT(after_drain, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServingDiff,
    ::testing::Values(GridParam{Proto::kGreedy, false, Adversary::kNone},
                      GridParam{Proto::kGreedy, false, Adversary::kLiars},
                      GridParam{Proto::kGreedy, false, Adversary::kMisroute},
                      GridParam{Proto::kGreedy, true, Adversary::kNone},
                      GridParam{Proto::kGreedy, true, Adversary::kLiars},
                      GridParam{Proto::kGreedy, true, Adversary::kMisroute},
                      GridParam{Proto::kPhiDfs, false, Adversary::kNone},
                      GridParam{Proto::kPhiDfs, false, Adversary::kLiars},
                      GridParam{Proto::kPhiDfs, false, Adversary::kMisroute},
                      GridParam{Proto::kPhiDfs, true, Adversary::kNone},
                      GridParam{Proto::kPhiDfs, true, Adversary::kLiars},
                      GridParam{Proto::kPhiDfs, true, Adversary::kMisroute}),
    param_name);

}  // namespace
}  // namespace smallworld
