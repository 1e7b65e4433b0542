#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/fault.h"
#include "core/phi_dfs.h"
#include "distributed/event.h"
#include "distributed/latency.h"
#include "distributed/protocols.h"
#include "distributed/queue.h"
#include "distributed/serving.h"
#include "girg/generator.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

using testing::ScenarioBuilder;

GirgParams serving_params(double wmin) {
    GirgParams p;
    p.n = 2500;
    p.dim = 2;
    p.alpha = 2.0;
    p.beta = 2.5;
    p.wmin = wmin;
    p.edge_scale = calibrated_edge_scale(p);
    return p;
}

TargetObjectiveFactory girg_factory(const Girg& girg) {
    return [&girg](Vertex target) -> std::unique_ptr<Objective> {
        return std::make_unique<GirgObjective>(girg, target);
    };
}

// ------------------------------------------------------------- event heap

TEST(EventQueueTest, PopsInTimeOrderAndTracksHighWater) {
    EventQueue q(11);
    const SimTime times[] = {5, 1, 9, 1, 3, 9, 0, 7};
    for (std::size_t i = 0; i < 8; ++i) {
        q.push(times[i], static_cast<std::uint32_t>(i), static_cast<QueryId>(i));
    }
    EXPECT_EQ(q.size(), 8u);
    EXPECT_EQ(q.high_water(), 8u);
    EXPECT_EQ(q.scheduled(), 8u);
    SimTime last = 0;
    while (!q.empty()) {
        const Event e = q.pop();
        EXPECT_GE(e.time, last);
        last = e.time;
    }
}

TEST(EventQueueTest, SameTimeOrderIsAPureFunctionOfSeed) {
    const auto drain = [](std::uint64_t seed) {
        EventQueue q(seed);
        for (std::uint32_t i = 0; i < 32; ++i) {
            q.push(7, i, static_cast<QueryId>(i));
        }
        std::vector<std::uint32_t> order;
        while (!q.empty()) order.push_back(q.pop().node);
        return order;
    };
    const auto a = drain(123);
    EXPECT_EQ(a, drain(123));  // reproducible
    // Different seed shuffles the tie-break (equality has probability
    // ~1/32!); insertion order likewise does not leak through.
    EXPECT_NE(a, drain(456));
}

// ------------------------------------------------------------- node queue

TEST(NodeQueueTest, BoundedFifoCountsDropsAndHighWater) {
    std::vector<QueryId> next(64);  // the batch's link array
    NodeQueue q;
    q.set_capacity(2);
    EXPECT_TRUE(q.push(10, next));
    EXPECT_TRUE(q.push(20, next));
    EXPECT_FALSE(q.push(30, next));  // full: refused and counted
    EXPECT_EQ(q.drops(), 1u);
    EXPECT_EQ(q.high_water(), 2u);
    EXPECT_EQ(q.pop(next), 10u);  // FIFO
    EXPECT_TRUE(q.push(30, next));  // one slot freed
    EXPECT_EQ(q.pop(next), 20u);
    EXPECT_EQ(q.pop(next), 30u);
    EXPECT_TRUE(q.empty());
}

TEST(NodeQueueTest, DrainAndRefillManyTimes) {
    // The queue empties and refills over and over, reusing query ids, so
    // the head of each refill is the link array entry a drained queue left
    // behind.
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{3}}) {
        SCOPED_TRACE(capacity);
        std::vector<QueryId> next(8);
        NodeQueue q;
        q.set_capacity(capacity);
        std::size_t high_water = 0;
        std::size_t drops = 0;
        for (std::uint32_t round = 0; round < 200; ++round) {
            const std::uint32_t count = 1 + round % 6;
            std::vector<QueryId> accepted;
            for (std::uint32_t k = 0; k < count; ++k) {
                const QueryId id = (round + k) % 8;
                const bool fits = capacity == 0 || accepted.size() < capacity;
                ASSERT_EQ(q.push(id, next), fits) << round;
                if (fits) {
                    accepted.push_back(id);
                } else {
                    ++drops;
                }
                EXPECT_EQ(q.depth(), accepted.size());
            }
            high_water = std::max(high_water, accepted.size());
            EXPECT_EQ(q.high_water(), high_water);
            EXPECT_EQ(q.drops(), drops);
            for (std::size_t k = 0; k < accepted.size(); ++k) {
                ASSERT_FALSE(q.empty());
                EXPECT_EQ(q.pop(next), accepted[k]) << round;
                EXPECT_EQ(q.depth(), accepted.size() - k - 1);
            }
            EXPECT_TRUE(q.empty());
        }
        EXPECT_EQ(q.high_water(), capacity == 0 ? 6u : 3u);
    }
}

TEST(NodeQueueTest, InterleavedPushesAndPopsKeepFifoOrderAcrossSharedLinks) {
    // Three queues thread their entries through one link array while query
    // ids are recycled as they are served. Queue 0 never drains after its
    // first push; every queue is checked against a std::deque model.
    constexpr std::size_t kQueues = 3;
    constexpr QueryId kIds = 24;
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{4}}) {
        SCOPED_TRACE(capacity);
        std::vector<QueryId> next(kIds);
        std::vector<NodeQueue> queues(kQueues);
        std::vector<std::deque<QueryId>> model(kQueues);
        std::vector<std::size_t> high_water(kQueues, 0);
        std::vector<std::size_t> drops(kQueues, 0);
        std::vector<QueryId> free_ids;
        for (QueryId id = 0; id < kIds; ++id) free_ids.push_back(kIds - 1 - id);
        for (NodeQueue& q : queues) q.set_capacity(capacity);

        Rng rng(91);
        for (int op = 0; op < 5000; ++op) {
            const std::size_t k = rng.uniform_index(kQueues);
            const bool keep_one = k == 0;
            const bool can_pop = model[k].size() > (keep_one ? 1u : 0u);
            if (!free_ids.empty() && (!can_pop || rng.uniform() < 0.5)) {
                const QueryId id = free_ids.back();
                const bool fits = capacity == 0 || model[k].size() < capacity;
                ASSERT_EQ(queues[k].push(id, next), fits) << op;
                if (fits) {
                    free_ids.pop_back();
                    model[k].push_back(id);
                } else {
                    ++drops[k];
                }
            } else if (can_pop) {
                const QueryId id = queues[k].pop(next);
                ASSERT_EQ(id, model[k].front()) << op;
                model[k].pop_front();
                free_ids.push_back(id);
            }
            high_water[k] = std::max(high_water[k], model[k].size());
            for (std::size_t j = 0; j < kQueues; ++j) {
                ASSERT_EQ(queues[j].depth(), model[j].size()) << op;
                ASSERT_EQ(queues[j].empty(), model[j].empty()) << op;
                ASSERT_EQ(queues[j].high_water(), high_water[j]) << op;
                ASSERT_EQ(queues[j].drops(), drops[j]) << op;
            }
        }
        EXPECT_FALSE(queues[0].empty());
        if (capacity != 0) {
            EXPECT_GT(drops[0] + drops[1] + drops[2], 0u);  // the bound was hit
        }
        for (std::size_t j = 0; j < kQueues; ++j) {
            while (!model[j].empty()) {
                EXPECT_EQ(queues[j].pop(next), model[j].front());
                model[j].pop_front();
            }
            EXPECT_TRUE(queues[j].empty());
        }
    }
}

// ---------------------------------------------------------- latency models

TEST(LinkLatencyTest, ConstantModelIgnoresEdgeAndIndex) {
    LatencyModel model;
    model.base_ticks = 7;
    const LinkLatency latency(model, nullptr);
    EXPECT_EQ(latency.delay(0, 1, 0), 7u);
    EXPECT_EQ(latency.delay(5, 9, 42), 7u);
}

TEST(LinkLatencyTest, DistanceProportionalUsesTorusDistance) {
    ScenarioBuilder b;
    const Vertex u = b.vertex(0.0);
    const Vertex v = b.vertex(0.25);
    const Vertex w = b.vertex(0.75);  // torus wrap: also distance 0.25 from u
    const Girg g = b.edge(u, v).edge(u, w).build();
    LatencyModel model;
    model.kind = LatencyKind::kDistanceProportional;
    model.base_ticks = 1;
    model.ticks_per_unit_distance = 64.0;  // dyadic: 0.25 * 64 = 16 exactly
    const LinkLatency latency(model, &g.positions);
    EXPECT_EQ(latency.delay(u, v, 0), 17u);
    EXPECT_EQ(latency.delay(u, w, 0), 17u);  // wraps around the torus
    EXPECT_EQ(latency.delay(v, w, 0), 1u + 32u);
}

TEST(LinkLatencyDeathTest, RejectsRatesWhoseDistanceTermOverflowsSimTime) {
    ScenarioBuilder b;
    const Vertex u = b.vertex(0.0);
    const Vertex w = b.vertex(0.5);  // the largest torus distance
    const Girg g = b.edge(u, w).build();
    LatencyModel model;
    model.kind = LatencyKind::kDistanceProportional;
    model.base_ticks = 0;
    for (const double rate : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(), -1.0, 0x1p65,
                              1e300}) {
        model.ticks_per_unit_distance = rate;
        EXPECT_DEATH(LinkLatency(model, &g.positions), "ticks_per_unit_distance") << rate;
    }
    // The largest admitted rate: its distance term at distance 1/2 is the
    // largest double below 2^64, converted exactly.
    model.ticks_per_unit_distance = std::nextafter(0x1p65, 0.0);
    const LinkLatency latency(model, &g.positions);
    EXPECT_EQ(latency.delay(u, w, 0), std::numeric_limits<SimTime>::max() - 2047u);
}

TEST(LinkLatencyTest, SeededJitterIsBoundedAndReproducible) {
    LatencyModel model;
    model.kind = LatencyKind::kSeededJitter;
    model.base_ticks = 2;
    model.jitter_ticks = 5;
    model.seed = 77;
    const LinkLatency latency(model, nullptr);
    for (std::uint64_t i = 0; i < 64; ++i) {
        const SimTime d = latency.delay(3, 4, i);
        EXPECT_GE(d, 2u);
        EXPECT_LE(d, 7u);
        EXPECT_EQ(d, latency.delay(3, 4, i));  // pure function of the key
        EXPECT_EQ(d, latency.delay(4, 3, i));  // canonical edge key
    }
}

// ----------------------------- lockstep equivalence (the acceptance bar)

void expect_query_matches_lockstep(const DistributedResult& event_driven,
                                   const DistributedResult& lockstep) {
    EXPECT_EQ(event_driven.routing.status, lockstep.routing.status);
    EXPECT_EQ(event_driven.routing.path, lockstep.routing.path);
    EXPECT_EQ(event_driven.routing.retries, lockstep.routing.retries);
    EXPECT_EQ(event_driven.telemetry.wakes, lockstep.telemetry.wakes);
    EXPECT_EQ(event_driven.telemetry.messages_sent, lockstep.telemetry.messages_sent);
    EXPECT_EQ(event_driven.telemetry.slots_touched, lockstep.telemetry.slots_touched);
    EXPECT_EQ(event_driven.telemetry.locality_violations,
              lockstep.telemetry.locality_violations);
    EXPECT_EQ(event_driven.telemetry.illegal_forwards,
              lockstep.telemetry.illegal_forwards);
    EXPECT_EQ(event_driven.telemetry.message_drops, lockstep.telemetry.message_drops);
    EXPECT_EQ(event_driven.telemetry.retries, lockstep.telemetry.retries);
    EXPECT_EQ(event_driven.telemetry.skipped_dead_neighbors,
              lockstep.telemetry.skipped_dead_neighbors);
    EXPECT_EQ(event_driven.telemetry.queue_drops, 0u);
    EXPECT_EQ(lockstep.telemetry.queue_drops, 0u);
}

TEST(ServingEquivalence, SingleQueryZeroLatencyReplaysLockstep) {
    const Girg girg = generate_girg(serving_params(1.5), 63);
    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    Rng rng(64);
    for (const DistributedProtocol* protocol :
         {static_cast<const DistributedProtocol*>(&greedy),
          static_cast<const DistributedProtocol*>(&phi_dfs)}) {
        for (int trial = 0; trial < 40; ++trial) {
            const auto s = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
            const auto t = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
            ServingOptions options;
            options.routing.max_steps = 300 * girg.num_vertices();
            options.latency.base_ticks = 0;  // zero latency
            options.service_ticks = 0;
            const ServingQuery query{s, t, 0};
            const auto batch = simulate_many(girg.graph, girg_factory(girg), *protocol,
                                             {&query, 1}, options);
            ASSERT_EQ(batch.queries.size(), 1u);

            const GirgObjective obj(girg, t);
            RoutingOptions lockstep_options;
            lockstep_options.max_steps = options.routing.max_steps;
            const auto lockstep =
                simulate_routing(girg.graph, obj, *protocol, s, lockstep_options);
            expect_query_matches_lockstep(batch.queries[0], lockstep);
        }
    }
}

TEST(ServingEquivalence, SingleFaultedQueryReplaysLockstepDrawForDraw) {
    const Girg girg = generate_girg(serving_params(1.5), 65);
    FaultPlan plan;
    plan.seed = 66;
    plan.crash_fraction = 0.1;
    plan.message_loss_prob = 0.2;
    plan.link_failure_prob = 0.1;
    plan.edge_removal_prob = 0.05;
    const FaultState faults(girg.graph, plan);
    const DistributedGreedy greedy;
    Rng rng(67);
    for (int trial = 0; trial < 60; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        ServingOptions options;
        options.routing.faults = &faults;
        options.latency.base_ticks = 0;
        options.service_ticks = 0;
        const ServingQuery query{s, t, 0};
        const auto batch =
            simulate_many(girg.graph, girg_factory(girg), greedy, {&query, 1}, options);

        const GirgObjective obj(girg, t);
        RoutingOptions lockstep_options;
        lockstep_options.faults = &faults;
        const auto lockstep =
            simulate_routing(girg.graph, obj, greedy, s, lockstep_options);
        // Query #0 uses fault-stream nonce 0, i.e. the lockstep stream:
        // every loss, link and crash draw replays bit for bit.
        expect_query_matches_lockstep(batch.queries[0], lockstep);
    }
}

TEST(ServingEquivalence, ConcurrentQueriesEachMatchTheirLockstepRun) {
    // With unbounded queues, queries interact only through *timing* — so
    // even under heavy interleaving every query must walk exactly the path
    // its solo lockstep run walks.
    const Girg girg = generate_girg(serving_params(1.5), 69);
    const DistributedGreedy greedy;
    Rng rng(70);
    std::vector<ServingQuery> queries;
    for (int i = 0; i < 120; ++i) {
        queries.push_back(
            {static_cast<Vertex>(rng.uniform_index(girg.num_vertices())),
             static_cast<Vertex>(rng.uniform_index(girg.num_vertices())), 0});
    }
    ServingOptions options;
    options.latency.base_ticks = 1;
    options.service_ticks = 2;
    const auto batch =
        simulate_many(girg.graph, girg_factory(girg), greedy, queries, options);
    ASSERT_EQ(batch.queries.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const GirgObjective obj(girg, queries[i].target);
        const auto lockstep =
            simulate_routing(girg.graph, obj, greedy, queries[i].source);
        expect_query_matches_lockstep(batch.queries[i], lockstep);
    }
    EXPECT_EQ(batch.serving.queue_drops, 0u);
    EXPECT_EQ(batch.serving.events_fired, batch.serving.events_scheduled);
}

// ------------------------------------------------ determinism and threads

void expect_serving_identical(const ServingResult& a, const ServingResult& b) {
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (std::size_t i = 0; i < a.queries.size(); ++i) {
        EXPECT_EQ(a.queries[i].routing.status, b.queries[i].routing.status);
        EXPECT_EQ(a.queries[i].routing.path, b.queries[i].routing.path);
        EXPECT_EQ(a.queries[i].routing.retries, b.queries[i].routing.retries);
        EXPECT_EQ(a.queries[i].telemetry.wakes, b.queries[i].telemetry.wakes);
        EXPECT_EQ(a.queries[i].telemetry.queue_drops,
                  b.queries[i].telemetry.queue_drops);
    }
    EXPECT_EQ(a.serving.clock_end, b.serving.clock_end);
    EXPECT_EQ(a.serving.events_fired, b.serving.events_fired);
    EXPECT_EQ(a.serving.events_scheduled, b.serving.events_scheduled);
    EXPECT_EQ(a.serving.heap_high_water, b.serving.heap_high_water);
    EXPECT_EQ(a.serving.total_wakes, b.serving.total_wakes);
    EXPECT_EQ(a.serving.queue_drops, b.serving.queue_drops);
    EXPECT_EQ(a.serving.busy_ticks_total, b.serving.busy_ticks_total);
    EXPECT_EQ(a.serving.node_wakes, b.serving.node_wakes);
    EXPECT_EQ(a.serving.node_queue_high_water, b.serving.node_queue_high_water);
    EXPECT_EQ(a.serving.node_queue_drops, b.serving.node_queue_drops);
    EXPECT_EQ(a.serving.node_busy_ticks, b.serving.node_busy_ticks);
    EXPECT_TRUE(a == b) << "the full results differ";
}

/// Every objective's argmax a full scan, decided afresh at every wake.
TargetObjectiveFactory full_scan_factory(const Girg& girg) {
    return [&girg](Vertex target) -> std::unique_ptr<Objective> {
        return std::make_unique<testing::FullScanObjective>(
            std::make_unique<GirgObjective>(girg, target));
    };
}

TEST(ServingDeterminism, BitIdenticalAcrossThreadCounts) {
    // simulate_many runs on the calling thread whatever `threads` says, so
    // its runs must agree. The faulted batch's rows are residual, so none of
    // its decisions is remembered. The honest batch shares 8 targets on an
    // instance with hub rows, so most of its wakes answer from a decision
    // its objective remembers, and it must also agree with the batch whose
    // every argmax is a full scan.
    const auto run = [](const Girg& girg, const std::vector<ServingQuery>& queries,
                        const FaultState* faults, unsigned threads,
                        const TargetObjectiveFactory& factory) {
        ServingOptions options;
        options.routing.faults = faults;
        options.latency.kind = LatencyKind::kSeededJitter;
        options.latency.base_ticks = 1;
        options.latency.jitter_ticks = 4;
        options.latency.seed = 74;
        options.service_ticks = 2;
        options.queue_capacity = 4;
        options.seed = 75;
        options.threads = threads;
        return simulate_many(girg.graph, factory, DistributedGreedy{}, queries, options);
    };
    {
        const Girg girg = generate_girg(serving_params(1.5), 71);
        FaultPlan plan;
        plan.seed = 72;
        plan.message_loss_prob = 0.1;
        const FaultState faults(girg.graph, plan);
        Rng rng(73);
        std::vector<ServingQuery> queries;
        for (int i = 0; i < 150; ++i) {
            queries.push_back(
                {static_cast<Vertex>(rng.uniform_index(girg.num_vertices())),
                 static_cast<Vertex>(rng.uniform_index(girg.num_vertices())),
                 static_cast<SimTime>(i % 7)});
        }
        const auto one = run(girg, queries, &faults, 1, girg_factory(girg));
        expect_serving_identical(one, run(girg, queries, &faults, 1, girg_factory(girg)));
        expect_serving_identical(one, run(girg, queries, &faults, 2, girg_factory(girg)));
        expect_serving_identical(one, run(girg, queries, &faults, 8, girg_factory(girg)));
    }
    GirgParams params = serving_params(2.0);
    params.n = 1 << 13;
    params.edge_scale = calibrated_edge_scale(params);
    const Girg girg = generate_girg(params, 76);
    Rng rng(77);
    std::vector<ServingQuery> queries;
    for (int i = 0; i < 150; ++i) {
        queries.push_back({static_cast<Vertex>(rng.uniform_index(girg.num_vertices())),
                           static_cast<Vertex>(rng.uniform_index(8) * 1000),
                           static_cast<SimTime>(i % 7)});
    }
    const auto one = run(girg, queries, nullptr, 1, girg_factory(girg));
    expect_serving_identical(one, run(girg, queries, nullptr, 2, girg_factory(girg)));
    expect_serving_identical(one, run(girg, queries, nullptr, 8, girg_factory(girg)));
    expect_serving_identical(one, run(girg, queries, nullptr, 1, full_scan_factory(girg)));
    EXPECT_GT(one.delivered(), 10u);
}

TEST(ServingObjectives, FactoryRunsOnTheCallingThreadOneTargetAtATime) {
    // Whatever ServingOptions::threads says, objectives are built and
    // evaluated on the calling thread, once per distinct target, in
    // ascending target order, and never two at once.
    const Girg girg = generate_girg(serving_params(1.5), 76);
    const DistributedGreedy greedy;
    Rng rng(77);
    std::vector<ServingQuery> queries;
    std::vector<Vertex> targets;
    for (int i = 0; i < 60; ++i) {
        const auto t = static_cast<Vertex>(rng.uniform_index(12));
        queries.push_back(
            {static_cast<Vertex>(rng.uniform_index(girg.num_vertices())), t, 0});
        targets.push_back(t);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

    const std::thread::id caller = std::this_thread::get_id();
    std::vector<Vertex> calls;
    int live = 0;
    struct Tracked final : Objective {
        Tracked(const Girg& g, Vertex t, int& live) : base(g, t), live(&live) { ++live; }
        ~Tracked() override { --*live; }
        Tracked(const Tracked&) = delete;
        Tracked& operator=(const Tracked&) = delete;
        [[nodiscard]] double value(Vertex v) const override {
            EXPECT_EQ(std::this_thread::get_id(), caller_id);
            return base.value(v);
        }
        [[nodiscard]] Vertex target() const override { return base.target(); }
        GirgObjective base;
        int* live;
        std::thread::id caller_id = std::this_thread::get_id();
    };
    const TargetObjectiveFactory factory = [&](Vertex target) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(live, 0);
        calls.push_back(target);
        return std::make_unique<Tracked>(girg, target, live);
    };
    ServingOptions options;
    options.threads = 8;
    const auto result = simulate_many(girg.graph, factory, greedy, queries, options);
    EXPECT_EQ(calls, targets);
    EXPECT_EQ(live, 0);
    EXPECT_GT(result.delivered(), 0u);
}

// --------------------------------------------- queueing and drop semantics

TEST(ServingQueue, BoundedHubDropsDeterministically) {
    // Six staggered queries funnel through one hub with capacity 2 and a
    // service interval far longer than the arrival spacing: the hub serves
    // its first message immediately, buffers two, and refuses the rest.
    ScenarioBuilder b;
    std::vector<Vertex> sources;
    for (int i = 0; i < 6; ++i) {
        sources.push_back(b.vertex(0.02 * static_cast<double>(i)));
    }
    const Vertex hub = b.vertex(0.45);
    const Vertex target = b.vertex(0.5);
    for (const Vertex s : sources) b.edge(s, hub);
    b.edge(hub, target);
    const Girg girg = b.build();

    std::vector<ServingQuery> queries;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        queries.push_back({sources[i], target, static_cast<SimTime>(i)});
    }
    ServingOptions options;
    options.latency.base_ticks = 1;
    options.service_ticks = 1000;
    options.queue_capacity = 2;
    const DistributedGreedy greedy;
    const auto result =
        simulate_many(girg.graph, girg_factory(girg), greedy, queries, options);

    // Hub arrivals land at distinct ticks 1..6: the first is served at once,
    // the next two wait in the bounded queue, the last three are refused.
    EXPECT_EQ(result.delivered(), 3u);
    EXPECT_EQ(result.serving.queue_drops, 3u);
    EXPECT_EQ(result.serving.node_queue_drops[hub], 3u);
    EXPECT_EQ(result.serving.node_queue_high_water[hub], 2u);
    EXPECT_EQ(result.serving.node_wakes[hub], 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(result.queries[i].routing.status, RoutingStatus::kDelivered) << i;
    }
    for (std::size_t i = 3; i < 6; ++i) {
        EXPECT_EQ(result.queries[i].routing.status, RoutingStatus::kDeadEnd) << i;
        EXPECT_EQ(result.queries[i].telemetry.queue_drops, 1u) << i;
        // The message made it one hop (source -> hub) before being refused.
        EXPECT_EQ(result.queries[i].routing.steps(), 1u) << i;
    }
    // Unbounded queues deliver everything.
    options.queue_capacity = 0;
    const auto unbounded =
        simulate_many(girg.graph, girg_factory(girg), greedy, queries, options);
    EXPECT_EQ(unbounded.delivered(), queries.size());
    EXPECT_EQ(unbounded.serving.queue_drops, 0u);
}

// ----------------------------------------------- clock and node telemetry

TEST(ServingClock, DistanceProportionalLatencyDrivesTheClock) {
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex mid = b.vertex(0.125);
    const Vertex t = b.vertex(0.25);
    const Girg girg = b.chain({s, mid, t}).build();

    ServingOptions options;
    options.latency.kind = LatencyKind::kDistanceProportional;
    options.latency.base_ticks = 1;
    options.latency.ticks_per_unit_distance = 64.0;  // dyadic: 0.125 * 64 = 8
    options.positions = &girg.positions;
    options.service_ticks = 1;
    const ServingQuery query{s, t, 0};
    const DistributedGreedy greedy;
    const auto result =
        simulate_many(girg.graph, girg_factory(girg), greedy, {&query, 1}, options);

    ASSERT_EQ(result.queries[0].routing.status, RoutingStatus::kDelivered);
    // Each hop spans torus distance 0.125 -> delay 1 + 8 ticks; the target's
    // wake (the last event) fires at 2 * 9 = 18.
    EXPECT_EQ(result.serving.clock_end, 18u);
    // 3 arrivals + 3 wakes, one wake per node, never two events pending.
    EXPECT_EQ(result.serving.events_fired, 6u);
    EXPECT_EQ(result.serving.heap_high_water, 1u);
    EXPECT_EQ(result.serving.total_wakes, 3u);
    EXPECT_EQ(result.serving.busy_ticks_total, 3u);
    EXPECT_EQ(result.serving.node_wakes[s], 1u);
    EXPECT_EQ(result.serving.node_wakes[mid], 1u);
    EXPECT_EQ(result.serving.node_wakes[t], 1u);
}

TEST(ServingBoundary, EventSimulatorDeliversAtExactBudget) {
    // The fixed boundary convention holds in the event-driven path too: a
    // three-hop chain with max_steps = 3 delivers, max_steps = 2 does not.
    ScenarioBuilder b;
    const Vertex s = b.vertex(0.0);
    const Vertex a = b.vertex(0.1);
    const Vertex c = b.vertex(0.2);
    const Vertex t = b.vertex(0.3);
    const Girg girg = b.chain({s, a, c, t}).build();
    const DistributedGreedy greedy;
    const ServingQuery query{s, t, 0};

    ServingOptions options;
    options.routing.max_steps = 3;
    const auto exact =
        simulate_many(girg.graph, girg_factory(girg), greedy, {&query, 1}, options);
    EXPECT_EQ(exact.queries[0].routing.status, RoutingStatus::kDelivered);

    options.routing.max_steps = 2;
    const auto tight =
        simulate_many(girg.graph, girg_factory(girg), greedy, {&query, 1}, options);
    EXPECT_EQ(tight.queries[0].routing.status, RoutingStatus::kStepLimit);
    EXPECT_EQ(tight.queries[0].routing.steps(), 2u);
}

}  // namespace
}  // namespace smallworld
