// Scalar-vs-vector bit-identity suite for the phi kernels (the contract
// named by src/girg/phi_simd_avx2.cpp): every PhiEvalMode must produce
// bit-identical values, best_of choices, and RoutingResults. Vector-specific
// cases skip when the AVX2 path cannot run (non-x86 CPU or
// GIRG_FORCE_SCALAR=1), in which case the suite still pins the scalar
// kernels against Girg::objective.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/objective.h"
#include "core/phi_dfs.h"
#include "experiments/runner.h"
#include "geometry/torus.h"
#include "girg/generator.h"
#include "girg/girg.h"
#include "girg/phi_evaluator.h"
#include "girg/phi_memo.h"
#include "girg/phi_soa.h"
#include "random/rng.h"

namespace smallworld {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Random vertex attributes with no graph — the evaluator only reads
/// (weights, positions, params), so kernel tests need no edges.
Girg make_attributes(std::size_t n, int dim, Norm norm, std::uint64_t seed) {
    Girg girg;
    girg.params.n = static_cast<double>(n);
    girg.params.dim = dim;
    girg.params.norm = norm;
    girg.params.wmin = 1.0;
    Rng rng(seed);
    girg.weights.resize(n);
    for (double& w : girg.weights) w = 1.0 + 10.0 * rng.uniform();
    girg.positions.dim = dim;
    girg.positions.coords.resize(n * static_cast<std::size_t>(dim));
    for (double& c : girg.positions.coords) c = rng.uniform();
    return girg;
}

PhiOptions mode(PhiEvalMode m) {
    PhiOptions options;
    options.mode = m;
    return options;
}

/// The span of length `len` the span checks scan: a stride-7 walk over
/// [0, n) with `middle` (the target, in most checks) in its middle slot and,
/// from length 3, a duplicate entry.
std::vector<Vertex> ragged_span(std::size_t len, std::size_t n, Vertex middle) {
    std::vector<Vertex> span;
    for (std::size_t i = 0; i < len; ++i) {
        span.push_back(static_cast<Vertex>((i * 7 + len) % n));
    }
    span[len / 2] = middle;
    if (len >= 3) span[len - 1] = span[0];
    return span;
}

/// Asserts values() and best_of() agree bit-for-bit between two evaluators
/// over spans of every length in [1, limit] (ragged tails around the 4- and
/// 8-lane boundaries), including duplicate entries and the target itself.
void expect_span_identity(const PhiEvaluator& a, const PhiEvaluator& b, std::size_t n,
                          std::size_t limit) {
    std::vector<double> out_a;
    std::vector<double> out_b;
    for (std::size_t len = 1; len <= limit; ++len) {
        const std::vector<Vertex> span = ragged_span(len, n, a.target());
        out_a.assign(len, -1.0);
        out_b.assign(len, -1.0);
        a.values(span, out_a.data());
        b.values(span, out_b.data());
        for (std::size_t i = 0; i < len; ++i) {
            ASSERT_EQ(bits(out_a[i]), bits(out_b[i]))
                << "len=" << len << " lane=" << i << " v=" << span[i];
        }
        const BestNeighbor best_a = a.best_of(span);
        const BestNeighbor best_b = b.best_of(span);
        ASSERT_EQ(best_a.vertex, best_b.vertex) << "len=" << len;
        ASSERT_EQ(bits(best_a.value), bits(best_b.value)) << "len=" << len;
    }
}

// ------------------------------------------------------------ value identity

TEST(PhiSimdTest, ScalarMatchesGirgObjectiveReference) {
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        for (int dim = 1; dim <= kMaxDim; ++dim) {
            const Girg girg = make_attributes(257, dim, norm, 17 + dim);
            const Vertex target = 31;
            const PhiEvaluator scalar(girg, target, mode(PhiEvalMode::kScalar));
            for (Vertex v = 0; v < girg.num_vertices(); ++v) {
                const double reference = girg.objective(v, girg.position(target));
                ASSERT_EQ(bits(scalar.value(v)), bits(reference))
                    << "dim=" << dim << " v=" << v;
            }
        }
    }
}

TEST(PhiSimdTest, VectorMatchesScalarBitwise) {
    if (!phi_simd_available()) GTEST_SKIP() << "AVX2 path cannot run here";
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        for (int dim = 1; dim <= kMaxDim; ++dim) {
            const std::size_t n = 257;
            const Girg girg = make_attributes(n, dim, norm, 101 + dim);
            for (const Vertex target : {Vertex{0}, Vertex{100}, Vertex{256}}) {
                const PhiEvaluator scalar(girg, target, mode(PhiEvalMode::kScalar));
                const PhiEvaluator simd(girg, target, mode(PhiEvalMode::kSimd));
                expect_span_identity(scalar, simd, n, 17);
                for (Vertex v = 0; v < girg.num_vertices(); ++v) {
                    ASSERT_EQ(bits(scalar.value(v)), bits(simd.value(v)));
                }
            }
        }
    }
}

/// Asserts that fresh evaluators' batched values() and best_of() over `span`
/// equal a plain loop over Girg::objective bit for bit: the value of every
/// lane, and the first maximum in list order with its value. Separate
/// evaluators, so values() runs on a cold memo (the bulk path) and best_of()
/// probes entry by entry.
void expect_span_matches_objective(const Girg& girg, Vertex target, PhiEvalMode m,
                                   const std::vector<Vertex>& span) {
    std::vector<double> expected;
    std::size_t best = 0;
    for (std::size_t i = 0; i < span.size(); ++i) {
        expected.push_back(girg.objective(span[i], girg.position(target)));
        if (expected[i] > expected[best]) best = i;
    }
    const PhiEvaluator for_values(girg, target, mode(m));
    std::vector<double> out(span.size(), -1.0);
    for_values.values(span, out.data());
    for (std::size_t i = 0; i < span.size(); ++i) {
        ASSERT_EQ(bits(out[i]), bits(expected[i]))
            << "len=" << span.size() << " lane=" << i << " v=" << span[i];
    }
    const PhiEvaluator for_best(girg, target, mode(m));
    const BestNeighbor chosen = for_best.best_of(span);
    ASSERT_EQ(chosen.vertex, span[best]) << "len=" << span.size();
    ASSERT_EQ(bits(chosen.value), bits(expected[best])) << "len=" << span.size();
}

TEST(PhiSimdTest, LegacyMatchesScalarBitwise) {
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        for (int dim = 1; dim <= kMaxDim; ++dim) {
            const std::size_t n = 201;
            const Girg girg = make_attributes(n, dim, norm, 7 + dim);
            const Vertex target = 63;
            // Spans of every length up to 17 (ragged tails around the 4- and
            // 8-lane boundaries), with the target in them and without.
            for (std::size_t len = 1; len <= 17; ++len) {
                for (const Vertex middle : {target, Vertex{target + 1}}) {
                    const std::vector<Vertex> span = ragged_span(len, n, middle);
                    expect_span_matches_objective(girg, target, PhiEvalMode::kScalar, span);
                    if (phi_simd_available()) {
                        expect_span_matches_objective(girg, target, PhiEvalMode::kSimd, span);
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------- edge cases

TEST(PhiSimdTest, ZeroDistanceCollisionIsInfinity) {
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        Girg girg = make_attributes(64, 2, norm, 5);
        const Vertex target = 10;
        const Vertex twin = 20;  // exact positional collision with the target
        girg.positions.point(twin)[0] = girg.positions.point(target)[0];
        girg.positions.point(twin)[1] = girg.positions.point(target)[1];
        const PhiEvaluator scalar(girg, target, mode(PhiEvalMode::kScalar));
        EXPECT_TRUE(std::isinf(scalar.value(twin)));
        EXPECT_TRUE(std::isinf(scalar.value(target)));
        if (phi_simd_available()) {
            const PhiEvaluator simd(girg, target, mode(PhiEvalMode::kSimd));
            expect_span_identity(scalar, simd, 64, 17);
            EXPECT_TRUE(std::isinf(simd.value(twin)));
        }
    }
}

TEST(PhiSimdTest, TieLaddersAcrossLaneBoundaries) {
    // All candidates share one position, so phi is proportional to weight
    // and ties are exact. The first maximum in list order must win in every
    // mode, wherever it sits relative to the 4- and 8-lane boundaries.
    for (std::size_t winner : {std::size_t{0}, std::size_t{3}, std::size_t{6},
                               std::size_t{7}, std::size_t{8}, std::size_t{15},
                               std::size_t{16}, std::size_t{30}}) {
        Girg girg = make_attributes(33, 2, Norm::kMax, 23);
        const Vertex target = 32;
        for (Vertex v = 0; v < 32; ++v) {
            girg.positions.point(v)[0] = 0.25;
            girg.positions.point(v)[1] = 0.75;
            girg.weights[v] = 1.0;
        }
        // The maximum weight appears at `winner` and at every later slot.
        for (std::size_t v = winner; v < 32; ++v) girg.weights[v] = 2.0;
        std::vector<Vertex> span;
        for (Vertex v = 0; v < 32; ++v) span.push_back(v);

        const PhiEvaluator scalar(girg, target, mode(PhiEvalMode::kScalar));
        EXPECT_EQ(scalar.best_of(span).vertex, static_cast<Vertex>(winner));
        if (phi_simd_available()) {
            const PhiEvaluator simd(girg, target, mode(PhiEvalMode::kSimd));
            const BestNeighbor best = simd.best_of(span);
            EXPECT_EQ(best.vertex, static_cast<Vertex>(winner));
            EXPECT_EQ(bits(best.value), bits(scalar.best_of(span).value));
        }
    }
}

TEST(PhiSimdTest, EmptySpanYieldsNoVertex) {
    const Girg girg = make_attributes(16, 1, Norm::kMax, 3);
    const PhiEvaluator scalar(girg, 0, mode(PhiEvalMode::kScalar));
    const BestNeighbor best = scalar.best_of({});
    EXPECT_EQ(best.vertex, kNoVertex);
    EXPECT_EQ(best.value, 0.0);
}

// ------------------------------------------------------- memo and cold path

TEST(PhiSimdTest, ColdBulkPathMatchesWarmProbes) {
    // values() on a cold memo takes the bulk-compute fast path; the same
    // call after warming single probes takes the probe path. Both must fill
    // the memo with identical bits — including duplicate span entries.
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        const std::size_t n = 97;
        const Girg girg = make_attributes(n, 3, norm, 29);
        const Vertex target = 50;
        std::vector<Vertex> span;
        for (Vertex v = 0; v < n; ++v) span.push_back(v);
        span.push_back(13);  // duplicate recomputed by the cold path

        const PhiEvaluator cold(girg, target, mode(PhiEvalMode::kScalar));
        std::vector<double> out_cold(span.size());
        cold.values(span, out_cold.data());

        const PhiEvaluator warm(girg, target, mode(PhiEvalMode::kScalar));
        for (Vertex v = 0; v < n; v += 3) (void)warm.value(v);  // partial warm-up
        std::vector<double> out_warm(span.size());
        warm.values(span, out_warm.data());

        for (std::size_t i = 0; i < span.size(); ++i) {
            ASSERT_EQ(bits(out_cold[i]), bits(out_warm[i])) << "i=" << i;
        }
        // Memo hits afterwards return the same bits in both evaluators.
        for (Vertex v = 0; v < n; ++v) {
            ASSERT_EQ(bits(cold.value(v)), bits(warm.value(v)));
        }
    }
}

TEST(PhiSimdTest, PooledTablesAreInvisibleInResults) {
    const std::size_t n = 131;
    const Girg girg = make_attributes(n, 2, Norm::kMax, 41);
    const auto pool = std::make_shared<PhiMemoPool>();
    std::vector<Vertex> span;
    for (Vertex v = 0; v < n; ++v) span.push_back(v);

    for (const Vertex target : {Vertex{5}, Vertex{77}, Vertex{130}, Vertex{5}}) {
        PhiOptions pooled;
        pooled.mode = PhiEvalMode::kScalar;
        pooled.pool = pool;  // recycles the previous iteration's table
        const PhiEvaluator recycled(girg, target, pooled);
        const PhiEvaluator fresh(girg, target, mode(PhiEvalMode::kScalar));
        std::vector<double> out_recycled(n);
        std::vector<double> out_fresh(n);
        recycled.values(span, out_recycled.data());
        fresh.values(span, out_fresh.data());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(bits(out_recycled[i]), bits(out_fresh[i])) << "i=" << i;
        }
    }
}

// --------------------------------------------------------- routing identity

GirgParams routing_params() {
    GirgParams params;
    params.n = 700;
    params.dim = 2;
    params.alpha = kAlphaInfinity;
    params.beta = 2.5;
    params.edge_scale = calibrated_edge_scale(params) * 8.0;
    return params;
}

TEST(PhiSimdTest, RoutingResultsIdenticalAcrossModes) {
    const Girg girg = generate_girg(routing_params(), 4242);
    const GreedyRouter greedy;
    const PhiDfsRouter dfs;

    for (const Router* router : {static_cast<const Router*>(&greedy),
                                 static_cast<const Router*>(&dfs)}) {
        for (Vertex pair = 0; pair < 12; ++pair) {
            const Vertex source = pair * 17 % girg.num_vertices();
            const Vertex target = (pair * 53 + 191) % girg.num_vertices();
            if (source == target) continue;
            const GirgObjective scalar(girg, target, mode(PhiEvalMode::kScalar));
            const GirgObjective automatic(girg, target);  // SIMD when available
            const RoutingResult a = router->route(girg.graph, scalar, source);
            const RoutingResult b = router->route(girg.graph, automatic, source);
            ASSERT_EQ(a.status, b.status) << router->name() << " pair=" << pair;
            ASSERT_EQ(a.path, b.path) << router->name() << " pair=" << pair;
            ASSERT_EQ(a.retries, b.retries);
        }
    }
}

TEST(PhiSimdTest, TrialStatsIdenticalAcrossThreadCounts) {
    const Girg girg = generate_girg(routing_params(), 777);
    const GreedyRouter router;
    const ObjectiveFactory factory = girg_objective_factory();
    TrialConfig config;
    config.targets = 4;
    config.sources_per_target = 24;
    config.collect_step_samples = true;

    std::vector<TrialStats> runs;
    for (const unsigned threads : {1U, 2U, 8U, 1U}) {  // trailing 1: repeat-run identity
        config.threads = threads;
        runs.push_back(run_girg_trials(girg, router, factory, config, 99));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[0].attempts, runs[i].attempts);
        EXPECT_EQ(runs[0].delivered, runs[i].delivered);
        EXPECT_EQ(runs[0].retries, runs[i].retries);
        EXPECT_EQ(runs[0].step_samples, runs[i].step_samples);
        EXPECT_EQ(bits(runs[0].hops.mean()), bits(runs[i].hops.mean()));
    }
}

}  // namespace
}  // namespace smallworld
