#include <gtest/gtest.h>
#include <algorithm>

#include <cmath>
#include <set>
#include <utility>

#include "geometry/torus.h"
#include "girg/diagnostics.h"
#include "girg/edge_probability.h"
#include "girg/fast_sampler.h"
#include "girg/generator.h"
#include "girg/params.h"
#include "girg/relabel.h"
#include "graph/components.h"
#include "graph/graph_stats.h"
#include "random/stats.h"

namespace smallworld {
namespace {

GirgParams small_params() {
    GirgParams p;
    p.n = 600;
    p.dim = 2;
    p.alpha = 2.0;
    p.beta = 2.5;
    p.wmin = 1.0;
    p.edge_scale = calibrated_edge_scale(p);
    return p;
}

// ---------------------------------------------------------------- params

TEST(GirgParams, ValidationRejectsOutOfRange) {
    GirgParams p = small_params();
    p.beta = 3.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = small_params();
    p.beta = 2.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = small_params();
    p.alpha = 1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = small_params();
    p.dim = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = small_params();
    p.dim = kMaxDim + 1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = small_params();
    p.wmin = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = small_params();
    EXPECT_NO_THROW(p.validate());
    p.alpha = kAlphaInfinity;
    EXPECT_NO_THROW(p.validate());
}

TEST(GirgParams, PredictedHopsFormula) {
    GirgParams p = small_params();
    p.beta = 2.5;
    const double expected = 2.0 / std::fabs(std::log(0.5)) * std::log(std::log(1e6));
    EXPECT_NEAR(p.predicted_hops(1e6), expected, 1e-12);
}

TEST(GirgParams, GammaExponent) {
    GirgParams p = small_params();
    p.beta = 2.5;
    EXPECT_NEAR(p.gamma(0.0), 2.0, 1e-12);
    EXPECT_NEAR(p.gamma(0.1), 1.8, 1e-12);
}

// ---------------------------------------------------------------- kernel

TEST(EdgeProbability, ThresholdIsSharp) {
    GirgParams p = small_params();
    p.alpha = kAlphaInfinity;
    const double volume = p.edge_scale * 4.0 / (p.wmin * p.n);  // wu*wv = 4
    const double radius = std::pow(volume, 1.0 / p.dim);
    EXPECT_DOUBLE_EQ(girg_edge_probability(p, 4.0, radius * 0.999), 1.0);
    EXPECT_DOUBLE_EQ(girg_edge_probability(p, 4.0, radius * 1.001), 0.0);
}

TEST(EdgeProbability, Ep3HoldsForFiniteAlpha) {
    const GirgParams p = small_params();
    const double volume = p.edge_scale * 9.0 / (p.wmin * p.n);
    const double radius = std::pow(volume, 1.0 / p.dim);
    EXPECT_DOUBLE_EQ(girg_edge_probability(p, 9.0, radius * 0.5), 1.0);
    EXPECT_LT(girg_edge_probability(p, 9.0, radius * 2.0), 1.0);
}

TEST(EdgeProbability, PolynomialDecayExponent) {
    const GirgParams p = small_params();  // alpha = 2
    const double p1 = girg_edge_probability(p, 1.0, 0.2);
    const double p2 = girg_edge_probability(p, 1.0, 0.4);
    // Doubling the distance in d=2 with alpha=2 divides p by 2^(alpha*d)=16.
    EXPECT_NEAR(p1 / p2, 16.0, 1e-9);
}

TEST(EdgeProbability, IncreasesWithWeightProduct) {
    const GirgParams p = small_params();
    EXPECT_LT(girg_edge_probability(p, 1.0, 0.3), girg_edge_probability(p, 10.0, 0.3));
}

TEST(EdgeProbability, MarginalOverPositionsMatchesChungLu) {
    // Lemma 7.1: E_x[puv] = Theta(min{wuwv/(wmin n), 1}); with the
    // calibrated constant the Theta is ~1 exactly.
    const GirgParams p = small_params();
    Rng rng(101);
    const double wu = 2.0;
    const double wv = 3.0;
    RunningStats stats;
    for (int i = 0; i < 400000; ++i) {
        double a[2] = {rng.uniform(), rng.uniform()};
        double b[2] = {rng.uniform(), rng.uniform()};
        stats.add(girg_edge_probability(p, wu, wv, a, b));
    }
    // With the calibrated edge_scale, E_x[puv] = (beta-2)/(beta-1) * q so
    // that multiplying by E[W]/wmin = (beta-1)/(beta-2) gives E[deg v] = wv.
    const double expected =
        wu * wv / (p.wmin * p.n) * (p.beta - 2.0) / (p.beta - 1.0);
    EXPECT_NEAR(stats.mean() / expected, 1.0, 0.05);
}

// ---------------------------------------------------------------- generator

TEST(Generator, VertexCountPoisson) {
    const GirgParams p = small_params();
    RunningStats counts;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const Girg g = generate_girg(p, seed);
        counts.add(static_cast<double>(g.num_vertices()));
        EXPECT_EQ(g.weights.size(), g.positions.count());
        EXPECT_EQ(g.graph.num_vertices(), g.num_vertices());
    }
    EXPECT_NEAR(counts.mean(), p.n, 4.0 * std::sqrt(p.n));
}

TEST(Generator, FixedVertexCount) {
    const GirgParams p = small_params();
    GenerateOptions options;
    options.fixed_vertex_count = true;
    const Girg g = generate_girg(p, 7, options);
    EXPECT_EQ(g.num_vertices(), static_cast<Vertex>(p.n));
}

TEST(Generator, DeterministicForSeed) {
    const GirgParams p = small_params();
    const Girg a = generate_girg(p, 123);
    const Girg b = generate_girg(p, 123);
    ASSERT_EQ(a.num_vertices(), b.num_vertices());
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.positions.coords, b.positions.coords);
    EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
}

/// generate_girg's instance assembled by hand from its parts: the attribute
/// prefix, the unrelabeled edge stream copied out as a vector, endpoints and
/// attributes remapped through the Morton permutation afterwards, and the
/// CSR built from the contiguous edge list.
Girg assemble_by_hand(const GirgParams& params, std::uint64_t seed,
                      const GenerateOptions& options) {
    Girg girg;
    Rng rng(seed);
    const PageVector<Vertex> new_ids = detail::sample_attributes(params, options, rng, girg);
    std::vector<Edge> edges = detail::sample_edges_stream(params, girg.weights, girg.positions,
                                                          rng, options.sampler, nullptr)
                                  .to_vector();
    if (!new_ids.empty()) {
        apply_relabeling(new_ids, girg.weights, girg.positions);
        for (auto& [u, v] : edges) {
            u = new_ids[u];
            v = new_ids[v];
        }
    }
    girg.graph = Graph(girg.num_vertices(), edges);
    return girg;
}

testing::AssertionResult same_csr(const Graph& a, const Graph& b) {
    if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
        return testing::AssertionFailure() << a.num_vertices() << "/" << a.num_edges()
                                           << " vs " << b.num_vertices() << "/" << b.num_edges();
    }
    for (Vertex v = 0; v < a.num_vertices(); ++v) {
        const auto x = a.neighbors(v);
        const auto y = b.neighbors(v);
        if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
            return testing::AssertionFailure() << "row " << v << " differs";
        }
    }
    return testing::AssertionSuccess();
}

// generate_girg streams edges through chunked sinks with the relabeling
// fused into emission and builds the CSR from the chunks; the same instance
// assembled by hand (contiguous edge list, post-hoc endpoint remap, span
// CSR build) must agree byte for byte: same weights, same coordinates, same
// CSR rows — at every thread count, with and without Morton relabeling, and
// with planted vertices.
TEST(Generator, StreamingMatchesLegacyPipeline) {
    GirgParams p = small_params();
    for (const bool relabel : {true, false}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
            p.threads = threads;
            GenerateOptions options;
            options.morton_relabel = relabel;
            PlantedVertex planted;
            planted.weight = 4.0;
            planted.position[0] = 0.5;
            options.planted.push_back(planted);

            const Girg by_hand = assemble_by_hand(p, 1234, options);
            const Girg streaming = generate_girg(p, 1234, options);
            EXPECT_EQ(by_hand.weights, streaming.weights);
            EXPECT_EQ(by_hand.positions.coords, streaming.positions.coords);
            EXPECT_TRUE(same_csr(by_hand.graph, streaming.graph))
                << "relabel=" << relabel << " threads=" << threads;
        }
    }
}

TEST(Generator, StreamingMatchesLegacyWithNaiveSampler) {
    GirgParams p = small_params();
    GenerateOptions options;
    options.sampler = SamplerKind::kNaive;
    const Girg by_hand = assemble_by_hand(p, 77, options);
    const Girg streaming = generate_girg(p, 77, options);
    EXPECT_EQ(by_hand.weights, streaming.weights);
    EXPECT_EQ(by_hand.positions.coords, streaming.positions.coords);
    EXPECT_TRUE(same_csr(by_hand.graph, streaming.graph));
}

// resample_edges builds its CSR from the chunk stream; it must equal the CSR
// built from the same seed's edges copied out as a contiguous list.
TEST(Generator, ResampleEdgesMatchesBufferedSampler) {
    const GirgParams p = small_params();
    const Girg base = generate_girg(p, 55);
    const Graph resampled = resample_edges(base, 1001, SamplerKind::kFast);
    Rng rng(1001);
    const std::vector<Edge> buffered =
        sample_edges_fast_stream(base.params, base.weights, base.positions, rng).to_vector();
    const Graph reference(base.num_vertices(), buffered);
    EXPECT_TRUE(same_csr(reference, resampled));
}

TEST(Generator, WeightsRespectMinimum) {
    GirgParams p = small_params();
    p.wmin = 2.5;
    const Girg g = generate_girg(p, 3);
    for (const double w : g.weights) EXPECT_GE(w, 2.5);
}

TEST(Generator, PlantedVerticesAppended) {
    const GirgParams p = small_params();
    GenerateOptions options;
    PlantedVertex s;
    s.weight = 5.0;
    s.position[0] = 0.25;
    s.position[1] = 0.75;
    options.planted.push_back(s);
    const Girg g = generate_girg(p, 11, options);
    const Vertex planted = g.num_vertices() - 1;
    EXPECT_DOUBLE_EQ(g.weight(planted), 5.0);
    EXPECT_DOUBLE_EQ(g.position(planted)[0], 0.25);
    EXPECT_DOUBLE_EQ(g.position(planted)[1], 0.75);
}

TEST(Generator, PlantedBelowWminRejected) {
    const GirgParams p = small_params();
    GenerateOptions options;
    options.planted.push_back(PlantedVertex{.weight = 0.5, .position = {0, 0, 0, 0}});
    EXPECT_THROW(generate_girg(p, 1, options), std::invalid_argument);
}

// ------------------------------------------------------ Morton relabeling

TEST(MortonRelabel, PermutationValidAndDeterministic) {
    GenerateOptions plain;
    plain.morton_relabel = false;
    const Girg g = generate_girg(small_params(), 91, plain);
    const auto ids_a = morton_order(g.positions, g.num_vertices());
    const auto ids_b = morton_order(g.positions, g.num_vertices());
    EXPECT_EQ(ids_a, ids_b);
    std::vector<Vertex> sorted(ids_a.begin(), ids_a.end());
    std::sort(sorted.begin(), sorted.end());
    for (Vertex v = 0; v < g.num_vertices(); ++v) ASSERT_EQ(sorted[v], v);
}

TEST(MortonRelabel, GenerationMatchesPostHocRelabel) {
    // The generator applies the permutation before the CSR is first built;
    // relabeling an unrelabeled instance afterwards must produce the same
    // bytes, which is what makes generation-time relabeling a pure
    // permutation (and keeps every downstream seed-determinism guarantee).
    const GirgParams p = small_params();
    const Girg relabeled = generate_girg(p, 99);
    GenerateOptions plain_options;
    plain_options.morton_relabel = false;
    Girg plain = generate_girg(p, 99, plain_options);
    morton_relabel(plain);

    ASSERT_EQ(plain.num_vertices(), relabeled.num_vertices());
    EXPECT_EQ(plain.weights, relabeled.weights);
    EXPECT_EQ(plain.positions.coords, relabeled.positions.coords);
    ASSERT_EQ(plain.graph.num_edges(), relabeled.graph.num_edges());
    for (Vertex v = 0; v < plain.num_vertices(); ++v) {
        const auto a = plain.graph.neighbors(v);
        const auto b = relabeled.graph.neighbors(v);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << v;
    }
}

TEST(MortonRelabel, RelabelingIsAnIsomorphism) {
    const GirgParams p = small_params();
    GenerateOptions plain_options;
    plain_options.morton_relabel = false;
    const Girg plain = generate_girg(p, 17, plain_options);
    Girg relabeled = plain;
    morton_relabel(relabeled);

    const auto new_ids = morton_order(plain.positions, plain.num_vertices());
    for (Vertex v = 0; v < plain.num_vertices(); ++v) {
        const Vertex mapped = new_ids[v];
        EXPECT_DOUBLE_EQ(relabeled.weight(mapped), plain.weight(v));
        for (int axis = 0; axis < p.dim; ++axis) {
            EXPECT_DOUBLE_EQ(relabeled.position(mapped)[axis], plain.position(v)[axis]);
        }
        std::vector<Vertex> mapped_neighbors;
        for (const Vertex u : plain.graph.neighbors(v)) {
            mapped_neighbors.push_back(new_ids[u]);
        }
        std::sort(mapped_neighbors.begin(), mapped_neighbors.end());
        const auto actual = relabeled.graph.neighbors(mapped);
        ASSERT_TRUE(std::equal(mapped_neighbors.begin(), mapped_neighbors.end(),
                               actual.begin(), actual.end()))
            << v;
    }
}

TEST(MortonRelabel, PlantedSuffixKeepsIds) {
    GenerateOptions plain;
    plain.morton_relabel = false;
    const Girg g = generate_girg(small_params(), 23, plain);
    const std::size_t n = g.num_vertices();
    const auto ids = morton_order(g.positions, n - 3);
    for (std::size_t v = n - 3; v < n; ++v) {
        EXPECT_EQ(ids[v], static_cast<Vertex>(v));
    }
    for (std::size_t v = 0; v + 3 < n; ++v) {
        EXPECT_LT(ids[v], static_cast<Vertex>(n - 3));
    }
}

TEST(Girg, ObjectiveFormula) {
    const GirgParams p = small_params();
    const Girg g = generate_girg(p, 5);
    const Vertex v = 0;
    double target[2] = {g.position(v)[0] + 0.1, g.position(v)[1]};
    target[0] = torus_wrap(target[0]);
    const double expected = g.weight(v) / (p.wmin * p.n * std::pow(0.1, 2));
    EXPECT_NEAR(g.objective(v, target), expected, expected * 1e-9);
}


TEST(Generator, SuppliedWeightsUsedVerbatim) {
    GirgParams p = small_params();
    p.n = 200;
    GenerateOptions options;
    for (int i = 0; i < 200; ++i) options.weights.push_back(1.0 + i * 0.1);
    const Girg g = generate_girg(p, 21, options);
    ASSERT_EQ(g.num_vertices(), 200u);
    EXPECT_EQ(g.weights, options.weights);
    // Degrees correlate with the supplied weights (heaviest decile vs
    // lightest decile).
    double heavy = 0.0;
    double light = 0.0;
    for (Vertex v = 0; v < 20; ++v) light += static_cast<double>(g.graph.degree(v));
    for (Vertex v = 180; v < 200; ++v) heavy += static_cast<double>(g.graph.degree(v));
    EXPECT_GT(heavy, light);
}

TEST(Generator, SuppliedWeightsBelowWminRejected) {
    GirgParams p = small_params();
    p.wmin = 2.0;
    GenerateOptions options;
    options.weights = {2.0, 1.0};
    EXPECT_THROW(generate_girg(p, 1, options), std::invalid_argument);
}

// ------------------------------------------------- naive vs fast equality

/// The two samplers must produce the *same distribution*. We fix weights
/// and positions, resample edges many times with both samplers, and compare
/// mean edge counts and per-pair inclusion on a small instance.
TEST(SamplerEquivalence, MeanEdgeCountsAgree) {
    for (const double alpha : {1.5, 3.0, kAlphaInfinity}) {
        GirgParams p = small_params();
        p.n = 300;
        p.alpha = alpha;
        p.edge_scale = calibrated_edge_scale(p);
        const Girg base = generate_girg(p, 42);

        RunningStats naive_edges;
        RunningStats fast_edges;
        for (std::uint64_t seed = 0; seed < 60; ++seed) {
            naive_edges.add(static_cast<double>(
                resample_edges(base, seed, SamplerKind::kNaive).num_edges()));
            fast_edges.add(static_cast<double>(
                resample_edges(base, seed + 1000, SamplerKind::kFast).num_edges()));
        }
        // Means agree within 4 joint standard errors.
        const double se = std::sqrt(naive_edges.variance() / naive_edges.count() +
                                    fast_edges.variance() / fast_edges.count());
        EXPECT_NEAR(naive_edges.mean(), fast_edges.mean(), 4.0 * se + 1.0)
            << "alpha=" << alpha;
    }
}

TEST(SamplerEquivalence, PerPairInclusionProbabilitiesAgree) {
    GirgParams p = small_params();
    p.n = 40;  // tiny: we estimate each pair's probability directly
    p.edge_scale = calibrated_edge_scale(p);
    const Girg base = generate_girg(p, 7);
    const Vertex n = base.num_vertices();
    ASSERT_GE(n, 10u);

    const int kRounds = 1500;
    std::vector<int> naive_counts(static_cast<std::size_t>(n) * n, 0);
    std::vector<int> fast_counts(static_cast<std::size_t>(n) * n, 0);
    for (int round = 0; round < kRounds; ++round) {
        const Graph gn =
            resample_edges(base, static_cast<std::uint64_t>(round), SamplerKind::kNaive);
        const Graph gf = resample_edges(base, static_cast<std::uint64_t>(round) + 99991,
                                        SamplerKind::kFast);
        for (Vertex u = 0; u < n; ++u) {
            for (const Vertex v : gn.neighbors(u)) {
                ++naive_counts[static_cast<std::size_t>(u) * n + v];
            }
            for (const Vertex v : gf.neighbors(u)) {
                ++fast_counts[static_cast<std::size_t>(u) * n + v];
            }
        }
    }
    // Compare against the analytic probability for every pair.
    int checked = 0;
    for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = u + 1; v < n; ++v) {
            const double prob = girg_edge_probability(
                base.params, base.weight(u), base.weight(v), base.position(u),
                base.position(v));
            const double se = std::sqrt(std::max(prob * (1 - prob), 1e-9) / kRounds);
            const double pn =
                naive_counts[static_cast<std::size_t>(u) * n + v] / double(kRounds);
            const double pf =
                fast_counts[static_cast<std::size_t>(u) * n + v] / double(kRounds);
            EXPECT_NEAR(pn, prob, 5.0 * se + 0.01) << "naive pair " << u << "," << v;
            EXPECT_NEAR(pf, prob, 5.0 * se + 0.01) << "fast pair " << u << "," << v;
            ++checked;
        }
    }
    EXPECT_GT(checked, 100);
}

TEST(SamplerEquivalence, ThresholdEdgeSetsIdentical) {
    // For alpha = infinity the edge set is a deterministic function of the
    // vertex attributes, so the samplers must agree edge-for-edge.
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        GirgParams p = small_params();
        p.n = 500;
        p.alpha = kAlphaInfinity;
        p.edge_scale = calibrated_edge_scale(p);
        const Girg base = generate_girg(p, seed);
        const Graph gn = resample_edges(base, 10, SamplerKind::kNaive);
        const Graph gf = resample_edges(base, 20, SamplerKind::kFast);
        ASSERT_EQ(gn.num_edges(), gf.num_edges()) << "seed=" << seed;
        for (Vertex u = 0; u < base.num_vertices(); ++u) {
            const auto nn = gn.neighbors(u);
            const auto nf = gf.neighbors(u);
            ASSERT_TRUE(std::equal(nn.begin(), nn.end(), nf.begin(), nf.end()))
                << "vertex " << u << " seed " << seed;
        }
    }
}

TEST(FastSampler, NoDuplicateOrSelfEdges) {
    GirgParams p = small_params();
    p.n = 2000;
    const Girg base = generate_girg(p, 13);
    Rng rng(14);
    const auto edges = sample_edges_fast_stream(p, base.weights, base.positions, rng).to_vector();
    std::set<std::pair<Vertex, Vertex>> seen;
    for (const auto& [u, v] : edges) {
        EXPECT_NE(u, v);
        const auto key = std::minmax(u, v);
        EXPECT_TRUE(seen.insert({key.first, key.second}).second)
            << "duplicate edge " << u << "," << v;
    }
}

TEST(FastSampler, HandlesEmptyAndSingleton) {
    GirgParams p = small_params();
    Rng rng(1);
    const std::vector<double> no_weights;
    PointCloud no_points;
    no_points.dim = p.dim;
    EXPECT_TRUE(sample_edges_fast_stream(p, no_weights, no_points, rng).empty());

    const std::vector<double> one_weight{1.5};
    PointCloud one_point;
    one_point.dim = p.dim;
    one_point.coords = {0.5, 0.5};
    EXPECT_TRUE(sample_edges_fast_stream(p, one_weight, one_point, rng).empty());
}

TEST(FastSampler, AllDimensionsWork) {
    for (int dim = 1; dim <= 4; ++dim) {
        GirgParams p = small_params();
        p.dim = dim;
        p.n = 400;
        p.edge_scale = calibrated_edge_scale(p);
        const Girg g = generate_girg(p, static_cast<std::uint64_t>(dim));
        // Calibration makes mean degree ~ E[W] = wmin(beta-1)/(beta-2) = 3.
        EXPECT_GT(g.graph.average_degree(), 1.0) << "dim=" << dim;
        EXPECT_LT(g.graph.average_degree(), 9.0) << "dim=" << dim;
    }
}

// ---------------------------------------------------------------- model laws

TEST(ModelLaws, DegreeProportionalToWeight) {
    // Lemma 7.2: E[deg v] = Theta(wv); calibrated constant ~ 1.
    GirgParams p = small_params();
    p.n = 20000;
    p.edge_scale = calibrated_edge_scale(p);
    const Girg g = generate_girg(p, 31);
    // Bucket vertices by weight and compare mean degree to mean weight.
    RunningStats low;   // weights in [1, 2)
    RunningStats high;  // weights in [4, 8)
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const double w = g.weight(v);
        const auto d = static_cast<double>(g.graph.degree(v));
        if (w < 2.0) {
            low.add(d / w);
        } else if (w >= 4.0 && w < 8.0) {
            high.add(d / w);
        }
    }
    EXPECT_NEAR(low.mean(), 1.0, 0.25);
    EXPECT_NEAR(high.mean(), 1.0, 0.25);
}

TEST(ModelLaws, GiantComponentExists) {
    GirgParams p = small_params();
    p.n = 8000;
    p.wmin = 2.0;  // higher wmin -> denser graph -> large giant
    p.edge_scale = calibrated_edge_scale(p);
    const Girg g = generate_girg(p, 37);
    const auto comps = connected_components(g.graph);
    EXPECT_GT(static_cast<double>(comps.giant_size()),
              0.5 * static_cast<double>(g.num_vertices()));
}

TEST(ModelLaws, ObjectiveCountMatchesLemma75) {
    // Lemma 7.5: |V_{>= phi0}| = Theta(1/phi0).
    GirgParams p = small_params();
    p.n = 30000;
    const Girg g = generate_girg(p, 41);
    double target[2] = {0.37, 0.61};
    // The exact constant behind the Theta: a vertex of weight w has
    // objective >= phi0 within a ball of volume 2^d w/(phi0 wmin n), so
    // E|V_{>=phi0}| = 2^d (beta-1)/(beta-2) / phi0.
    const double constant = std::pow(2.0, p.dim) * (p.beta - 1.0) / (p.beta - 2.0);
    for (const double phi0 : {0.01, 0.002}) {  // regime constant/phi0 << n
        const double count = static_cast<double>(
            count_objective_at_least(g, target, phi0));
        const double expected = constant / phi0;
        EXPECT_GT(count, 0.5 * expected) << "phi0=" << phi0;
        EXPECT_LT(count, 2.0 * expected) << "phi0=" << phi0;
    }
    // Below phi(v) >= wmin/(wmin n (1/2)^d) the set saturates to everything.
    EXPECT_EQ(count_objective_at_least(g, target, 1e-7),
              static_cast<std::size_t>(g.num_vertices()));
}

TEST(ModelLaws, DegreeExponentNearBeta) {
    GirgParams p = small_params();
    p.n = 30000;
    p.beta = 2.5;
    p.wmin = 2.0;
    p.edge_scale = calibrated_edge_scale(p);
    const Girg g = generate_girg(p, 43);
    const auto diag = diagnose(g, 1);
    EXPECT_NEAR(diag.degree_exponent, 2.5, 0.35);
    EXPECT_GT(diag.giant_fraction, 0.5);
    EXPECT_GT(diag.clustering, 0.1);  // geometric models cluster strongly
}

TEST(ModelLaws, ThresholdModelSparser) {
    // alpha = inf removes all long "lucky" edges; graph stays sparse and
    // clustered.
    GirgParams p = small_params();
    p.n = 8000;
    p.alpha = kAlphaInfinity;
    p.edge_scale = calibrated_edge_scale(p);
    const Girg g = generate_girg(p, 47);
    EXPECT_GT(g.graph.average_degree(), 1.0);
    EXPECT_LT(g.graph.average_degree(), 10.0);
}


TEST(DegreeCalibration, ExactMarginalMatchesMonteCarlo) {
    GirgParams p = small_params();
    Rng rng(301);
    for (const double alpha : {1.5, 2.0, kAlphaInfinity}) {
        p.alpha = alpha;
        for (const double product : {1.0, 10.0, 200.0}) {
            RunningStats mc;
            for (int i = 0; i < 200000; ++i) {
                double a[2] = {rng.uniform(), rng.uniform()};
                double b[2] = {rng.uniform(), rng.uniform()};
                mc.add(girg_edge_probability(p, 1.0, product, a, b));
            }
            const double exact = exact_marginal_probability(p, product);
            EXPECT_NEAR(mc.mean(), exact, 5.0 * mc.stddev() / std::sqrt(200000.0) + 1e-5)
                << "alpha=" << alpha << " product=" << product;
        }
    }
}

TEST(DegreeCalibration, ExpectedDegreeMatchesSmallQFormula) {
    // For large n, saturation is negligible and the quadrature must agree
    // with the closed-form small-Q calibration: target E[deg] = E[W].
    GirgParams p = small_params();
    p.n = 1e7;
    p.edge_scale = calibrated_edge_scale(p);
    const double expected = p.wmin * (p.beta - 1.0) / (p.beta - 2.0);
    EXPECT_NEAR(expected_average_degree(p), expected, expected * 0.02);
}

TEST(DegreeCalibration, BisectionHitsRequestedDegree) {
    GirgParams p = small_params();
    p.n = 30000;
    for (const double target : {4.0, 10.0, 25.0}) {
        p.edge_scale = edge_scale_for_average_degree(p, target);
        // Predicted degree at the found scale matches the ask...
        EXPECT_NEAR(expected_average_degree(p), target, target * 0.02);
        // ...and a sampled graph lands close to it.
        const Girg g = generate_girg(p, 401);
        EXPECT_NEAR(g.graph.average_degree(), target, target * 0.12) << target;
    }
}

TEST(DegreeCalibration, UnreachableTargetRejected) {
    GirgParams p = small_params();
    p.n = 100;
    EXPECT_THROW((void)edge_scale_for_average_degree(p, 95.0), std::invalid_argument);
    EXPECT_THROW((void)edge_scale_for_average_degree(p, 0.0), std::invalid_argument);
}

TEST(ModelLaws, AverageDistanceGrowsDoublyLogarithmically) {
    // Lemma 7.3: the giant's average distance is ~ 2/|log(beta-2)| loglog n.
    // Between n = 2^13 and n = 2^17 (log n grows 16x... log2 grows +4), the
    // average distance should move by at most ~1.5 hops.
    GirgParams p = small_params();
    p.wmin = 2.0;
    Rng rng(501);
    const auto avg_at = [&](double n) {
        GirgParams q = p;
        q.n = n;
        q.edge_scale = calibrated_edge_scale(q);
        const Girg g = generate_girg(q, 601);
        Rng local(602);
        return estimate_average_distance(g.graph, 6, local);
    };
    const double small = avg_at(8192.0);
    const double large = avg_at(131072.0);
    EXPECT_GT(small, 2.0);
    EXPECT_LT(large - small, 1.6);  // 16x more vertices, ~1 extra hop
    EXPECT_LT(large, p.predicted_hops(131072.0) * 1.2 + 1.0);
}

}  // namespace
}  // namespace smallworld
