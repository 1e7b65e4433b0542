#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "girg/edge_probability.h"
#include "girg/fast_sampler.h"
#include "girg/generator.h"
#include "girg/naive_sampler.h"
#include "graph/edge_stream.h"
#include "random/stats.h"
#include "reference_sampler.h"

namespace smallworld {
namespace {

// --------------------------------------------------------------- determinism

// The contract of the parallel sampler: with a fixed seed the edge list is
// byte-identical at any thread count, because every cell-pair task draws
// from its own counter-seeded stream and the per-task chunk lists are
// spliced in task order.
TEST(ParallelSampler, EdgeListIdenticalAcrossThreadCounts) {
    GirgParams params{.n = 3000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 1.5, .edge_scale = 1.0};
    const Girg base = generate_girg(params, 321);

    auto sample_with_threads = [&](unsigned threads) {
        GirgParams p = base.params;
        p.threads = threads;
        Rng rng(99);
        return sample_edges_fast_stream(p, base.weights, base.positions, rng).to_vector();
    };

    const std::vector<Edge> one = sample_with_threads(1);
    const std::vector<Edge> two = sample_with_threads(2);
    const std::vector<Edge> eight = sample_with_threads(8);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

TEST(ParallelSampler, HigherDimensionIdenticalAcrossThreadCounts) {
    GirgParams params{.n = 2000, .dim = 3, .alpha = 3.0, .beta = 2.8,
                      .wmin = 2.0, .edge_scale = 1.0};
    const Girg base = generate_girg(params, 77);

    auto sample_with_threads = [&](unsigned threads) {
        GirgParams p = base.params;
        p.threads = threads;
        Rng rng(5);
        return sample_edges_fast_stream(p, base.weights, base.positions, rng).to_vector();
    };

    const std::vector<Edge> one = sample_with_threads(1);
    const std::vector<Edge> eight = sample_with_threads(8);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, eight);
}

// Splicing the per-task chunk lists in task order must reproduce, at every
// thread count, the edge sequence of the sampler's pre-tuning oracle
// (tests/reference_sampler), which runs the same recursion task by task.
TEST(ParallelSampler, StreamMatchesVectorPathAcrossThreadCounts) {
    GirgParams params{.n = 3000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 1.5, .edge_scale = 1.0};
    const Girg base = generate_girg(params, 321);

    Rng reference_rng(99);
    const std::vector<Edge> reference = reference::sample_edges_fast(
        base.params, base.weights, base.positions, reference_rng);
    ASSERT_FALSE(reference.empty());

    for (const unsigned threads : {1u, 2u, 8u}) {
        GirgParams p = base.params;
        p.threads = threads;
        Rng rng(99);
        const ChunkedEdgeList streamed =
            sample_edges_fast_stream(p, base.weights, base.positions, rng);
        EXPECT_EQ(streamed.to_vector(), reference) << "threads=" << threads;
    }
}

// The naive stream flips one coin per vertex pair, u < v, in (u, v) order.
TEST(ParallelSampler, NaiveStreamMatchesNaiveVector) {
    GirgParams params{.n = 300, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 1.5, .edge_scale = 1.0};
    const Girg base = generate_girg(params, 88);
    Rng rng_a(7);
    Rng rng_b(7);
    std::vector<Edge> coin_flips;
    const auto n = static_cast<Vertex>(base.num_vertices());
    for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = u + 1; v < n; ++v) {
            const double p = girg_edge_probability(base.params, base.weights[u],
                                                   base.weights[v], base.position(u),
                                                   base.position(v));
            if (rng_a.bernoulli(p)) coin_flips.emplace_back(u, v);
        }
    }
    const auto streamed =
        sample_edges_naive_stream(base.params, base.weights, base.positions, rng_b);
    ASSERT_FALSE(coin_flips.empty());
    EXPECT_EQ(streamed.to_vector(), coin_flips);
    EXPECT_EQ(rng_a.uniform(), rng_b.uniform());
}

TEST(ParallelSampler, DistinctSeedsDiffer) {
    GirgParams params{.n = 2000, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 1.5, .edge_scale = 1.0};
    params.threads = 4;
    const Girg base = generate_girg(params, 13);
    Rng rng_a(1);
    Rng rng_b(2);
    const auto a = sample_edges_fast_stream(params, base.weights, base.positions, rng_a);
    const auto b = sample_edges_fast_stream(params, base.weights, base.positions, rng_b);
    EXPECT_NE(a.to_vector(), b.to_vector());
}

// ---------------------------------------------------------------- chi-square

// Per-pair edge frequencies over many rounds, flattened into two cells
// (edge / no edge) per kept pair so chi_square_statistic applies. Pairs with
// too-extreme expectations are dropped (normal approximation invalid there).
struct PairFrequencies {
    std::vector<std::size_t> observed;
    std::vector<double> expected;
    std::size_t pairs = 0;  // kept pairs == chi-square degrees of freedom
};

template <typename SampleFn>
PairFrequencies collect_frequencies(const Girg& base, std::size_t rounds,
                                    SampleFn&& sample) {
    const auto n = static_cast<std::size_t>(base.num_vertices());
    std::vector<std::size_t> counts(n * n, 0);
    for (std::size_t r = 0; r < rounds; ++r) {
        for (const Edge& e : sample(r)) {
            const auto u = static_cast<std::size_t>(std::min(e.first, e.second));
            const auto v = static_cast<std::size_t>(std::max(e.first, e.second));
            ++counts[u * n + v];
        }
    }
    PairFrequencies out;
    const auto dr = static_cast<double>(rounds);
    for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = u + 1; v < n; ++v) {
            const double p = girg_edge_probability(base.params, base.weights[u],
                                                   base.weights[v], base.position(u),
                                                   base.position(v));
            const double expect = dr * p;
            if (expect < 5.0 || expect > dr - 5.0) continue;
            out.observed.push_back(counts[u * n + v]);
            out.expected.push_back(expect);
            out.observed.push_back(rounds - counts[u * n + v]);
            out.expected.push_back(dr - expect);
            ++out.pairs;
        }
    }
    return out;
}

// chi2 ~ chi-square(dof): mean dof, variance 2*dof. Four standard
// deviations above the mean is a ~3e-5 false-positive rate.
bool chi_square_ok(const PairFrequencies& f) {
    const double stat = chi_square_statistic(f.observed, f.expected);
    const auto dof = static_cast<double>(f.pairs);
    return stat < dof + 4.0 * std::sqrt(2.0 * dof);
}

TEST(ParallelSampler, MatchesExactKernelFrequencies) {
    GirgParams params{.n = 40, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 1.5, .edge_scale = 1.0};
    const Girg base = generate_girg(params, 555);
    GirgParams p = base.params;
    p.threads = 3;

    const std::size_t kRounds = 3000;
    const auto freq = collect_frequencies(base, kRounds, [&](std::size_t r) {
        Rng rng(1000 + r);
        return sample_edges_fast_stream(p, base.weights, base.positions, rng).to_vector();
    });
    ASSERT_GT(freq.pairs, 20u);
    EXPECT_TRUE(chi_square_ok(freq));
}

TEST(ParallelSampler, NaiveReferencePassesSameTest) {
    // Sanity check on the test itself: the reference O(n^2) sampler must
    // pass the identical frequency test.
    GirgParams params{.n = 40, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 1.5, .edge_scale = 1.0};
    const Girg base = generate_girg(params, 555);

    const std::size_t kRounds = 3000;
    const auto freq = collect_frequencies(base, kRounds, [&](std::size_t r) {
        Rng rng(5000 + r);
        return sample_edges_naive_stream(base.params, base.weights, base.positions, rng)
            .to_vector();
    });
    ASSERT_GT(freq.pairs, 20u);
    EXPECT_TRUE(chi_square_ok(freq));
}

}  // namespace
}  // namespace smallworld
