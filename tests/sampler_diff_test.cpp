// Differential test of the layered cell sampler (girg/fast_sampler) against
// its pre-tuning copy (tests/reference_sampler): on a grid over n, d, alpha,
// beta, wmin, the norm and the edge scale, the streaming entry point, with
// and without a fused relabel, at 1/2/8 threads, must emit exactly the
// reference's edge sequence and leave the caller's generator in the same
// state. Instances come from generate_girg's own attribute prefix,
// so planted vertices, a fixed vertex count and supplied weights are covered
// too. A unit test pins the type-II early exit against the full log
// computation on boundary triples.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "girg/fast_sampler.h"
#include "girg/generator.h"
#include "girg/params.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "random/rng.h"
#include "reference_sampler.h"

namespace smallworld {
namespace {

constexpr int kDims[] = {1, 2, 3, 4};
constexpr double kAlphas[] = {1.5, 2.0, 2.7, 3.0, 4.0, kAlphaInfinity};
constexpr double kBetas[] = {2.1, 2.5, 2.9};
constexpr double kWmins[] = {0.5, 2.0};
constexpr Norm kNorms[] = {Norm::kMax, Norm::kEuclidean};
constexpr unsigned kThreads[] = {1, 2, 8};

enum class Scale {
    kCalibrated,  ///< calibrated_edge_scale: E[deg v] = w_v
    kDense,       ///< 8x calibrated
    /// The largest n / (wmin 2^m) below the calibrated scale. Every layer
    /// pair's threshold volume is then an exact power of two, so where it is
    /// a power of 2^-d a type-II cell pair at its target level has pbar = 1
    /// exactly: the only way the sampler meets pbar >= 1.
    kDyadic,
};
constexpr Scale kScales[] = {Scale::kCalibrated, Scale::kDense, Scale::kDyadic};

/// The production entry point, without and with a fused relabel.
enum class Entry { kStream, kRelabeledStream };
constexpr Entry kEntries[] = {Entry::kStream, Entry::kRelabeledStream};

struct Run {
    Entry entry;
    unsigned threads;
};

struct Instance {
    double n = 0;
    int dim = 2;
    double alpha = 2.0;
    double beta = 2.5;
    double wmin = 1.0;
    Norm norm = Norm::kMax;
    Scale scale = Scale::kCalibrated;
    std::uint64_t seed = 1;
    GenerateOptions options;

    [[nodiscard]] GirgParams params() const {
        GirgParams p;
        p.n = n;
        p.dim = dim;
        p.alpha = alpha;
        p.beta = beta;
        p.wmin = wmin;
        p.norm = norm;
        p.edge_scale = calibrated_edge_scale(p);
        if (scale == Scale::kDense) p.edge_scale *= 8.0;
        if (scale == Scale::kDyadic && n >= 1.0) {
            const double m = std::ceil(std::log2(n / (wmin * p.edge_scale)));
            p.edge_scale = std::ldexp(n / wmin, -static_cast<int>(m));
        }
        return p;
    }

    [[nodiscard]] std::string describe() const {
        std::ostringstream os;
        os << "n=" << n << " d=" << dim << " alpha=" << alpha << " beta=" << beta
           << " wmin=" << wmin << " norm=" << static_cast<int>(norm)
           << " scale=" << static_cast<int>(scale) << " seed=" << seed
           << " fixed=" << options.fixed_vertex_count << " planted=" << options.planted.size()
           << " weights=" << options.weights.size();
        return os.str();
    }
};

testing::AssertionResult same_edges(const std::vector<Edge>& actual,
                                    const std::vector<Edge>& expected) {
    if (actual.size() != expected.size()) {
        return testing::AssertionFailure()
               << actual.size() << " edges, expected " << expected.size();
    }
    for (std::size_t k = 0; k < actual.size(); ++k) {
        if (actual[k] != expected[k]) {
            return testing::AssertionFailure()
                   << "edge " << k << " is (" << actual[k].first << "," << actual[k].second
                   << "), expected (" << expected[k].first << "," << expected[k].second << ")";
        }
    }
    return testing::AssertionSuccess();
}

/// Samples `instance` with the reference (single-threaded, tallying
/// coverage) and with each production run, all from the generator state
/// generate_girg's attribute prefix leaves. Every run must emit the
/// reference's edge sequence (relabeled for the fused-relabel entry point)
/// and leave the caller's generator where the reference leaves it.
void expect_same_edges(const Instance& instance, std::initializer_list<Run> runs,
                       reference::SamplerCoverage& coverage) {
    const GirgParams params = instance.params();
    Girg girg;
    Rng rng(instance.seed);
    const PageVector<Vertex> new_ids =
        detail::sample_attributes(params, instance.options, rng, girg);
    const auto n = static_cast<Vertex>(girg.num_vertices());
    // The permutation to fuse: generate_girg's Morton relabeling when it
    // makes one, the reversal otherwise.
    std::vector<Vertex> relabel(new_ids.begin(), new_ids.end());
    if (relabel.empty()) {
        for (Vertex v = 0; v < n; ++v) relabel.push_back(n - 1 - v);
    }

    GirgParams single = params;
    single.threads = 1;
    Rng reference_rng = rng;
    const std::vector<Edge> expected = reference::sample_edges_fast(
        single, girg.weights, girg.positions, reference_rng, &coverage);
    const double next_draw = reference_rng.uniform();

    for (const Run& run : runs) {
        GirgParams p = params;
        p.threads = run.threads;
        const std::string where = instance.describe() + " entry=" +
                                  std::to_string(static_cast<int>(run.entry)) +
                                  " threads=" + std::to_string(run.threads);
        Rng r = rng;
        if (run.entry == Entry::kStream) {
            EXPECT_TRUE(same_edges(
                sample_edges_fast_stream(p, girg.weights, girg.positions, r).to_vector(),
                expected))
                << where;
        } else {
            std::vector<Edge> relabeled;
            relabeled.reserve(expected.size());
            for (const auto& [u, v] : expected) relabeled.emplace_back(relabel[u], relabel[v]);
            EXPECT_TRUE(same_edges(sample_edges_fast_stream(p, girg.weights, girg.positions, r,
                                                            relabel.data())
                                       .to_vector(),
                                   relabeled))
                << where;
        }
        EXPECT_EQ(r.uniform(), next_draw) << where;
    }
}

/// Every grid point for a given n: the full product of the parameter axes
/// times three seeds, each point checked by one production run whose entry
/// point and thread count rotate through all six combinations, and every
/// third point on a fixed vertex count.
void full_grid(double n, reference::SamplerCoverage& coverage) {
    std::size_t point = 0;
    for (const int dim : kDims) {
        for (const double alpha : kAlphas) {
            for (const double beta : kBetas) {
                for (const double wmin : kWmins) {
                    for (const Norm norm : kNorms) {
                        for (const Scale scale : kScales) {
                            for (std::uint64_t seed = 1; seed <= 3; ++seed, ++point) {
                                Instance instance{n, dim, alpha, beta, wmin, norm, scale,
                                                  seed, {}};
                                instance.options.fixed_vertex_count = point % 3 == 0;
                                expect_same_edges(
                                    instance, {{kEntries[point % 2], kThreads[(point / 2) % 3]}},
                                    coverage);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Larger n: every (d, alpha) pair up to `max_dim`, with the edge scale,
/// beta, wmin, the norm and the seed rotating across the points; each point
/// runs both entry points, at thread counts rotating through 1/2/8.
void covering_grid(double n, int max_dim, reference::SamplerCoverage& coverage) {
    std::size_t point = 0;
    for (const int dim : kDims) {
        if (dim > max_dim) break;
        for (const double alpha : kAlphas) {
            Instance instance{n,
                              dim,
                              alpha,
                              kBetas[point % 3],
                              kWmins[(point / 3) % 2],
                              kNorms[(point / 2) % 2],
                              kScales[(point / 4) % 3],
                              1 + point % 3,
                              {}};
            expect_same_edges(instance,
                              {{Entry::kStream, kThreads[point % 3]},
                               {Entry::kRelabeledStream, kThreads[(point + 1) % 3]}},
                              coverage);
            ++point;
        }
    }
}

void expect_all_paths_covered(const reference::SamplerCoverage& coverage) {
    EXPECT_GT(coverage.layer_sort_ties, 0U);
    EXPECT_GT(coverage.pbar_at_least_one, 0U);
    EXPECT_GT(coverage.bound_rejects, 0U);
    EXPECT_GT(coverage.log_rejects, 0U);
    EXPECT_EQ(coverage.bound_errors, 0U);
}

TEST(SamplerDiff, TinyInstances) {
    reference::SamplerCoverage coverage;
    for (const double n : {0.0, 1.0, 2.0}) full_grid(n, coverage);
    EXPECT_EQ(coverage.bound_errors, 0U);
}

TEST(SamplerDiff, FiftyVertices) {
    reference::SamplerCoverage coverage;
    full_grid(50, coverage);
    expect_all_paths_covered(coverage);
}

TEST(SamplerDiff, ThousandVertices) {
    reference::SamplerCoverage coverage;
    covering_grid(1000, 4, coverage);
    expect_all_paths_covered(coverage);
}

TEST(SamplerDiff, FourThousandVertices) {
    reference::SamplerCoverage coverage;
    covering_grid(4096, 4, coverage);
    expect_all_paths_covered(coverage);
}

TEST(SamplerDiff, SixteenThousandVertices) {
    // d = 4 is left to the smaller instances: at this n its cell tree makes
    // a single run take seconds.
    reference::SamplerCoverage coverage;
    covering_grid(16384, 3, coverage);
    expect_all_paths_covered(coverage);
}

TEST(SamplerDiff, GenerateOptionsThroughGenerateGirg) {
    // Planted vertices, a fixed vertex count and supplied weights: the
    // sampler sees them through generate_girg's attribute prefix, and
    // generate_girg's graph is the CSR of the reference's (relabeled) edges.
    reference::SamplerCoverage coverage;
    Rng weight_rng(77);
    for (const int dim : kDims) {
        for (int variant = 0; variant < 3; ++variant) {
            Instance instance{2000, dim, kAlphas[(dim + variant) % 6], kBetas[variant],
                              kWmins[dim % 2], kNorms[variant % 2], kScales[(dim + variant) % 3],
                              static_cast<std::uint64_t>(10 + variant), {}};
            if (variant == 0) {
                PlantedVertex heavy;
                heavy.weight = 400.0;
                heavy.position[0] = 0.25;
                heavy.position[1] = 0.5;
                PlantedVertex light;
                light.weight = instance.wmin;
                light.position[0] = 0.75;
                instance.options.planted = {heavy, light, heavy};
            } else if (variant == 1) {
                instance.options.fixed_vertex_count = true;
            } else {
                // Heavy-tailed weights with exact repeats (equal layers and
                // equal kernel values) and one huge outlier.
                for (int v = 0; v < 1500; ++v) {
                    const double u = 1.0 - weight_rng.uniform();
                    instance.options.weights.push_back(
                        v % 5 == 0 ? instance.wmin : instance.wmin / std::sqrt(u));
                }
                instance.options.weights.push_back(1e6);
            }
            expect_same_edges(instance,
                              {{Entry::kStream, 1}, {Entry::kStream, 2},
                               {Entry::kRelabeledStream, 8}},
                              coverage);

            const GirgParams params = instance.params();
            const Girg generated = generate_girg(params, instance.seed, instance.options);
            Girg girg;
            Rng rng(instance.seed);
            const PageVector<Vertex> new_ids =
                detail::sample_attributes(params, instance.options, rng, girg);
            GirgParams single = params;
            single.threads = 1;
            std::vector<Edge> edges =
                reference::sample_edges_fast(single, girg.weights, girg.positions, rng);
            if (!new_ids.empty()) {
                for (auto& [u, v] : edges) {
                    u = new_ids[u];
                    v = new_ids[v];
                }
            }
            const Graph expected(girg.num_vertices(), edges);
            ASSERT_EQ(generated.num_vertices(), expected.num_vertices()) << instance.describe();
            const auto offsets_a = generated.graph.raw_offsets();
            const auto offsets_b = expected.raw_offsets();
            const auto adjacency_a = generated.graph.raw_adjacency();
            const auto adjacency_b = expected.raw_adjacency();
            EXPECT_TRUE(std::equal(offsets_a.begin(), offsets_a.end(), offsets_b.begin(),
                                   offsets_b.end()))
                << instance.describe();
            EXPECT_TRUE(std::equal(adjacency_a.begin(), adjacency_a.end(), adjacency_b.begin(),
                                   adjacency_b.end()))
                << instance.describe();
        }
    }
    EXPECT_EQ(coverage.bound_errors, 0U);
}

// ------------------------------------------------------ type-II early exit

/// The skip Rng::geometric_skip derives from draw u (0 read as 2^-53).
std::uint64_t full_skip(double u, double pbar) {
    if (u <= 0.0) u = 0x1.0p-53;
    return Rng::skip_from_uniform(u, std::log1p(-pbar));
}

/// skip_surely_reaches on draw u, with 0 read as 2^-53 as the sampler does.
bool surely(double u, std::uint64_t t, double pbar) {
    if (u <= 0.0) u = 0x1.0p-53;
    return detail::skip_surely_reaches(u, t, pbar);
}

TEST(SamplerDiff, EarlyExitNeverContradictsTheLogs) {
    struct Pair {
        std::uint64_t t;
        double pbar;
    };
    std::vector<Pair> pairs;
    // t = 1 with pbar toward 1.
    for (const double gap : {0.5, 1e-3, 1e-9, 1e-12, 1e-15, 0x1.0p-53}) {
        pairs.push_back({1, 1.0 - gap});
    }
    // t >= 2 with t * pbar within 1e-12 of 1, where 1 - t * pbar cancels.
    for (const std::uint64_t t :
         {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{7}, std::uint64_t{1000},
          std::uint64_t{1} << 20, std::uint64_t{1} << 33, std::uint64_t{1} << 40}) {
        const double td = static_cast<double>(t);
        for (const double delta : {1e-12, 3e-13, 1e-16, 0.0, -1e-13}) {
            pairs.push_back({t, (1.0 - delta) / td});
        }
        pairs.push_back({t, std::nextafter(1.0 / td, 0.0)});
    }
    // Tiny bounds, from 1 candidate to 2^40.
    for (const double pbar : {1e-300, 1e-18}) {
        for (const std::uint64_t t : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{12345},
                                      std::uint64_t{1} << 40}) {
            pairs.push_back({t, pbar});
        }
    }

    std::size_t decided = 0;
    for (const Pair& pair : pairs) {
        const double expected = static_cast<double>(pair.t) * pair.pbar;
        const double threshold = (1.0 - expected) * detail::kSkipBoundMargin;
        std::vector<double> draws = {0.0, 0x1.0p-53, 0.5, std::nextafter(1.0, 0.0)};
        if (expected < 1.0) {
            draws.push_back(std::nextafter(threshold, 0.0));
            draws.push_back(threshold);
            draws.push_back(std::nextafter(threshold, 1.0));
            // Right at the threshold the exit is on one side and off the other.
            if (threshold > 0x1.0p-53) {
                EXPECT_TRUE(surely(std::nextafter(threshold, 0.0), pair.t, pair.pbar));
            }
            EXPECT_FALSE(surely(threshold, pair.t, pair.pbar));
        }
        for (const double u : draws) {
            if (!surely(u, pair.t, pair.pbar)) continue;
            ++decided;
            EXPECT_GE(full_skip(u, pair.pbar), pair.t)
                << "u=" << u << " t=" << pair.t << " pbar=" << pair.pbar;
        }
    }
    EXPECT_GT(decided, pairs.size());

    // Random triples straddling the threshold.
    Rng rng(2026);
    for (int trial = 0; trial < 200000; ++trial) {
        const std::uint64_t t = 1 + rng.uniform_index(std::uint64_t{1} << (1 + trial % 40));
        const double x = rng.uniform();  // target t * pbar
        const double pbar = std::min(x / static_cast<double>(t), std::nextafter(1.0, 0.0));
        if (pbar <= 0.0) continue;
        const double threshold = (1.0 - static_cast<double>(t) * pbar) * detail::kSkipBoundMargin;
        const double u = threshold * (1.0 + 1e-6 * (rng.uniform() - 0.5));
        if (u <= 0.0 || u >= 1.0 || !surely(u, t, pbar)) continue;
        ASSERT_GE(full_skip(u, pbar), t) << "u=" << u << " t=" << t << " pbar=" << pbar;
    }
}

}  // namespace
}  // namespace smallworld
