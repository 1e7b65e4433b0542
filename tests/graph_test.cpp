#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/bfs.h"
#include "graph/components.h"
#include "graph/core_decomposition.h"
#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "random/power_law.h"
#include "random/rng.h"

namespace smallworld {
namespace {

Graph path_graph(Vertex n) {
    std::vector<Edge> edges;
    for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
    return Graph(n, edges);
}

Graph cycle_graph(Vertex n) {
    std::vector<Edge> edges;
    for (Vertex v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
    return Graph(n, edges);
}

Graph complete_graph(Vertex n) {
    std::vector<Edge> edges;
    for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = u + 1; v < n; ++v) edges.emplace_back(u, v);
    }
    return Graph(n, edges);
}

/// Multigraph with `edge_count` uniformly random endpoint pairs: duplicate
/// edges, reversed duplicates, and self-loops all occur with high
/// probability — the inputs the CSR cleanup paths must normalize.
std::vector<Edge> random_multigraph_edges(Vertex n, std::size_t edge_count, Rng& rng) {
    std::vector<Edge> edges;
    edges.reserve(edge_count);
    for (std::size_t i = 0; i < edge_count; ++i) {
        edges.emplace_back(static_cast<Vertex>(rng.uniform_index(n)),
                           static_cast<Vertex>(rng.uniform_index(n)));
    }
    return edges;
}

// ---------------------------------------------------------------- Graph

TEST(Graph, EmptyGraph) {
    const Graph g(0, std::span<const Edge>{});
    EXPECT_EQ(g.num_vertices(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(Graph, IsolatedVertices) {
    const Graph g(5, std::span<const Edge>{});
    EXPECT_EQ(g.num_vertices(), 5u);
    for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, BasicAdjacency) {
    const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
    const Graph g(4, edges);
    EXPECT_EQ(g.num_edges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(3), 0u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Graph, NeighborsSorted) {
    const std::vector<Edge> edges{{2, 0}, {2, 3}, {2, 1}};
    const Graph g(4, edges);
    const auto nbrs = g.neighbors(2);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(nbrs.size(), 3u);
}

TEST(Graph, SelfLoopsDropped) {
    const std::vector<Edge> edges{{0, 0}, {0, 1}};
    const Graph g(2, edges);
    EXPECT_EQ(g.num_edges(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, ParallelEdgesCollapsed) {
    const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}};
    const Graph g(2, edges);
    EXPECT_EQ(g.num_edges(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, MatchesNaiveReferenceOnRandomMultigraphs) {
    // Property test of the full cleanup pipeline (self-loop drop, sort,
    // duplicate collapse) against an adjacency-set reference.
    Rng rng(811);
    for (int round = 0; round < 20; ++round) {
        const Vertex n = static_cast<Vertex>(2 + rng.uniform_index(60));
        const std::size_t m = rng.uniform_index(4 * static_cast<std::size_t>(n) + 1);
        const auto edges = random_multigraph_edges(n, m, rng);

        std::vector<std::set<Vertex>> reference(n);
        for (const auto& [u, v] : edges) {
            if (u == v) continue;
            reference[u].insert(v);
            reference[v].insert(u);
        }

        const Graph g(n, edges, 1);
        ASSERT_EQ(g.num_vertices(), n);
        std::size_t half_edges = 0;
        for (Vertex v = 0; v < n; ++v) {
            const auto nbrs = g.neighbors(v);
            ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), reference[v].begin(),
                                   reference[v].end()))
                << "round " << round << " vertex " << v;
            half_edges += nbrs.size();
        }
        EXPECT_EQ(g.num_edges(), half_edges / 2);
    }
}

TEST(Graph, ParallelBuildByteIdenticalToSerial) {
    Rng rng(911);
    // threads = 1 runs the row passes inline on the calling thread; wider
    // builds scatter concurrently. Large enough to span many edge and
    // vertex blocks, messy enough to exercise the dedup-compaction path.
    const Vertex n = 20000;
    const auto edges = random_multigraph_edges(n, 120000, rng);
    const Graph serial(n, edges, 1);
    for (const unsigned threads : {2u, 8u}) {
        const Graph parallel(n, edges, threads);
        ASSERT_EQ(parallel.num_vertices(), serial.num_vertices()) << threads;
        ASSERT_EQ(parallel.num_edges(), serial.num_edges()) << threads;
        for (Vertex v = 0; v < n; ++v) {
            const auto a = serial.neighbors(v);
            const auto b = parallel.neighbors(v);
            ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
                << "threads " << threads << " vertex " << v;
        }
    }
}

TEST(Graph, EdgeListRoundTrips) {
    Rng rng(1011);
    const Vertex n = 200;
    const auto edges = random_multigraph_edges(n, 600, rng);
    const Graph g(n, edges);
    const auto exported = g.edge_list();
    EXPECT_EQ(exported.size(), g.num_edges());
    const Graph rebuilt(n, exported);
    for (Vertex v = 0; v < n; ++v) {
        const auto a = g.neighbors(v);
        const auto b = rebuilt.neighbors(v);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << v;
    }
}

TEST(Graph, AverageDegree) {
    const Graph g = cycle_graph(10);
    EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

// ---------------------------------------------------------------- BFS

TEST(Bfs, DistancesOnPath) {
    const Graph g = path_graph(6);
    const auto dist = bfs_distances(g, 0);
    for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(dist[v], static_cast<std::int32_t>(v));
}

TEST(Bfs, UnreachableMarked) {
    const Graph g(4, std::vector<Edge>{{0, 1}});
    const auto dist = bfs_distances(g, 0);
    EXPECT_EQ(dist[1], 1);
    EXPECT_EQ(dist[2], kUnreachable);
    EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, BoundedDepthStops) {
    const Graph g = path_graph(10);
    const auto dist = bfs_distances_bounded(g, 0, 3);
    EXPECT_EQ(dist[3], 3);
    EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Bfs, ParallelMatchesSerial) {
    // A sparse random graph wide enough that middle BFS levels exceed the
    // parallel-frontier threshold, plus isolated vertices to keep the
    // kUnreachable path covered.
    Rng rng(1111);
    const Vertex n = 30000;
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < 4 * static_cast<std::size_t>(n); ++i) {
        const auto u = static_cast<Vertex>(rng.uniform_index(n - 100));
        const auto v = static_cast<Vertex>(rng.uniform_index(n - 100));
        if (u != v) edges.emplace_back(u, v);
    }
    const Graph g(n, edges);
    for (const Vertex source : {Vertex{0}, Vertex{12345}}) {
        const auto serial = bfs_distances(g, source, 1);
        for (const unsigned threads : {2u, 8u}) {
            const auto parallel = bfs_distances(g, source, threads);
            ASSERT_EQ(serial, parallel) << "source " << source << " threads " << threads;
        }
        const auto bounded_serial = bfs_distances_bounded(g, source, 3, 1);
        const auto bounded_parallel = bfs_distances_bounded(g, source, 3, 8);
        ASSERT_EQ(bounded_serial, bounded_parallel) << source;
    }
}

TEST(Bfs, BidirectionalMatchesFull) {
    Rng rng(11);
    // Random sparse graph; compare bidirectional distance with full BFS.
    const Vertex n = 200;
    std::vector<Edge> edges;
    for (int i = 0; i < 500; ++i) {
        edges.emplace_back(static_cast<Vertex>(rng.uniform_index(n)),
                           static_cast<Vertex>(rng.uniform_index(n)));
    }
    const Graph g(n, edges);
    for (int trial = 0; trial < 200; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(n));
        const auto t = static_cast<Vertex>(rng.uniform_index(n));
        const auto full = bfs_distances(g, s);
        EXPECT_EQ(bfs_distance(g, s, t), full[t]) << "s=" << s << " t=" << t;
    }
}

TEST(Bfs, BidirectionalSameVertex) {
    const Graph g = cycle_graph(5);
    EXPECT_EQ(bfs_distance(g, 2, 2), 0);
}

TEST(Bfs, BidirectionalDisconnected) {
    const Graph g(4, std::vector<Edge>{{0, 1}, {2, 3}});
    EXPECT_EQ(bfs_distance(g, 0, 3), kUnreachable);
}

TEST(Bfs, ShortestPathEndpointsAndLength) {
    const Graph g = cycle_graph(8);
    const auto path = shortest_path(g, 0, 3);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), 3u);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
    }
}

TEST(Bfs, ShortestPathDisconnectedEmpty) {
    const Graph g(4, std::vector<Edge>{{0, 1}, {2, 3}});
    EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(Bfs, ShortestPathSameVertex) {
    const Graph g = path_graph(3);
    const auto path = shortest_path(g, 1, 1);
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], 1u);
}

// ---------------------------------------------------------------- components

TEST(Components, SingleComponent) {
    const Graph g = cycle_graph(7);
    const auto comps = connected_components(g);
    EXPECT_EQ(comps.count(), 1u);
    EXPECT_EQ(comps.giant_size(), 7u);
    EXPECT_TRUE(comps.same_component(0, 6));
}

TEST(Components, MultipleComponentsAndGiant) {
    std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}};
    const Graph g(6, edges);  // component sizes 3, 2, 1
    const auto comps = connected_components(g);
    EXPECT_EQ(comps.count(), 3u);
    EXPECT_EQ(comps.giant_size(), 3u);
    EXPECT_TRUE(comps.in_giant(0));
    EXPECT_TRUE(comps.in_giant(2));
    EXPECT_FALSE(comps.in_giant(3));
    EXPECT_FALSE(comps.same_component(2, 3));
    const auto giant = giant_component_vertices(comps);
    EXPECT_EQ(giant.size(), 3u);
}

TEST(Components, AllIsolated) {
    const Graph g(4, std::span<const Edge>{});
    const auto comps = connected_components(g);
    EXPECT_EQ(comps.count(), 4u);
    EXPECT_EQ(comps.giant_size(), 1u);
}

// ---------------------------------------------------------------- stats

TEST(GraphStats, DegreeHistogram) {
    const Graph g = path_graph(5);  // degrees 1,2,2,2,1
    const auto hist = degree_histogram(g);
    ASSERT_EQ(hist.size(), 3u);
    EXPECT_EQ(hist[0], 0u);
    EXPECT_EQ(hist[1], 2u);
    EXPECT_EQ(hist[2], 3u);
}

TEST(GraphStats, ClusteringTriangleAndPath) {
    const Graph triangle = complete_graph(3);
    EXPECT_DOUBLE_EQ(local_clustering(triangle, 0), 1.0);
    const Graph path = path_graph(3);
    EXPECT_DOUBLE_EQ(local_clustering(path, 1), 0.0);
    EXPECT_DOUBLE_EQ(local_clustering(path, 0), 0.0);  // degree < 2
}

TEST(GraphStats, MeanClusteringCompleteGraph) {
    const Graph g = complete_graph(6);
    Rng rng(13);
    EXPECT_DOUBLE_EQ(mean_clustering(g, 0, rng), 1.0);
}

TEST(GraphStats, DoubleSweepFindsPathDiameter) {
    const Graph g = path_graph(9);
    EXPECT_EQ(double_sweep_diameter_lower_bound(g, 4), 8);
}

TEST(GraphStats, AverageDistanceCycle) {
    const Graph g = cycle_graph(4);  // distances from any vertex: 1,1,2
    Rng rng(17);
    EXPECT_NEAR(estimate_average_distance(g, 4, rng), 4.0 / 3.0, 1e-9);
}

TEST(GraphStats, PowerLawMleOnSyntheticDegrees) {
    // Build a graph whose degree sequence follows ~k^{-2.5} by wiring a
    // configuration-like star forest; the MLE should land near 2.5.
    Rng rng(19);
    std::vector<Edge> edges;
    Vertex next = 0;
    std::vector<Vertex> hubs;
    const PowerLaw law(2.5, 5.0);
    for (int i = 0; i < 400; ++i) {
        const auto degree = static_cast<Vertex>(law.sample(rng));
        const Vertex hub = next++;
        hubs.push_back(hub);
        for (Vertex k = 0; k < degree; ++k) edges.emplace_back(hub, next++);
    }
    const Graph g(next, edges);
    const double beta = power_law_exponent_mle(g, 5);
    EXPECT_GT(beta, 2.2);
    EXPECT_LT(beta, 2.9);
}


// ---------------------------------------------------------------- k-core

TEST(CoreDecomposition, PathAndCycle) {
    const Graph path = path_graph(6);
    const auto path_core = core_decomposition(path);
    for (const auto c : path_core) EXPECT_EQ(c, 1u);
    const Graph cycle = cycle_graph(6);
    for (const auto c : core_decomposition(cycle)) EXPECT_EQ(c, 2u);
}

TEST(CoreDecomposition, CliqueAndIsolated) {
    const Graph clique = complete_graph(5);
    for (const auto c : core_decomposition(clique)) EXPECT_EQ(c, 4u);
    const Graph empty(4, std::span<const Edge>{});
    for (const auto c : core_decomposition(empty)) EXPECT_EQ(c, 0u);
    EXPECT_EQ(degeneracy(clique), 4u);
    EXPECT_EQ(degeneracy(empty), 0u);
}

TEST(CoreDecomposition, TriangleWithPendant) {
    // a-b-c triangle, d hangs off a: coreness (2,2,2,1).
    const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}, {0, 3}};
    const Graph g(4, edges);
    const auto core = core_decomposition(g);
    EXPECT_EQ(core[0], 2u);
    EXPECT_EQ(core[1], 2u);
    EXPECT_EQ(core[2], 2u);
    EXPECT_EQ(core[3], 1u);
}

TEST(CoreDecomposition, TwoCliquesJoinedByBridge) {
    // Two K4s joined by one edge: all clique vertices coreness 3.
    std::vector<Edge> edges;
    for (Vertex u = 0; u < 4; ++u) {
        for (Vertex v = u + 1; v < 4; ++v) {
            edges.emplace_back(u, v);
            edges.emplace_back(u + 4, v + 4);
        }
    }
    edges.emplace_back(0, 4);
    const Graph g(8, edges);
    for (const auto c : core_decomposition(g)) EXPECT_EQ(c, 3u);
}

TEST(CoreDecomposition, MatchesBruteForcePeeling) {
    // Reference implementation: repeatedly strip vertices of degree < k.
    Rng rng(23);
    for (int trial = 0; trial < 20; ++trial) {
        const Vertex n = 40;
        std::vector<Edge> edges;
        for (Vertex u = 0; u < n; ++u) {
            for (Vertex v = u + 1; v < n; ++v) {
                if (rng.bernoulli(0.12)) edges.emplace_back(u, v);
            }
        }
        const Graph g(n, edges);
        const auto fast = core_decomposition(g);
        // Brute force: v is in the k-core iff stripping all vertices of
        // degree < k (repeatedly) leaves v.
        for (Vertex v = 0; v < n; ++v) {
            const auto in_k_core = [&](std::uint32_t k) {
                std::vector<char> alive(n, 1);
                bool changed = true;
                while (changed) {
                    changed = false;
                    for (Vertex u = 0; u < n; ++u) {
                        if (alive[u] == 0) continue;
                        std::uint32_t deg = 0;
                        for (const Vertex w : g.neighbors(u)) {
                            deg += alive[w] != 0 ? 1 : 0;
                        }
                        if (deg < k) {
                            alive[u] = 0;
                            changed = true;
                        }
                    }
                }
                return alive[v] != 0;
            };
            EXPECT_TRUE(in_k_core(fast[v])) << "v=" << v;
            EXPECT_FALSE(in_k_core(fast[v] + 1)) << "v=" << v;
        }
    }
}

}  // namespace
}  // namespace smallworld
