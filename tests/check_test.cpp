// Contract-violation death tests: GIRG_CHECK preconditions at the CSR,
// edge-arena, relabel, BFS, and phi seams must abort with a message naming
// the violated condition. GIRG_CHECK is always-on, so these pass in Release
// builds too.
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "girg/generator.h"
#include "girg/phi_evaluator.h"
#include "girg/relabel.h"
#include "graph/bfs.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "random/point_process.h"
#include "random/rng.h"

namespace smallworld {
namespace {

Graph triangle() {
    const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
    return Graph(3, edges);
}

TEST(CheckMacros, CheckPassesOnTrue) {
    GIRG_CHECK(1 + 1 == 2);
    GIRG_CHECK(true, "message is not evaluated on success");
    GIRG_DCHECK(true, "nor for the debug flavor");
}

TEST(CheckMacrosDeathTest, CheckAbortsWithFormattedMessage) {
    EXPECT_DEATH(GIRG_CHECK(false, "value was ", 41), "GIRG_CHECK.*value was 41");
}

TEST(CheckMacros, DcheckCompilesAndArgsStayTypeChecked) {
    // In Release GIRG_DCHECK is a dead branch; either way this must compile
    // and not abort on a true condition.
    const int n = 3;
    GIRG_DCHECK(n == 3, "n=", n);
}

TEST(CsrBuildDeathTest, RejectsOutOfRangeEndpoint) {
    // One edge block: the count pass runs inline on the calling thread.
    const std::vector<Edge> edges{{0, 5}};
    EXPECT_DEATH(Graph(2, edges, /*threads=*/1), "out of range");
}

TEST(CsrBuildDeathTest, RejectsOutOfRangeEndpointParallel) {
    std::vector<Edge> edges{{0, 1}, {1, 9}};
    EXPECT_DEATH(Graph(3, edges, /*threads=*/2), "out of range");
}

TEST(BfsDeathTest, RejectsOutOfRangeSource) {
    const Graph g = triangle();
    EXPECT_DEATH((void)bfs_distances(g, 7), "source");
}

TEST(BfsDeathTest, RejectsOutOfRangeEndpoints) {
    const Graph g = triangle();
    EXPECT_DEATH((void)bfs_distance(g, 0, 9), "GIRG_CHECK.*t=9");
}

TEST(EdgeArenaDeathTest, RejectsSpliceAcrossArenas) {
    ChunkedEdgeSink sink_a(std::make_shared<EdgeArena>());
    ChunkedEdgeSink sink_b(std::make_shared<EdgeArena>());
    sink_a.emit(0, 1);
    sink_b.emit(1, 2);
    ChunkedEdgeList list_a = sink_a.take();
    ChunkedEdgeList list_b = sink_b.take();
    EXPECT_DEATH(list_a.splice(std::move(list_b)), "distinct arenas");
}

TEST(RelabelDeathTest, RejectsMovablePrefixPastEnd) {
    Rng rng(7);
    const PointCloud cloud = sample_uniform_points(8, 2, rng);
    EXPECT_DEATH((void)morton_order(cloud, cloud.count() + 1), "movable");
}

TEST(PhiEvaluatorDeathTest, RejectsOutOfRangeTarget) {
    GirgParams params;
    params.n = 64;
    params.dim = 2;
    const Girg girg = generate_girg(params, /*seed=*/3);
    EXPECT_DEATH(PhiEvaluator(girg, static_cast<Vertex>(girg.num_vertices() + 10)),
                 "target");
}

}  // namespace
}  // namespace smallworld
