// The pruned argmax over hub rows (girg/hub_rows.h) against the full scan:
// every answer {vertex, value} must be bitwise the floor-filtered best_of
// over the whole row, whatever the target, the floor, the dimension, the
// norm and the kernel. Row-level cases place the target on box edges and
// corners, inside boxes, in the row, and a hair outside extremes that are
// not floats; GIRG-level cases compare whole lockstep walks. The
// DecisionCache cases check the answers GirgObjective remembers per holder
// the same way, and which rows it remembers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/objective.h"
#include "core/phi_dfs.h"
#include "core/router.h"
#include "core/walk.h"
#include "distributed/protocols.h"
#include "geometry/torus.h"
#include "girg/generator.h"
#include "girg/girg.h"
#include "girg/hub_rows.h"
#include "girg/pack_io.h"
#include "girg/params.h"
#include "girg/phi_evaluator.h"
#include "girg/phi_soa.h"
#include "graph/components.h"
#include "graph/graph.h"
#include "graph/packed_graph.h"
#include "random/rng.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

using testing::FullScanObjective;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kFine = HubRowSummary::kFineBlock;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<PhiEvalMode> modes() {
    std::vector<PhiEvalMode> out{PhiEvalMode::kScalar};
    if (phi_simd_available()) out.push_back(PhiEvalMode::kSimd);
    return out;
}

const char* name_of(PhiEvalMode mode) {
    return mode == PhiEvalMode::kSimd ? "avx2" : "scalar";
}

/// Vertices and their attributes; vertex 0 is the holder, whose row is
/// 1..degree in id order. Vertices past the row are off it (targets).
struct Layout {
    int dim = 2;
    Norm norm = Norm::kMax;
    std::vector<double> weights;
    std::vector<double> coords;

    Vertex add(double weight, const std::vector<double>& position) {
        weights.push_back(weight);
        coords.insert(coords.end(), position.begin(), position.end());
        return static_cast<Vertex>(weights.size() - 1);
    }
    [[nodiscard]] std::vector<double> position(Vertex v) const {
        const auto d = static_cast<std::size_t>(dim);
        return {coords.begin() + static_cast<std::ptrdiff_t>(v * d),
                coords.begin() + static_cast<std::ptrdiff_t>((v + 1) * d)};
    }
};

/// The instance: vertex 0 adjacent to 1..degree.
Girg star(const Layout& layout, std::size_t degree) {
    Girg girg;
    girg.params.n = static_cast<double>(layout.weights.size());
    girg.params.dim = layout.dim;
    girg.params.norm = layout.norm;
    girg.params.wmin = 1.0;
    girg.weights = layout.weights;
    girg.positions.dim = layout.dim;
    girg.positions.coords = layout.coords;
    std::vector<Edge> edges;
    for (Vertex v = 1; v <= degree; ++v) edges.emplace_back(0, v);
    girg.graph = Graph(static_cast<Vertex>(girg.weights.size()), edges);
    return girg;
}

/// A multiple of 2^-20 in [0, 1): exactly a float, so box extremes are the
/// coordinates themselves.
double on_grid(double x) {
    const double wrapped = x - std::floor(x);
    return std::floor(wrapped * 0x1.0p20) * 0x1.0p-20;
}

/// Entries in runs of 16 around a per-run center (what Morton ids give a
/// hub's row), Pareto weights.
void add_clustered_row(Layout& layout, std::size_t degree, Rng& rng) {
    layout.add(1.0, std::vector<double>(static_cast<std::size_t>(layout.dim), 0.5));
    std::vector<double> center(static_cast<std::size_t>(layout.dim));
    for (std::size_t i = 0; i < degree; ++i) {
        if (i % kFine == 0) {
            for (double& c : center) c = rng.uniform();
        }
        std::vector<double> position;
        for (const double c : center) position.push_back(on_grid(c + 0.02 * rng.uniform()));
        const double weight = 1.0 / std::sqrt(1.0 - rng.uniform() * 0.999);  // beta = 3
        layout.add(weight, position);
    }
}

/// best_above of GirgObjective (pruned where the summary covers the row)
/// and of the full scan, bitwise.
void expect_same_argmax(const Girg& girg, Vertex holder, Vertex target, double floor,
                        PhiEvalMode mode, const std::string& where) {
    PhiOptions options;
    options.mode = mode;
    const GirgObjective pruned(girg, target, options);
    const GirgObjective plain(girg, target, options);
    const FullScanObjective full(plain);
    const std::span<const Vertex> row = girg.graph.neighbors(holder);
    const BestNeighbor got = pruned.best_above(holder, row, floor);
    const BestNeighbor want = full.best_above(holder, row, floor);
    EXPECT_EQ(got.vertex, want.vertex) << where;
    EXPECT_EQ(bits(got.value), bits(want.value)) << where;
}

/// The floors a row is checked under: none, two of the row's own values
/// (its maximum and a middle one), and one above every value.
std::vector<double> floors_for(const Girg& girg, Vertex holder, Vertex target) {
    const GirgObjective objective(girg, target);
    const std::span<const Vertex> row = girg.graph.neighbors(holder);
    const BestNeighbor best = objective.best_of(row);
    const double middle = objective.value(row[row.size() / 2]);
    const double above = std::isinf(best.value) ? kInf : 2.0 * best.value;
    return {-kInf, best.value, middle, above};
}

/// The summary's pruned argmax on its own, with a fresh memo: the lane and
/// how many row entries it evaluated (one memo write each).
struct SummaryRun {
    PhiBestLane lane;
    std::size_t evaluated = 0;
};

SummaryRun run_summary(const Girg& girg, PhiKernel kernel, Vertex holder, Vertex target,
                       double floor) {
    const std::shared_ptr<const HubRowSummary> hubs = girg.hub_rows();
    const std::shared_ptr<const PhiSoA> soa = girg.phi_soa();
    EXPECT_TRUE(hubs->built_from(girg.graph, soa.get()));
    std::vector<double> memo(girg.num_vertices(), std::numeric_limits<double>::quiet_NaN());
    std::vector<Vertex> touched;
    PhiKernelCtx ctx;
    ctx.weights = soa->weight_plane();
    ctx.wn = girg.params.wmin * girg.params.n;
    ctx.dim = girg.params.dim;
    ctx.target = target;
    for (int axis = 0; axis < ctx.dim; ++axis) {
        ctx.axes[axis] = soa->axis_plane(axis);
        ctx.target_position[axis] = girg.position(target)[axis];
    }
    ctx.memo = memo.data();
    ctx.touched = &touched;
    const PhiKernelOps& ops = phi_kernel_ops(girg.params.norm, ctx.dim, kernel);
    SummaryRun run;
    run.lane = hubs->best_above(ctx, ops.best, holder, girg.graph.neighbors(holder), floor);
    run.evaluated = touched.size();
    return run;
}

// ------------------------------------------------------------- the summary

TEST(HubRowSummary, CoversTheRowsOfDegreeAtLeast256) {
    // Holders 0..3 with degrees 255, 256, 257 and 4097 over one pool.
    const std::size_t degrees[] = {255, 256, 257, 4097};
    Layout layout;
    Rng rng(11);
    for (int h = 0; h < 4; ++h) layout.add(1.0, {rng.uniform(), rng.uniform()});
    for (std::size_t i = 0; i < 4097; ++i) {
        layout.add(1.0 + rng.uniform(), {rng.uniform(), rng.uniform()});
    }
    Girg girg;
    girg.params.n = static_cast<double>(layout.weights.size());
    girg.weights = layout.weights;
    girg.positions.dim = 2;
    girg.positions.coords = layout.coords;
    std::vector<Edge> edges;
    for (Vertex h = 0; h < 4; ++h) {
        for (Vertex i = 0; i < degrees[h]; ++i) edges.emplace_back(h, 4 + i);
    }
    girg.graph = Graph(static_cast<Vertex>(girg.weights.size()), edges);

    const std::shared_ptr<const HubRowSummary> hubs = girg.hub_rows();
    EXPECT_EQ(hubs->rows(), 3u);
    // ceil(k/256) coarse + ceil(k/16) fine boxes per covered row.
    EXPECT_EQ(hubs->boxes(), (1u + 16u) + (2u + 17u) + (17u + 257u));
    EXPECT_GE(hubs->memory_bytes(), hubs->boxes() * 5 * sizeof(float));
    // Cached: the same summary until the graph or the planes change.
    EXPECT_EQ(girg.hub_rows(), hubs);
    girg.invalidate_phi_soa();
    EXPECT_NE(girg.hub_rows(), hubs);

    for (Vertex h = 0; h < 4; ++h) {
        for (const Vertex target : {Vertex{4}, Vertex{300}, Vertex{4100}}) {
            for (const PhiEvalMode mode : modes()) {
                expect_same_argmax(girg, h, target, -kInf, mode,
                                   "holder=" + std::to_string(h) + " target=" +
                                       std::to_string(target) + " " + name_of(mode));
            }
        }
    }
}

// ------------------------------------------------------------ row by row

/// Every d, norm and kernel; rows of degree 255 (not covered), 256, 257 and
/// 4097; off-row targets at random, on a fine box's edge and corner, inside
/// it, a row entry as the target, and an off-row target at a row entry's
/// exact position; four floors each.
TEST(PrunedArgmax, MatchesTheFullScanOnClusteredRows) {
    std::size_t pruned_rows = 0;
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        for (int dim = 1; dim <= kMaxDim; ++dim) {
            for (const std::size_t degree : {std::size_t{255}, std::size_t{256},
                                             std::size_t{257}, std::size_t{4097}}) {
                Layout layout;
                layout.dim = dim;
                layout.norm = norm;
                Rng rng(1000 + static_cast<std::uint64_t>(dim) * 10 + degree);
                add_clustered_row(layout, degree, rng);
                std::vector<Vertex> targets;
                for (int i = 0; i < 4; ++i) {
                    std::vector<double> position;
                    for (int a = 0; a < dim; ++a) position.push_back(rng.uniform());
                    targets.push_back(layout.add(1.0, position));
                }
                // A fine block's hull, which the fine box equals exactly
                // (grid coordinates are floats).
                const std::size_t block = (degree / kFine) / 2;
                std::vector<double> lo(static_cast<std::size_t>(dim), 1.0);
                std::vector<double> hi(static_cast<std::size_t>(dim), 0.0);
                for (std::size_t i = block * kFine; i < (block + 1) * kFine && i < degree; ++i) {
                    const auto p = layout.position(static_cast<Vertex>(1 + i));
                    for (int a = 0; a < dim; ++a) {
                        lo[a] = std::min(lo[a], p[a]);
                        hi[a] = std::max(hi[a], p[a]);
                    }
                }
                std::vector<double> edge = lo;  // on one face, inside the others
                for (int a = 1; a < dim; ++a) edge[a] = 0.5 * (lo[a] + hi[a]);
                targets.push_back(layout.add(1.0, edge));
                targets.push_back(layout.add(1.0, hi));  // a corner
                std::vector<double> inside;
                for (int a = 0; a < dim; ++a) inside.push_back(0.5 * (lo[a] + hi[a]));
                targets.push_back(layout.add(1.0, inside));
                targets.push_back(static_cast<Vertex>(1 + block * kFine + 3));  // in the row
                const auto twin = static_cast<Vertex>(degree / 3);  // a row entry
                targets.push_back(layout.add(2.0, layout.position(twin)));
                const Girg girg = star(layout, degree);

                for (const Vertex target : targets) {
                    for (const double floor : floors_for(girg, 0, target)) {
                        for (const PhiEvalMode mode : modes()) {
                            expect_same_argmax(
                                girg, 0, target, floor, mode,
                                "d=" + std::to_string(dim) +
                                    " norm=" + std::to_string(static_cast<int>(norm)) +
                                    " degree=" + std::to_string(degree) +
                                    " target=" + std::to_string(target) +
                                    " floor=" + std::to_string(floor) + " " + name_of(mode));
                        }
                    }
                }
                if (degree == 4097) {
                    // The summary skips most of a clustered hub row for a
                    // random off-row target: the comparison above prunes.
                    const SummaryRun run =
                        run_summary(girg, PhiKernel::kScalar, 0, targets.front(), -kInf);
                    if (run.evaluated < degree / 2) ++pruned_rows;
                }
            }
        }
    }
    EXPECT_GE(pruned_rows, 6u);
}

/// The summary's own argmax, lane for lane with the kernel over the whole
/// row, under both kernels, and the number of entries it evaluates.
TEST(PrunedArgmax, SummaryLanesMatchTheKernelOverTheWholeRow) {
    std::vector<PhiKernel> kernels{PhiKernel::kScalar};
    if (phi_simd_available()) kernels.push_back(PhiKernel::kAvx2);
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        for (int dim = 1; dim <= kMaxDim; ++dim) {
            Layout layout;
            layout.dim = dim;
            layout.norm = norm;
            Rng rng(77 + static_cast<std::uint64_t>(dim));
            add_clustered_row(layout, 1000, rng);
            std::vector<Vertex> targets;
            for (int i = 0; i < 8; ++i) {
                std::vector<double> position;
                for (int a = 0; a < dim; ++a) position.push_back(rng.uniform());
                targets.push_back(layout.add(1.0, position));
            }
            const Girg girg = star(layout, 1000);
            for (const PhiKernel kernel : kernels) {
                for (const Vertex target : targets) {
                    const GirgObjective objective(girg, target);
                    const BestNeighbor want = objective.best_of(girg.graph.neighbors(0));
                    const SummaryRun run = run_summary(girg, kernel, 0, target, -kInf);
                    EXPECT_EQ(run.lane.index, std::size_t{want.vertex} - 1);
                    EXPECT_EQ(bits(run.lane.value), bits(want.value));
                    EXPECT_LT(run.evaluated, 1000u) << "nothing was skipped";
                    // A row the summary does not cover (a leaf's) is scanned
                    // whole, then filtered.
                    const SummaryRun leaf = run_summary(girg, kernel, 1, target, -kInf);
                    EXPECT_EQ(leaf.lane.index, 0u);
                    EXPECT_EQ(bits(leaf.lane.value), bits(objective.value(0)));
                    const double above = objective.value(0);
                    EXPECT_EQ(run_summary(girg, kernel, 1, target, above).lane.index,
                              PhiBestLane::kNone);
                }
            }
        }
    }
}

/// A near-tie within 1e-12 relative in a later block whose box bound is
/// tight: all its entries share one float position and a float weight, so
/// the bound is exactly their phi and only an exact skip rule evaluates it.
/// Then equal weights and positions across blocks: the first in row order
/// wins.
TEST(PrunedArgmax, NearTiesInALaterBlockAndTiesAcrossBlocks) {
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        for (int dim = 1; dim <= kMaxDim; ++dim) {
            for (const bool ties_win : {false, true}) {
                const std::size_t degree = 1024;
                Layout layout;
                layout.dim = dim;
                layout.norm = norm;
                const std::vector<double> t(static_cast<std::size_t>(dim), 0.25);
                const double near = 0.5;  // a float; the later block sits here
                // The running best: distance (near - 0.25) * (1 + 1e-12)^(1/d)
                // on axis 0, so its phi is just below the later block's.
                const double far =
                    0.25 + (near - 0.25) * std::pow(1.0 + 1e-12, 1.0 / static_cast<double>(dim));
                layout.add(1.0, t);
                Rng rng(5);
                for (std::size_t i = 0; i < degree; ++i) {
                    std::vector<double> p = t;
                    double weight = 4.0;
                    if (i == 40) {
                        p[0] = far;  // block 2
                    } else if (i >= 512 && i < 528) {
                        p[0] = near;  // block 32, all alike
                    } else if (i % 100 == 7) {
                        p[0] = ties_win ? 0.3 : 0.6;  // equal entries across blocks
                    } else {
                        for (double& c : p) c = 0.55 + 0.3 * rng.uniform();
                        weight = 1.0;
                    }
                    layout.add(weight, p);
                }
                const Vertex target = layout.add(1.0, t);
                const Girg girg = star(layout, degree);
                const GirgObjective objective(girg, target);
                const BestNeighbor best =
                    objective.best_above(0, girg.graph.neighbors(0), -kInf);
                for (const PhiEvalMode mode : modes()) {
                    const std::string where = "d=" + std::to_string(dim) + " norm=" +
                                              std::to_string(static_cast<int>(norm)) +
                                              " ties_win=" + std::to_string(ties_win) + " " +
                                              name_of(mode);
                    expect_same_argmax(girg, 0, target, -kInf, mode, where);
                    // With the running best's value as the floor the winner
                    // stands; with the winner's own value nothing does.
                    expect_same_argmax(girg, 0, target, objective.value(41), mode, where);
                    expect_same_argmax(girg, 0, target, best.value, mode, where);
                }
                if (ties_win) {
                    EXPECT_EQ(best.vertex, Vertex{8});  // the first of the equal entries
                } else {
                    EXPECT_EQ(best.vertex, Vertex{513});  // the first of the near tie
                    EXPECT_GT(best.value, objective.value(41));
                    EXPECT_LT(best.value, objective.value(41) * (1.0 + 1e-11));
                }
            }
        }
    }
}

/// Extremes that are not floats, with the target a hair outside them: the
/// box must be rounded outward, or the block holding the closest entry is
/// skipped behind an earlier, farther one.
TEST(PrunedArgmax, TargetsAHairOutsideExtremesThatAreNotFloats) {
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        for (int dim = 1; dim <= kMaxDim; ++dim) {
            for (const bool below : {true, false}) {
                const std::size_t degree = 512;
                Layout layout;
                layout.dim = dim;
                layout.norm = norm;
                // A coordinate just past a float, on the side the target is:
                // nearest rounding would move the box edge away from it.
                const auto f = static_cast<double>(0.3f);
                const double step = 0x1.0p-40;
                const double x = below ? f - step : f + step;
                const double t0 = below ? x - 0x1.0p-52 : x + 0x1.0p-52;
                std::vector<double> t(static_cast<std::size_t>(dim), 0.7);
                t[0] = t0;
                layout.add(1.0, t);
                Rng rng(9);
                for (std::size_t i = 0; i < degree; ++i) {
                    std::vector<double> p(static_cast<std::size_t>(dim), 0.7);
                    if (i == 5) {
                        p[0] = below ? t0 - 0x1.0p-45 : t0 + 0x1.0p-45;  // farther
                    } else if (i == 300) {
                        p[0] = x;  // the closest
                    } else if (i >= 288 && i < 304) {
                        // The rest of its block lies beyond x, so x is the
                        // block's extreme on the target's side.
                        p[0] = below ? x + 0.01 : x - 0.01;
                    } else {
                        for (double& c : p) c = 0.05 + 0.1 * rng.uniform();
                    }
                    layout.add(1.0, p);
                }
                const Vertex target = layout.add(1.0, t);
                const Girg girg = star(layout, degree);
                for (const PhiEvalMode mode : modes()) {
                    const std::string where = "d=" + std::to_string(dim) +
                                              " below=" + std::to_string(below) + " " +
                                              name_of(mode);
                    expect_same_argmax(girg, 0, target, -kInf, mode, where);
                    const GirgObjective objective(girg, target);
                    EXPECT_EQ(objective.best_above(0, girg.graph.neighbors(0), -kInf).vertex,
                              Vertex{301})
                        << where;
                }
            }
        }
    }
}

/// Coordinates at 0, near 0 and just below 1, with targets across the wrap.
TEST(PrunedArgmax, CoordinatesNearZeroAndOne) {
    const double edge_values[] = {0.0, 0x1.0p-60, 1e-9, 1.0 - 0x1.0p-53, 1.0 - 1e-9, 0.5,
                                  std::nextafter(0.5, 0.0)};
    for (const Norm norm : {Norm::kMax, Norm::kEuclidean}) {
        for (int dim = 1; dim <= kMaxDim; ++dim) {
            const std::size_t degree = 600;
            Layout layout;
            layout.dim = dim;
            layout.norm = norm;
            layout.add(1.0, std::vector<double>(static_cast<std::size_t>(dim), 0.5));
            Rng rng(31 + static_cast<std::uint64_t>(dim));
            for (std::size_t i = 0; i < degree; ++i) {
                std::vector<double> p;
                for (int a = 0; a < dim; ++a) p.push_back(edge_values[rng.uniform_index(7)]);
                layout.add(1.0 + static_cast<double>(rng.uniform_index(3)), p);
            }
            std::vector<Vertex> targets;
            for (const double c : edge_values) {
                std::vector<double> p(static_cast<std::size_t>(dim), c);
                p[0] = edge_values[(rng.uniform_index(7))];
                targets.push_back(layout.add(1.0, p));
            }
            const Girg girg = star(layout, degree);
            for (const Vertex target : targets) {
                for (const double floor : floors_for(girg, 0, target)) {
                    for (const PhiEvalMode mode : modes()) {
                        expect_same_argmax(girg, 0, target, floor, mode,
                                           "d=" + std::to_string(dim) +
                                               " target=" + std::to_string(target) + " " +
                                               name_of(mode));
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------ GIRG walks

void expect_same_walk(const DistributedResult& want, const DistributedResult& got,
                      const std::string& where) {
    EXPECT_EQ(got.routing.status, want.routing.status) << where;
    EXPECT_EQ(got.routing.path, want.routing.path) << where;
    EXPECT_EQ(got.routing.retries, want.routing.retries) << where;
    const SimulationTelemetry& a = want.telemetry;
    const SimulationTelemetry& b = got.telemetry;
    EXPECT_EQ(b.wakes, a.wakes) << where;
    EXPECT_EQ(b.messages_sent, a.messages_sent) << where;
    EXPECT_EQ(b.slots_touched, a.slots_touched) << where;
    EXPECT_EQ(b.locality_violations, a.locality_violations) << where;
    EXPECT_EQ(b.illegal_forwards, a.illegal_forwards) << where;
    EXPECT_EQ(b.message_drops, a.message_drops) << where;
    EXPECT_EQ(b.retries, a.retries) << where;
    EXPECT_EQ(b.skipped_dead_neighbors, a.skipped_dead_neighbors) << where;
    EXPECT_EQ(b.queue_drops, a.queue_drops) << where;
    EXPECT_EQ(b.audit_flags, a.audit_flags) << where;
    EXPECT_EQ(b.misroutes_observed, a.misroutes_observed) << where;
}

GirgParams standard(double n) {
    GirgParams params;
    params.n = n;
    params.dim = 2;
    params.alpha = 2.0;
    params.beta = 2.5;
    params.wmin = 2.0;
    params.edge_scale = calibrated_edge_scale(params);
    return params;
}

/// DistributedGreedy and Φ-DFS on the lockstep walk, with GirgObjective and
/// with the decorator that hides the pruned entry: identical results.
TEST(PrunedArgmax, GirgWalksMatchTheFullScan) {
    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    for (const int log_n : {14, 15, 16}) {
        const Girg girg = generate_girg(standard(static_cast<double>(1 << log_n)),
                                        4000 + static_cast<std::uint64_t>(log_n));
        const Components components = connected_components(girg.graph);
        const Vertex n = girg.num_vertices();
        Rng rng(17 + static_cast<std::uint64_t>(log_n));
        std::size_t hub_wakes = 0;
        for (int i = 0; i < 150; ++i) {
            const auto s = static_cast<Vertex>(rng.uniform_index(n));
            const auto t = static_cast<Vertex>(rng.uniform_index(n));
            const GirgObjective pruned(girg, t);
            const FullScanObjective full(std::make_unique<GirgObjective>(girg, t));
            const std::string where = "n=2^" + std::to_string(log_n) + " s=" +
                                      std::to_string(s) + " t=" + std::to_string(t);
            const DistributedResult want = simulate_routing(girg.graph, full, greedy, s);
            expect_same_walk(want, simulate_routing(girg.graph, pruned, greedy, s),
                             "greedy " + where);
            for (const Vertex v : want.routing.path) {
                if (girg.graph.degree(v) >= HubRowSummary::kMinDegree) ++hub_wakes;
            }
            if (i % 3 != 0 || !components.same_component(s, t)) continue;
            RoutingOptions options;
            options.max_steps = 20000;
            const DistributedResult want_dfs =
                simulate_routing(girg.graph, full, phi_dfs, s, options);
            expect_same_walk(want_dfs, simulate_routing(girg.graph, pruned, phi_dfs, s, options),
                             "phi-dfs " + where);
        }
        EXPECT_GT(hub_wakes, 20u) << "n=2^" << log_n << ": the walks must cross hub rows";
    }
}

/// A summary built for one graph is never used on the rows of a same-size
/// graph assigned in its place, and neither are the decisions an objective
/// made on the old rows: the objective that built the summary and decided
/// on the old rows, and a new one, both answer for the new rows.
TEST(PrunedArgmax, AssignedGraphGetsAFreshSummary) {
    Girg girg = generate_girg(standard(1 << 14), 71);
    // The same vertices with other edges: a same-size graph.
    const Graph other = resample_edges(girg, 72, SamplerKind::kFast);
    const auto hub_of = [](const Graph& graph, std::size_t skip) {
        for (Vertex v = 0; v < graph.num_vertices(); ++v) {
            if (graph.degree(v) >= HubRowSummary::kMinDegree && skip-- == 0) return v;
        }
        return kNoVertex;
    };
    const Vertex target = 12345;
    // Hubs of either graph, and vertices of every degree.
    std::vector<Vertex> holders;
    for (std::size_t k = 0; k < 6; ++k) {
        for (const Graph* graph : {static_cast<const Graph*>(&girg.graph), &other}) {
            if (const Vertex hub = hub_of(*graph, k); hub != kNoVertex) holders.push_back(hub);
        }
    }
    for (Vertex v = 0; v < 200; ++v) holders.push_back(v * 80);
    const GirgObjective early(girg, target);
    ASSERT_NE(hub_of(girg.graph, 0), kNoVertex);
    std::vector<BestNeighbor> old_answers;
    for (const Vertex holder : holders) {
        // Builds the summary, and decides every holder on the old rows.
        old_answers.push_back(early.best_above(holder, girg.graph.neighbors(holder), -kInf));
    }
    EXPECT_EQ(early.decided_holders(), std::set<Vertex>(holders.begin(), holders.end()).size());
    const std::shared_ptr<const HubRowSummary> before = girg.hub_rows();

    girg.graph = other;  // same n, other rows
    EXPECT_NE(girg.hub_rows(), before);
    const GirgObjective late(girg, target);
    const FullScanObjective full(std::make_unique<GirgObjective>(girg, target));
    std::size_t changed = 0;
    std::size_t hubs = 0;
    for (std::size_t i = 0; i < holders.size(); ++i) {
        const Vertex holder = holders[i];
        const std::span<const Vertex> row = girg.graph.neighbors(holder);
        const BestNeighbor want = full.best_above(holder, row, -kInf);
        if (want.vertex != old_answers[i].vertex) ++changed;
        if (row.size() >= HubRowSummary::kMinDegree) ++hubs;
        for (const GirgObjective* objective : {&early, &late}) {
            const BestNeighbor got = objective->best_above(holder, row, -kInf);
            EXPECT_EQ(got.vertex, want.vertex) << "holder " << holder;
            EXPECT_EQ(bits(got.value), bits(want.value)) << "holder " << holder;
        }
    }
    EXPECT_GT(hubs, 2u);
    EXPECT_GT(changed, 50u) << "the new rows must change many answers";
}

/// Four threads build objectives on one Girg and race the first pruned
/// argmax, which builds the summary once for all of them. Each objective
/// then answers every row again, hubs and short rows, from the decisions
/// it remembers.
TEST(PrunedArgmax, ConcurrentFirstPrunesBuildOneSummary) {
    const Girg girg = generate_girg(standard(1 << 14), 73);
    std::vector<Vertex> hubs;
    for (Vertex v = 0; v < girg.num_vertices(); ++v) {
        if (girg.graph.degree(v) >= HubRowSummary::kMinDegree) hubs.push_back(v);
    }
    ASSERT_FALSE(hubs.empty());
    std::vector<Vertex> holders = hubs;
    for (Vertex v = 1; v < girg.num_vertices(); v += 97) holders.push_back(v);
    constexpr int kThreads = 4;
    std::vector<Vertex> targets{10, 2000, 7000, 15000};
    std::vector<std::vector<BestNeighbor>> want(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        const FullScanObjective full(std::make_unique<GirgObjective>(girg, targets[i]));
        for (const Vertex holder : holders) {
            want[i].push_back(full.best_above(holder, girg.graph.neighbors(holder), -kInf));
        }
    }
    std::vector<std::vector<BestNeighbor>> got(kThreads);
    std::vector<std::size_t> decided(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            const GirgObjective objective(girg, targets[i]);
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            for (int pass = 0; pass < 2; ++pass) {
                for (const Vertex holder : holders) {
                    got[i].push_back(
                        objective.best_above(holder, girg.graph.neighbors(holder), -kInf));
                }
            }
            decided[i] = objective.decided_holders();
        });
    }
    for (std::thread& thread : threads) thread.join();
    for (int i = 0; i < kThreads; ++i) {
        ASSERT_EQ(got[i].size(), 2 * want[i].size());
        for (std::size_t k = 0; k < got[i].size(); ++k) {
            EXPECT_EQ(got[i][k].vertex, want[i][k % holders.size()].vertex);
            EXPECT_EQ(bits(got[i][k].value), bits(want[i][k % holders.size()].value));
        }
        EXPECT_EQ(decided[i], holders.size());
    }
    EXPECT_EQ(girg.hub_rows()->rows(), hubs.size());
}

// ------------------------------------------------------ decision cache

/// One GirgObjective serves 128 sources of one target, as a serving batch's
/// objective does, with DistributedGreedy and Φ-DFS taking turns on it, so
/// the floors phi(holder) and -inf interleave at the holders they share.
/// Every walk equals the walk decided by full scans.
TEST(DecisionCache, SharedObjectiveWalksMatchTheFullScan) {
    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    const Girg girg = generate_girg(standard(1 << 15), 4101);
    const Components components = connected_components(girg.graph);
    const Vertex n = girg.num_vertices();
    Rng rng(4102);
    Vertex target = kNoVertex;
    while (target == kNoVertex || !components.in_giant(target)) {
        target = static_cast<Vertex>(rng.uniform_index(n));
    }
    const GirgObjective cached(girg, target);
    const FullScanObjective full(std::make_unique<GirgObjective>(girg, target));
    RoutingOptions options;
    options.max_steps = 20000;
    std::size_t wakes = 0;
    std::size_t hub_wakes = 0;
    std::size_t dfs_walks = 0;
    for (int i = 0; i < 128; ++i) {
        const auto s = static_cast<Vertex>(rng.uniform_index(n));
        const std::string where = "s=" + std::to_string(s);
        const DistributedResult want = simulate_routing(girg.graph, full, greedy, s);
        expect_same_walk(want, simulate_routing(girg.graph, cached, greedy, s),
                         "greedy " + where);
        wakes += want.telemetry.wakes;
        for (const Vertex v : want.routing.path) {
            if (girg.graph.degree(v) >= HubRowSummary::kMinDegree) ++hub_wakes;
        }
        if (!components.same_component(s, target)) continue;
        const DistributedResult want_dfs =
            simulate_routing(girg.graph, full, phi_dfs, s, options);
        expect_same_walk(want_dfs, simulate_routing(girg.graph, cached, phi_dfs, s, options),
                         "phi-dfs " + where);
        wakes += want_dfs.telemetry.wakes;
        ++dfs_walks;
    }
    EXPECT_GT(dfs_walks, 32u);
    EXPECT_GT(hub_wakes, 64u) << "the walks must cross hub rows";
    EXPECT_GT(cached.decided_holders(), 0u);
    EXPECT_LT(2 * cached.decided_holders(), wakes) << "most wakes must reuse a decision";
}

/// Only the holder's own row of girg.graph is remembered, at any degree: an
/// advertised row (phantom links added), a residual row (dead links taken
/// out) and a pack's rows are decided afresh every time, whichever comes
/// first, and so are the walks of an active regime.
TEST(DecisionCache, RemembersOnlyTheHoldersOwnRows) {
    const Girg girg = generate_girg(standard(1 << 14), 4201);
    const Vertex target = 777;
    const FullScanObjective full(std::make_unique<GirgObjective>(girg, target));
    std::vector<Vertex> holders;
    for (Vertex v = 0; v < girg.num_vertices() && holders.size() < 40; v += 13) {
        if (v != target && girg.graph.degree(v) >= 2) holders.push_back(v);
    }
    for (Vertex v = 0; v < girg.num_vertices(); ++v) {
        if (girg.graph.degree(v) >= HubRowSummary::kMinDegree) holders.push_back(v);
    }
    std::size_t short_rows = 0;
    for (const Vertex holder : holders) {
        const std::span<const Vertex> own = girg.graph.neighbors(holder);
        if (own.size() < HubRowSummary::kMinDegree) ++short_rows;
        // Advertised: the row plus a phantom link to the target, which wins.
        std::vector<Vertex> advertised(own.begin(), own.end());
        advertised.insert(std::upper_bound(advertised.begin(), advertised.end(), target),
                          target);
        // Residual: the row without its best entry.
        const BestNeighbor best = full.best_above(holder, own, -kInf);
        std::vector<Vertex> residual;
        for (const Vertex u : own) {
            if (u != best.vertex) residual.push_back(u);
        }
        const std::vector<Vertex> copy(own.begin(), own.end());
        const std::vector<std::span<const Vertex>> others{advertised, residual, copy};
        const double floor = full.value(holder);
        for (const bool own_first : {true, false}) {
            const GirgObjective objective(girg, target);
            const auto check = [&](std::span<const Vertex> row, const char* which) {
                for (const double f : {-kInf, floor}) {
                    const BestNeighbor want = full.best_above(holder, row, f);
                    const BestNeighbor got = objective.best_above(holder, row, f);
                    EXPECT_EQ(got.vertex, want.vertex) << which << " row of " << holder;
                    EXPECT_EQ(bits(got.value), bits(want.value)) << which << " row of " << holder;
                }
            };
            if (own_first) check(own, "own");
            for (const std::span<const Vertex> row : others) check(row, "other");
            EXPECT_EQ(objective.decided_holders(), own_first ? 1u : 0u) << holder;
            check(own, "own");
            EXPECT_EQ(objective.decided_holders(), 1u) << holder;
        }
    }
    EXPECT_GT(short_rows, 30u);

    // Walks whose rows are not girg.graph's: a raw pack's mmap'd rows, a
    // fault plan's residual rows, an adversary's claimed objective.
    const std::string path = ::testing::TempDir() + std::to_string(::getpid()) + "_cache.girgpack";
    (void)write_girg_pack(path, girg, {false, 4201});
    const PackedGraph pack(path);
    FaultPlan plan;
    plan.seed = 4202;
    plan.link_failure_prob = 0.05;
    const FaultState faults(girg.graph, plan);
    AdversaryPlan liars;
    liars.seed = 4203;
    liars.byzantine_fraction = 0.05;
    liars.weight_lie_factor = 4.0;
    const AdversaryState adversary(girg.graph, liars, girg.weights);
    const DistributedGreedy greedy;
    Rng rng(4204);
    const GirgObjective objective(girg, target);
    for (int i = 0; i < 64; ++i) {
        const auto s = static_cast<Vertex>(rng.uniform_index(girg.num_vertices()));
        expect_same_walk(simulate_routing(girg.graph, full, greedy, s),
                         simulate_routing(pack.view(), objective, greedy, s), "pack");
        RoutingOptions faulted;
        faulted.faults = &faults;
        expect_same_walk(simulate_routing(girg.graph, full, greedy, s, faulted),
                         simulate_routing(girg.graph, objective, greedy, s, faulted), "faults");
        RoutingOptions lied;
        lied.adversary = &adversary;
        expect_same_walk(simulate_routing(girg.graph, full, greedy, s, lied),
                         simulate_routing(girg.graph, objective, greedy, s, lied), "liars");
    }
    EXPECT_EQ(objective.decided_holders(), 0u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace smallworld
