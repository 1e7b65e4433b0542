// Format tests for the `.girgpack` binary graph format (graph/packed_graph.h
// + girg/pack_io.h): golden-reference header digests, round-trip
// bit-identity, out-of-core == resident file bytes, corruption death tests,
// and routing-outcome identity between the resident Graph and both mmap
// variants across every router and the distributed simulator at 1/2/8
// threads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/message_history.h"
#include "core/phi_dfs.h"
#include "core/router.h"
#include "core/walk.h"
#include "distributed/protocols.h"
#include "girg/fingerprint.h"
#include "girg/generator.h"
#include "girg/pack_io.h"
#include "graph/edge_stream.h"
#include "graph/packed_graph.h"
#include "random/rng.h"
#include "test_scenarios.h"

namespace smallworld {
namespace {

GirgParams pack_params(double n) {
    GirgParams p;
    p.n = n;
    p.dim = 2;
    p.alpha = 2.0;
    p.beta = 2.5;
    p.wmin = 2.0;
    p.edge_scale = 1.0;
    return p;
}

std::string temp_pack_path(const std::string& name) {
    // Parallel ctest runs each case in its own process but TempDir() is
    // shared; prefix the pid so e.g. the /raw and /compressed instances of a
    // parametrized case never race on the same file. A death test's child
    // runs its test again from the top and dies before any cleanup, so it
    // takes its parent's pid: it rewrites the parent's file with the same
    // bytes, and the parent removes it.
    const pid_t owner = ::testing::internal::InDeathTestChild() ? ::getppid() : ::getpid();
    return ::testing::TempDir() + std::to_string(owner) + "_" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

// ------------------------------------------------------------- golden table

// Pinned digests of the frozen v1 format: (params, seed, variant) ->
// (fingerprint, file bytes, adjacency bytes). Any change to the header
// layout, section order, varint coding or the canonical fingerprint breaks
// these EXACT numbers — that is the point: the format is frozen at v1 and
// existing packs must keep opening. Regenerating the table requires a
// version bump and a written compatibility note in DESIGN.md §13.
struct GoldenPack {
    double n;
    std::uint64_t seed;
    bool compress;
    std::uint64_t fingerprint;
    std::uint64_t file_bytes;
    std::uint64_t adjacency_bytes;
};

constexpr GoldenPack kGoldenPacks[] = {
    {500.0, 3, false, 17610046134154158445ULL, 179192, 163608},
    {500.0, 3, true, 17610046134154158445ULL, 60363, 44755},
    {2000.0, 7, false, 15246913765923801810ULL, 865096, 801704},
    {2000.0, 7, true, 15246913765923801810ULL, 286501, 223085},
};

TEST(PackGolden, CommittedDigestsAndSizes) {
    for (const GoldenPack& golden : kGoldenPacks) {
        const Girg girg = generate_girg(pack_params(golden.n), golden.seed);
        const std::string path = temp_pack_path("golden.girgpack");
        const PackFileInfo info =
            write_girg_pack(path, girg, {golden.compress, golden.seed});
        EXPECT_EQ(info.fingerprint, golden.fingerprint)
            << "n=" << golden.n << " seed=" << golden.seed;
        EXPECT_EQ(info.file_bytes, golden.file_bytes)
            << "n=" << golden.n << " compress=" << golden.compress;
        EXPECT_EQ(info.adjacency_bytes, golden.adjacency_bytes)
            << "n=" << golden.n << " compress=" << golden.compress;
        // The file on disk agrees with what the writer reported, and the
        // mapped header round-trips every digest.
        EXPECT_EQ(read_file(path).size(), golden.file_bytes);
        const PackedGraph pack(path);
        EXPECT_EQ(pack.fingerprint(), golden.fingerprint);
        EXPECT_EQ(pack.file_bytes(), golden.file_bytes);
        EXPECT_EQ(pack.info().adjacency_bytes, golden.adjacency_bytes);
        std::remove(path.c_str());
    }
}

TEST(PackGolden, CompressionShrinksMortonLocalizedRows) {
    // The committed numbers above already pin the exact ratio; this spells
    // out the claim: delta-varint rows over Morton-relabeled CSR cut the
    // adjacency bytes by at least 2x.
    EXPECT_GE(static_cast<double>(kGoldenPacks[0].adjacency_bytes),
              2.0 * static_cast<double>(kGoldenPacks[1].adjacency_bytes));
    EXPECT_GE(static_cast<double>(kGoldenPacks[2].adjacency_bytes),
              2.0 * static_cast<double>(kGoldenPacks[3].adjacency_bytes));
}

// --------------------------------------------------------------- round trip

class PackRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(PackRoundTrip, EveryRowAndAttributeBitIdentical) {
    const bool compress = GetParam();
    const Girg girg = generate_girg(pack_params(900), 11);
    const std::string path = temp_pack_path("roundtrip.girgpack");
    const PackFileInfo info = write_girg_pack(path, girg, {compress, 11});

    const PackedGraph pack(path);
    EXPECT_EQ(pack.compressed(), compress);
    ASSERT_EQ(pack.num_vertices(), girg.num_vertices());
    EXPECT_EQ(pack.num_edges(), girg.graph.num_edges());
    EXPECT_EQ(pack.fingerprint(), girg_fingerprint(girg));
    EXPECT_EQ(info.fingerprint, girg_fingerprint(girg));
    pack.verify();

    // Attributes: bit-identical doubles, not approximately equal.
    ASSERT_EQ(pack.weights().size(), girg.weights.size());
    for (std::size_t i = 0; i < girg.weights.size(); ++i) {
        EXPECT_EQ(pack.weights()[i], girg.weights[i]);
    }
    ASSERT_EQ(pack.coords().size(), girg.positions.coords.size());
    for (std::size_t i = 0; i < girg.positions.coords.size(); ++i) {
        EXPECT_EQ(pack.coords()[i], girg.positions.coords[i]);
    }
    EXPECT_EQ(pack.dim(), girg.params.dim);

    // Params round-trip through the packed struct.
    const GirgParams params = from_packed_params(pack.params());
    EXPECT_EQ(params.n, girg.params.n);
    EXPECT_EQ(params.alpha, girg.params.alpha);
    EXPECT_EQ(params.beta, girg.params.beta);
    EXPECT_EQ(params.wmin, girg.params.wmin);
    EXPECT_EQ(params.edge_scale, girg.params.edge_scale);
    EXPECT_EQ(pack.params().seed, 11u);

    // Every adjacency row decodes to exactly the resident row.
    NeighborScratch scratch;
    const GraphView view = pack.view(scratch);
    EXPECT_EQ(view.flat(), !compress);
    for (Vertex v = 0; v < girg.num_vertices(); ++v) {
        const auto expected = girg.graph.neighbors(v);
        const auto actual = view.neighbors(v);
        ASSERT_EQ(actual.size(), expected.size()) << "row " << v;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(actual[i], expected[i]) << "row " << v << " slot " << i;
        }
    }

    // And the attribute side rehydrates into a Girg the objectives accept.
    const Girg loaded = load_pack_attributes(pack);
    EXPECT_EQ(loaded.weights, girg.weights);
    EXPECT_EQ(loaded.positions.coords, girg.positions.coords);
    EXPECT_EQ(loaded.positions.dim, girg.positions.dim);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, PackRoundTrip, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "compressed" : "raw";
                         });

// Empty rows have no storage to write: a zero-byte write must not hand
// fwrite a null pointer (which the compressed writer's still-unallocated
// encode buffer and an edgeless raw adjacency both are), and an empty row
// must read back empty.
class PackIsolatedVertices : public ::testing::TestWithParam<bool> {};

/// n = 8 with vertices 0, 1, 4 and 7 isolated — empty rows at the front, in
/// the middle and at the end — or, without edges, every vertex isolated.
Girg isolated_girg(bool with_edges) {
    Girg girg;
    girg.params = pack_params(8);
    girg.positions.dim = 2;
    for (Vertex v = 0; v < 8; ++v) {
        girg.weights.push_back(2.0 + v);
        girg.positions.coords.push_back(0.125 * v);
        girg.positions.coords.push_back(0.5);
    }
    std::vector<Edge> edges;
    if (with_edges) edges = {{2, 3}, {3, 5}, {2, 6}, {5, 6}};
    girg.graph = Graph(8, edges);
    return girg;
}

TEST_P(PackIsolatedVertices, EmptyRowsRoundTrip) {
    const bool compress = GetParam();
    for (const bool with_edges : {false, true}) {
        SCOPED_TRACE(with_edges ? "isolated vertices among edges" : "no edges at all");
        const Girg girg = isolated_girg(with_edges);
        const std::string path = temp_pack_path("isolated.girgpack");
        (void)write_girg_pack(path, girg, {compress, 3});

        const PackedGraph pack(path);
        pack.verify();
        EXPECT_EQ(pack.fingerprint(), girg_fingerprint(girg));
        EXPECT_EQ(pack.num_edges(), girg.graph.num_edges());
        NeighborScratch scratch;
        const GraphView view = pack.view(scratch);
        for (Vertex v = 0; v < girg.num_vertices(); ++v) {
            const auto expected = girg.graph.neighbors(v);
            const auto actual = view.neighbors(v);
            EXPECT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin(),
                                   expected.end()))
                << "row " << v;
        }
        const Girg loaded = load_pack_attributes(pack);
        EXPECT_EQ(loaded.weights, girg.weights);
        EXPECT_EQ(loaded.positions.coords, girg.positions.coords);
        std::remove(path.c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, PackIsolatedVertices, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "compressed" : "raw";
                         });

TEST(PackRoundTrip, AttributeSectionsReadBackAfterTheirPagesAreReleased) {
    // load_pack_attributes drops the resident pages behind the sections it
    // copied (48 KB of weights, 96 KB of positions: whole pages); the
    // private read-only mapping re-faults the same bytes on the next read.
    const Girg girg = generate_girg(pack_params(6000), 17);
    const std::string path = temp_pack_path("release.girgpack");
    (void)write_girg_pack(path, girg, {false, 17});
    const PackedGraph pack(path);
    const Girg loaded = load_pack_attributes(pack);
    EXPECT_EQ(loaded.weights, girg.weights);
    EXPECT_EQ(loaded.positions.coords, girg.positions.coords);
    const auto weights = pack.weights();
    const auto coords = pack.coords();
    EXPECT_TRUE(std::equal(weights.begin(), weights.end(), loaded.weights.begin(),
                           loaded.weights.end()));
    EXPECT_TRUE(std::equal(coords.begin(), coords.end(), loaded.positions.coords.begin(),
                           loaded.positions.coords.end()));
    std::remove(path.c_str());
}

TEST(PackRoundTrip, WriterIsDeterministic) {
    const Girg girg = generate_girg(pack_params(600), 5);
    const std::string path_a = temp_pack_path("det_a.girgpack");
    const std::string path_b = temp_pack_path("det_b.girgpack");
    (void)write_girg_pack(path_a, girg, {true, 5});
    (void)write_girg_pack(path_b, girg, {true, 5});
    EXPECT_EQ(read_file(path_a), read_file(path_b));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

// -------------------------------------------------------------- out of core

class PackOutOfCore : public ::testing::TestWithParam<bool> {};

TEST_P(PackOutOfCore, FileBytesMatchResidentBuild) {
    // The out-of-core row build must hit the exact bytes the resident
    // CSR path writes: same RNG consumption, same Morton relabeling, same
    // rows, same digests — the whole point of extracting the generator's
    // attribute/edge-stream internals.
    const bool compress = GetParam();
    const GirgParams params = pack_params(1200);
    const std::uint64_t seed = 19;

    const std::string resident_path = temp_pack_path("resident.girgpack");
    const Girg girg = generate_girg(params, seed);
    (void)write_girg_pack(resident_path, girg, {compress, seed});

    const std::string ooc_path = temp_pack_path("ooc.girgpack");
    PackOptions options;
    options.compress = compress;
    const PackBuildStats stats = pack_girg_out_of_core(ooc_path, params, seed, {}, options);
    EXPECT_EQ(stats.num_vertices, girg.num_vertices());
    EXPECT_EQ(stats.file.fingerprint, girg_fingerprint(girg));
    EXPECT_GE(stats.sampled_arcs, stats.file.num_arcs);

    EXPECT_EQ(read_file(ooc_path), read_file(resident_path)) << "compress=" << compress;
    std::remove(resident_path.c_str());
    std::remove(ooc_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, PackOutOfCore, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "compressed" : "raw";
                         });

/// A chunk stream holding `edges` in order, cut into several producer
/// sinks the way the sampler's tasks emit them.
ChunkedEdgeList chunk_stream(const std::vector<Edge>& edges) {
    auto arena = std::make_shared<EdgeArena>();
    ChunkedEdgeList stream(arena);
    constexpr std::size_t kPerSink = 97;
    for (std::size_t begin = 0; begin < edges.size(); begin += kPerSink) {
        ChunkedEdgeSink sink(arena);
        const std::size_t end = std::min(edges.size(), begin + kPerSink);
        for (std::size_t i = begin; i < end; ++i) sink.emit(edges[i].first, edges[i].second);
        stream.splice(sink.take());
    }
    return stream;
}

/// Hand-built multigraph on n = 900: isolated vertices first, in the middle
/// and last; a hub whose degree exceeds a 2^8-arc budget; random edges
/// elsewhere; plus self-loops and duplicate edges in both orientations.
std::vector<Edge> range_build_edges() {
    const auto isolated = [](Vertex v) {
        return v < 5 || (v >= 450 && v < 460) || v >= 890;
    };
    std::vector<Edge> edges;
    Rng rng(2020);
    const auto random_vertex = [&] {
        Vertex v = 0;
        do {
            v = static_cast<Vertex>(rng.uniform_index(900));
        } while (isolated(v));
        return v;
    };
    for (Vertex v = 5; v < 890; v += 2) {
        if (!isolated(v) && v != 100) edges.emplace_back(100, v);  // hub degree > 256
    }
    for (int i = 0; i < 3000; ++i) edges.emplace_back(random_vertex(), random_vertex());
    for (int i = 0; i < 40; ++i) {
        const Vertex v = random_vertex();
        edges.emplace_back(v, v);  // self-loop
    }
    for (std::size_t i = 0; i < 400; i += 7) {
        edges.emplace_back(edges[i].second, edges[i].first);  // reversed duplicate
        edges.push_back(edges[i + 1]);                        // exact duplicate
    }
    return edges;
}

TEST(PackOutOfCore, SpilledRunsMergeToTheSameBytes) {
    // The row build under a tiny budget: many ranges, a hub that gets a
    // range of its own, isolated vertices at both ends and in the middle,
    // self-loops and duplicates. Every file must be byte-identical to
    // write_girg_pack of the resident Graph built from the same stream.
    constexpr std::size_t kBudget = std::size_t{1} << 8;
    struct Case {
        Vertex n;
        std::vector<Edge> edges;
    };
    const std::vector<Case> cases = {
        {900, range_build_edges()},
        {40, {}},                            // edgeless
        {40, {{3, 3}, {17, 17}, {39, 39}}},  // self-loops only
    };
    for (const Case& c : cases) {
        Girg girg;
        girg.params = pack_params(static_cast<double>(c.n));
        girg.weights.assign(c.n, girg.params.wmin);
        girg.positions.dim = girg.params.dim;
        Rng rng(c.n);
        for (std::size_t k = 0; k < 2 * static_cast<std::size_t>(c.n); ++k) {
            girg.positions.coords.push_back(rng.uniform());
        }
        girg.graph = Graph(c.n, chunk_stream(c.edges));
        if (c.n == 900) {
            ASSERT_GT(girg.graph.degree(100), kBudget);
            ASSERT_TRUE(girg.graph.neighbors(0).empty());
            ASSERT_TRUE(girg.graph.neighbors(455).empty());
            ASSERT_TRUE(girg.graph.neighbors(899).empty());
        }
        for (const bool compress : {false, true}) {
            const std::string direct_path = temp_pack_path("direct.girgpack");
            (void)write_girg_pack(direct_path, girg, {compress, 23});
            const std::vector<std::uint8_t> direct = read_file(direct_path);
            std::remove(direct_path.c_str());
            for (const unsigned threads : {1U, 2U, 8U}) {
                const std::string ranged_path = temp_pack_path("ranged.girgpack");
                PackWriter writer(ranged_path, c.n, to_packed_params(girg.params, 23),
                                  girg.weights, girg.positions.coords, compress);
                const RowBuildStats stats = build_rows(
                    c.n, chunk_stream(c.edges), threads,
                    [&](std::span<const Vertex> row) { writer.add_row(row); }, kBudget);
                (void)writer.finish();
                const auto loops = std::count_if(c.edges.begin(), c.edges.end(),
                                                 [](const Edge& e) { return e.first == e.second; });
                EXPECT_EQ(stats.arcs, 2 * (c.edges.size() - static_cast<std::size_t>(loops)));
                if (c.n == 900) {
                    EXPECT_GE(stats.ranges, 10U);
                } else {
                    EXPECT_EQ(stats.ranges, 1U);
                }
                EXPECT_EQ(read_file(ranged_path), direct)
                    << "n=" << c.n << " compress=" << compress << " threads=" << threads;
                std::remove(ranged_path.c_str());
            }
        }
    }
}

// --------------------------------------------------------------- corruption

using PackDeathTest = ::testing::Test;

std::string write_corrupt_copy(const std::string& name,
                               const std::function<void(std::vector<std::uint8_t>&)>& mutate,
                               bool compress = false) {
    const Girg girg = generate_girg(pack_params(300), 2);
    const std::string path = temp_pack_path(name);
    (void)write_girg_pack(path, girg, {compress, 2});
    std::vector<std::uint8_t> bytes = read_file(path);
    mutate(bytes);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.close();
    return path;
}

TEST(PackDeathTest, TruncatedFileIsRejected) {
    const std::string path = write_corrupt_copy(
        "truncated.girgpack",
        [](std::vector<std::uint8_t>& bytes) { bytes.resize(bytes.size() / 2); });
    EXPECT_DEATH({ PackedGraph pack(path); }, "truncated");
    std::remove(path.c_str());
}

TEST(PackDeathTest, HeaderOnlyFileIsRejected) {
    const std::string path = write_corrupt_copy(
        "header_only.girgpack",
        [](std::vector<std::uint8_t>& bytes) { bytes.resize(sizeof(PackHeader) - 8); });
    EXPECT_DEATH({ PackedGraph pack(path); }, "truncated");
    std::remove(path.c_str());
}

TEST(PackDeathTest, CorruptMagicIsRejected) {
    const std::string path = write_corrupt_copy(
        "badmagic.girgpack", [](std::vector<std::uint8_t>& bytes) { bytes[0] = 'X'; });
    EXPECT_DEATH({ PackedGraph pack(path); }, "magic");
    std::remove(path.c_str());
}

TEST(PackDeathTest, WrongVersionIsRejected) {
    const std::string path = write_corrupt_copy(
        "badversion.girgpack", [](std::vector<std::uint8_t>& bytes) {
            bytes[10] = 0x7F;  // PackHeader::version low byte (offset 10)
        });
    EXPECT_DEATH({ PackedGraph pack(path); }, "version");
    std::remove(path.c_str());
}

TEST(PackDeathTest, WrongEndiannessIsRejected) {
    const std::string path = write_corrupt_copy(
        "badendian.girgpack", [](std::vector<std::uint8_t>& bytes) {
            // Byte-swap the endian tag (offset 8): a big-endian writer's
            // 0x0102 reads back as 0x0201 here.
            std::swap(bytes[8], bytes[9]);
        });
    EXPECT_DEATH({ PackedGraph pack(path); }, "endian");
    std::remove(path.c_str());
}

TEST(PackDeathTest, CorruptAdjacencyFailsDeepVerify) {
    // Open-time validation never reads the adjacency, so a flipped neighbor
    // id inside it only dies in verify() — the deep scan exists exactly for
    // this.
    const std::string path = write_corrupt_copy(
        "badrow.girgpack", [](std::vector<std::uint8_t>& bytes) {
            bytes[bytes.size() - 2] = 0xFF;  // clobber the last raw arc
            bytes[bytes.size() - 1] = 0xFF;
        });
    const PackedGraph pack(path);
    EXPECT_DEATH(pack.verify(), "row");
    std::remove(path.c_str());
}

template <class T>
T load(const std::vector<std::uint8_t>& bytes, std::size_t at) {
    T value;
    std::memcpy(&value, bytes.data() + at, sizeof(T));
    return value;
}

template <class T>
void store(std::vector<std::uint8_t>& bytes, std::size_t at, T value) {
    std::memcpy(bytes.data() + at, &value, sizeof(T));
}

/// Byte position of section `kind`'s entry in the section table.
std::size_t entry_at(const std::vector<std::uint8_t>& bytes, PackSection kind) {
    const auto count = load<std::uint32_t>(bytes, offsetof(PackHeader, section_count));
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::size_t at = sizeof(PackHeader) + i * sizeof(PackSectionEntry);
        if (load<std::uint32_t>(bytes, at) == static_cast<std::uint32_t>(kind)) return at;
    }
    ADD_FAILURE() << "no section " << static_cast<int>(kind);
    return 0;
}

/// Byte position of section `kind`'s contents.
std::size_t section_at(const std::vector<std::uint8_t>& bytes, PackSection kind) {
    return load<std::uint64_t>(bytes, entry_at(bytes, kind) + offsetof(PackSectionEntry, offset));
}

TEST(PackDeathTest, UnderstatedMaxDegreeIsRejectedAtOpen) {
    // A decode buffer is sized to the header's max_degree, so a longer row
    // would be decoded past its end.
    const std::string path = write_corrupt_copy(
        "short_max_degree.girgpack",
        [](std::vector<std::uint8_t>& bytes) {
            const std::size_t at = offsetof(PackHeader, max_degree);
            store(bytes, at, load<std::uint32_t>(bytes, at) - 1);
        },
        true);
    EXPECT_DEATH({ PackedGraph pack(path); }, "max_degree");
    std::remove(path.c_str());
}

TEST(PackDeathTest, NonMonotoneOffsetsAreRejectedAtOpen) {
    // Row 1 would start past where row 2 starts, and a row's span would
    // reach outside the adjacency section.
    const std::string path = write_corrupt_copy(
        "nonmonotone.girgpack", [](std::vector<std::uint8_t>& bytes) {
            const std::size_t at = section_at(bytes, PackSection::kOffsets);
            store(bytes, at + 8, load<std::uint64_t>(bytes, at + 16) + 1);
        });
    EXPECT_DEATH({ PackedGraph pack(path); }, "not monotone");
    std::remove(path.c_str());
}

TEST(PackDeathTest, EmptyPackWithPositionsIsRejectedAtOpen) {
    // n = 0 with a non-empty positions section: the size check must not
    // divide by n.
    const std::string path = write_corrupt_copy(
        "empty_with_positions.girgpack", [](std::vector<std::uint8_t>& bytes) {
            store(bytes, offsetof(PackHeader, num_vertices), std::uint64_t{0});
            store(bytes, offsetof(PackHeader, num_arcs), std::uint64_t{0});
            store(bytes, offsetof(PackHeader, max_degree), std::uint32_t{0});
            const std::size_t bytes_field = offsetof(PackSectionEntry, bytes);
            store(bytes, entry_at(bytes, PackSection::kOffsets) + bytes_field, std::uint64_t{8});
            store(bytes, entry_at(bytes, PackSection::kAdjacencyRaw) + bytes_field,
                  std::uint64_t{0});
            store(bytes, entry_at(bytes, PackSection::kWeights) + bytes_field, std::uint64_t{0});
        });
    EXPECT_DEATH({ PackedGraph pack(path); }, "positions");
    std::remove(path.c_str());
}

TEST(PackDeathTest, WrappingSectionBoundsAreRejectedAtOpen) {
    // offset + bytes wraps past 2^64 to below the file size.
    const std::string path = write_corrupt_copy(
        "wrapping.girgpack", [](std::vector<std::uint8_t>& bytes) {
            store(bytes,
                  entry_at(bytes, PackSection::kPositions) + offsetof(PackSectionEntry, bytes),
                  ~std::uint64_t{7});
        });
    EXPECT_DEATH({ PackedGraph pack(path); }, "out of bounds");
    std::remove(path.c_str());
}

TEST(PackDeathTest, EndlessVarintFailsDeepVerify) {
    // Every byte of the longest block has its continuation bit set: the
    // first varint neither ends inside the block nor within 5 bytes.
    const std::string path = write_corrupt_copy(
        "endless_varint.girgpack",
        [](std::vector<std::uint8_t>& bytes) {
            const std::size_t index = section_at(bytes, PackSection::kBlobIndex);
            const std::size_t blob = section_at(bytes, PackSection::kAdjacencyBlob);
            const auto n = load<std::uint64_t>(bytes, offsetof(PackHeader, num_vertices));
            std::uint64_t longest = 0;
            for (std::uint64_t v = 1; v < n; ++v) {
                const auto size = [&](std::uint64_t u) {
                    return load<std::uint64_t>(bytes, index + 8 * (u + 1)) -
                           load<std::uint64_t>(bytes, index + 8 * u);
                };
                if (size(v) > size(longest)) longest = v;
            }
            const auto begin = load<std::uint64_t>(bytes, index + 8 * longest);
            const auto end = load<std::uint64_t>(bytes, index + 8 * (longest + 1));
            ASSERT_GE(end - begin, 6U);
            std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(blob + begin),
                      bytes.begin() + static_cast<std::ptrdiff_t>(blob + end), 0xFF);
        },
        true);
    const PackedGraph pack(path);
    EXPECT_DEATH(pack.verify(), "varint");
    std::remove(path.c_str());
}

TEST(PackDeathTest, FingerprintMismatchFailsDeepVerify) {
    // The last mantissa bit of the first weight: every structural check
    // passes, and only the header fingerprint tells.
    const std::string path = write_corrupt_copy(
        "fingerprint.girgpack", [](std::vector<std::uint8_t>& bytes) {
            bytes[section_at(bytes, PackSection::kWeights)] ^= 1;
        });
    const PackedGraph pack(path);
    EXPECT_DEATH(pack.verify(), "fingerprint");
    std::remove(path.c_str());
}

TEST(PackDeathTest, AttributesOutsideTheModelAreRejectedOnLoad) {
    // The checks read_girg runs on a text instance: weights at least wmin
    // (2 here), coordinates inside the torus.
    const std::string light = write_corrupt_copy(
        "light_weight.girgpack", [](std::vector<std::uint8_t>& bytes) {
            store(bytes, section_at(bytes, PackSection::kWeights), 1.0);
        });
    const PackedGraph light_pack(light);
    EXPECT_DEATH((void)load_pack_attributes(light_pack), "wmin");
    const std::string outside = write_corrupt_copy(
        "nan_coordinate.girgpack", [](std::vector<std::uint8_t>& bytes) {
            store(bytes, section_at(bytes, PackSection::kPositions),
                  std::numeric_limits<double>::quiet_NaN());
        });
    const PackedGraph outside_pack(outside);
    EXPECT_DEATH((void)load_pack_attributes(outside_pack), "torus");
    std::remove(light.c_str());
    std::remove(outside.c_str());
}

// ------------------------------------------------------------------ routing

using RouterFactory = std::unique_ptr<Router> (*)();

std::unique_ptr<Router> make_greedy() { return std::make_unique<GreedyRouter>(); }
std::unique_ptr<Router> make_phi_dfs() { return std::make_unique<PhiDfsRouter>(); }
std::unique_ptr<Router> make_gravity() {
    return std::make_unique<GravityPressureRouter>();
}
std::unique_ptr<Router> make_history() {
    return std::make_unique<MessageHistoryRouter>();
}
std::unique_ptr<Router> make_faulty() {
    // Greedy under an active link plan: its per-epoch choice among available
    // links reads rows through the regime. The coins are keyed by (route
    // seed, edge, epoch), never by the view, so all three variants agree.
    return std::make_unique<testing::PlannedRouter>(make_greedy(),
                                                    testing::link_failure_plan(0.3, 1, 2));
}

constexpr RouterFactory kAllRouters[] = {make_greedy, make_phi_dfs, make_gravity,
                                         make_history, make_faulty};

struct PackFixture {
    Girg girg;                     // resident reference instance
    PackedGraph raw;               // mmap, zero-copy rows
    PackedGraph compressed;        // mmap, delta-varint rows
    std::string raw_path;
    std::string compressed_path;

    explicit PackFixture(double n = 700, std::uint64_t seed = 31)
        : girg(generate_girg(pack_params(n), seed)),
          raw_path(temp_pack_path("route_raw.girgpack")),
          compressed_path(temp_pack_path("route_c.girgpack")) {
        (void)write_girg_pack(raw_path, girg, {false, seed});
        (void)write_girg_pack(compressed_path, girg, {true, seed});
        raw = PackedGraph(raw_path);
        compressed = PackedGraph(compressed_path);
    }
    ~PackFixture() {
        std::remove(raw_path.c_str());
        std::remove(compressed_path.c_str());
    }
};

std::vector<std::pair<Vertex, Vertex>> sample_pairs(const Girg& girg, std::size_t count) {
    // Deterministic spread of (source, target) pairs across the id range.
    std::vector<std::pair<Vertex, Vertex>> pairs;
    const auto n = static_cast<std::uint64_t>(girg.num_vertices());
    for (std::size_t i = 0; i < count; ++i) {
        const auto s = static_cast<Vertex>((i * 2654435761ULL + 17) % n);
        const auto t = static_cast<Vertex>((i * 40503ULL + n / 2) % n);
        if (s != t) pairs.emplace_back(s, t);
    }
    return pairs;
}

TEST(PackRouting, AllRoutersIdenticalOnBothVariants) {
    const PackFixture fx;
    const auto pairs = sample_pairs(fx.girg, 24);
    NeighborScratch scratch;
    const GraphView raw_view = fx.raw.view();
    const GraphView compressed_view = fx.compressed.view(scratch);

    std::size_t retries = 0;
    for (const RouterFactory factory : kAllRouters) {
        const auto router = factory();
        for (const auto& [s, t] : pairs) {
            const GirgObjective objective(fx.girg, t);
            const RoutingResult resident = router->route(fx.girg.graph, objective, s);
            const RoutingResult via_raw = router->route(raw_view, objective, s);
            const RoutingResult via_blob = router->route(compressed_view, objective, s);
            EXPECT_EQ(via_raw.status, resident.status) << router->name();
            EXPECT_EQ(via_raw.path, resident.path) << router->name() << " s=" << s;
            EXPECT_EQ(via_raw.retries, resident.retries) << router->name() << " s=" << s;
            EXPECT_EQ(via_blob.status, resident.status) << router->name();
            EXPECT_EQ(via_blob.path, resident.path) << router->name() << " s=" << s;
            EXPECT_EQ(via_blob.retries, resident.retries) << router->name() << " s=" << s;
            retries += resident.retries;
        }
    }
    // The link plan is live on these pairs: some send waited out an outage.
    EXPECT_GT(retries, 0u);
}

TEST(PackRouting, DistributedSimulatorIdenticalOnBothVariants) {
    const PackFixture fx;
    const auto pairs = sample_pairs(fx.girg, 12);
    NeighborScratch scratch;
    const GraphView raw_view = fx.raw.view();
    const GraphView compressed_view = fx.compressed.view(scratch);

    const DistributedGreedy greedy;
    const DistributedPhiDfs phi_dfs;
    for (const DistributedProtocol* protocol :
         {static_cast<const DistributedProtocol*>(&greedy),
          static_cast<const DistributedProtocol*>(&phi_dfs)}) {
        for (const auto& [s, t] : pairs) {
            const GirgObjective objective(fx.girg, t);
            const DistributedResult resident =
                simulate_routing(fx.girg.graph, objective, *protocol, s);
            const DistributedResult via_raw =
                simulate_routing(raw_view, objective, *protocol, s);
            const DistributedResult via_blob =
                simulate_routing(compressed_view, objective, *protocol, s);
            EXPECT_EQ(via_raw.routing.path, resident.routing.path) << protocol->name();
            EXPECT_EQ(via_blob.routing.path, resident.routing.path) << protocol->name();
            EXPECT_EQ(via_raw.telemetry.wakes, resident.telemetry.wakes);
            EXPECT_EQ(via_blob.telemetry.wakes, resident.telemetry.wakes);
        }
    }
}

TEST(PackRouting, CompressedViewsAreThreadSafePerScratch) {
    // The serving claim: T workers route concurrently over ONE mmap'd pack,
    // each with its own NeighborScratch/GraphView, and every outcome is
    // bit-identical to the single-threaded resident run — at 1, 2 and 8
    // threads, raw and compressed.
    const PackFixture fx;
    const auto pairs = sample_pairs(fx.girg, 32);

    // Single-threaded resident reference.
    std::vector<std::vector<Vertex>> expected;
    const PhiDfsRouter router;
    for (const auto& [s, t] : pairs) {
        const GirgObjective objective(fx.girg, t);
        expected.push_back(router.route(fx.girg.graph, objective, s).path);
    }

    for (const bool compressed : {false, true}) {
        const PackedGraph& pack = compressed ? fx.compressed : fx.raw;
        for (const unsigned threads : {1u, 2u, 8u}) {
            std::vector<std::vector<Vertex>> actual(pairs.size());
            std::vector<std::thread> workers;
            for (unsigned w = 0; w < threads; ++w) {
                workers.emplace_back([&, w] {
                    NeighborScratch scratch;  // thread-private decode buffer
                    const GraphView view = pack.view(scratch);
                    for (std::size_t i = w; i < pairs.size(); i += threads) {
                        const GirgObjective objective(fx.girg, pairs[i].second);
                        actual[i] = router.route(view, objective, pairs[i].first).path;
                    }
                });
            }
            for (std::thread& worker : workers) worker.join();
            EXPECT_EQ(actual, expected)
                << "compressed=" << compressed << " threads=" << threads;
        }
    }
}

TEST(PackRouting, RawViewRequiresNoScratch) {
    const PackFixture fx(300, 13);
    const GraphView view = fx.raw.view();  // no-scratch overload: raw only
    EXPECT_TRUE(view.flat());
    EXPECT_EQ(view.num_vertices(), fx.girg.num_vertices());
    EXPECT_DEATH((void)fx.compressed.view(), "scratch");
}

}  // namespace
}  // namespace smallworld
