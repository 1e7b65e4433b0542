// Mutation fuzzing of the untrusted-input readers: a small raw pack, a
// compressed pack and a text-v3 file, written from a fixed seed, each
// truncated or bit-flipped many times. Every mutated file is read in a child
// process, one at a time: this binary re-executed with --read-back, which
// opens the pack, verifies it and reads back its rows and attributes
// (read_girg for text). The child must either abort through GIRG_CHECK,
// throw, or read back exactly the rows, weights and coordinates of the
// unmutated file. Any other exit, signal or sanitizer report fails.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "girg/generator.h"
#include "girg/io.h"
#include "girg/pack_io.h"
#include "graph/packed_graph.h"
#include "random/rng.h"

namespace smallworld {
namespace {

constexpr int kThrew = 2;     // the reader threw
constexpr int kDiffered = 3;  // the reader accepted a file that reads back differently

/// What a reader hands a router: every row, the weights and coordinates.
struct Instance {
    std::vector<std::vector<Vertex>> rows;
    std::vector<double> weights;
    std::vector<double> coords;
    bool operator==(const Instance&) const = default;
};

Instance rows_of(const GraphView& graph) {
    Instance out;
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
        const auto row = graph.neighbors(v);
        out.rows.emplace_back(row.begin(), row.end());
    }
    return out;
}

Instance read_back(std::string_view format, const std::string& path) {
    if (format == "text") {
        std::ifstream is(path);
        const Girg girg = read_girg(is);
        Instance out = rows_of(girg.graph);
        out.weights = girg.weights;
        out.coords = girg.positions.coords;
        return out;
    }
    const PackedGraph pack(path);
    pack.verify();
    NeighborScratch scratch;
    Instance out = rows_of(pack.view(scratch));
    const Girg attributes = load_pack_attributes(pack);
    out.weights = attributes.weights;
    out.coords = attributes.positions.coords;
    return out;
}

/// The child: reads `path` and the unmutated `golden` file of `format`.
int read_back_child(std::string_view format, const std::string& path,
                    const std::string& golden) {
    ::alarm(60);  // a reader that hangs dies of SIGALRM, which fails the test
    try {
        return read_back(format, path) == read_back(format, golden) ? 0 : kDiffered;
    } catch (const std::exception&) {
        return kThrew;
    }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

struct Outcome {
    int status = 0;
    std::string stderr_text;
};

/// Runs this binary with --read-back in a child and collects its stderr.
/// The child execs rather than only forking: a forked copy of this process
/// would inherit a shared ThreadPool whose workers it does not have, and
/// read_girg's CSR build would wait for them forever.
Outcome run_child(const std::string& format, const std::string& path,
                  const std::string& golden) {
    int pipe_fds[2];
    EXPECT_EQ(::pipe(pipe_fds), 0);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(pipe_fds[1], STDERR_FILENO);
        const int null_fd = ::open("/dev/null", O_WRONLY);
        ::dup2(null_fd, STDOUT_FILENO);
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        const char* argv[] = {"reader_fuzz_test", "--read-back", format.c_str(), path.c_str(),
                              golden.c_str(), nullptr};
        ::execv("/proc/self/exe", const_cast<char* const*>(argv));
        ::_exit(127);
    }
    ::close(pipe_fds[1]);
    Outcome out;
    char buffer[4096];
    for (ssize_t got; (got = ::read(pipe_fds[0], buffer, sizeof(buffer))) > 0;) {
        out.stderr_text.append(buffer, static_cast<std::size_t>(got));
    }
    ::close(pipe_fds[0]);
    ::waitpid(pid, &out.status, 0);
    return out;
}

/// A truncation, or one to three bit flips, a third of them inside the
/// first 512 bytes (a pack's header, section table and params).
std::string mutate(std::vector<std::uint8_t>& bytes, Rng& rng) {
    if (rng.uniform_index(4) == 0) {
        const std::size_t size = rng.uniform_index(bytes.size());
        bytes.resize(size);
        return "truncated to " + std::to_string(size);
    }
    std::string what = "flipped";
    const std::size_t flips = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t span =
            rng.uniform_index(3) == 0 ? std::min<std::size_t>(512, bytes.size()) : bytes.size();
        const std::size_t at = rng.uniform_index(span);
        const auto bit = static_cast<int>(rng.uniform_index(8));
        bytes[at] ^= static_cast<std::uint8_t>(1U << bit);
        what += " byte " + std::to_string(at) + " bit " + std::to_string(bit);
    }
    return what;
}

TEST(ReaderFuzz, MutatedFilesAbortThrowOrReadBackEqual) {
    GirgParams params;
    params.n = 200;
    params.dim = 2;
    params.alpha = 2.0;
    params.beta = 2.5;
    params.wmin = 2.0;
    params.edge_scale = 1.0;
    const Girg girg = generate_girg(params, 91);
    const std::string prefix = ::testing::TempDir() + std::to_string(::getpid()) + "_fuzz_";
    const std::vector<std::string> formats = {"raw", "compressed", "text"};
    (void)write_girg_pack(prefix + "raw", girg, {false, 91});
    (void)write_girg_pack(prefix + "compressed", girg, {true, 91});
    {
        std::ofstream os(prefix + "text");
        write_girg(os, girg);
    }

    int aborted = 0;
    int threw = 0;
    int equal = 0;
    Rng rng(92);
    for (const std::string& format : formats) {
        const std::string golden = prefix + format;
        const std::string mutated = golden + ".mutated";
        const std::vector<std::uint8_t> bytes = read_file(golden);
        ASSERT_FALSE(bytes.empty());
        for (int trial = 0; trial < 80; ++trial) {
            std::vector<std::uint8_t> copy = bytes;
            std::string what = format + " ";
            if (trial == 0 && format != "text") {
                // A pack's reserved header word is read by nothing: the flip
                // must read back equal.
                copy[offsetof(PackHeader, reserved)] ^= 1;
                what += "flipped the reserved word";
            } else {
                what += mutate(copy, rng);
            }
            write_file(mutated, copy);
            const Outcome got = run_child(format, mutated, golden);
            const bool clean = got.stderr_text.find("Sanitizer") == std::string::npos &&
                               got.stderr_text.find("runtime error") == std::string::npos;
            if (clean && WIFEXITED(got.status) && WEXITSTATUS(got.status) == 0) {
                ++equal;
            } else if (clean && WIFEXITED(got.status) && WEXITSTATUS(got.status) == kThrew) {
                ++threw;
            } else if (clean && WIFSIGNALED(got.status) && WTERMSIG(got.status) == SIGABRT &&
                       got.stderr_text.find("GIRG_CHECK failed") != std::string::npos) {
                ++aborted;
            } else {
                ADD_FAILURE() << what << ": status " << got.status << "\n" << got.stderr_text;
            }
        }
        std::remove(mutated.c_str());
        std::remove(golden.c_str());
    }
    // Both ways of rejecting a file were exercised, and so was reading a
    // mutated file back equal.
    EXPECT_GT(aborted, 0);
    EXPECT_GT(threw, 0);
    EXPECT_GT(equal, 0);
}

}  // namespace
}  // namespace smallworld

int main(int argc, char** argv) {
    if (argc == 5 && std::string_view(argv[1]) == "--read-back") {
        return smallworld::read_back_child(argv[2], argv[3], argv[4]);
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
