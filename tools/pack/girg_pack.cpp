// girg-pack: command-line front end for the `.girgpack` binary graph format
// (graph/packed_graph.h, DESIGN.md §13).
//
//   girg-pack generate --n 1048576 --beta 2.5 --alpha 2 --dim 2 --wmin 2
//                      --seed 1 --out girg.pack [--compress 1] [--resident 1]
//   girg-pack convert  --in girg.txt --out girg.pack [--compress 1]
//   girg-pack verify   --in girg.pack
//   girg-pack info     --in girg.pack
//
// `generate` builds the pack out-of-core by default (range passes over the
// sampled edge stream into the writer; no resident CSR and no temporary
// files); `--resident 1` forces the in-memory pipeline — both produce
// byte-identical files. `convert` ingests the text format of girg/io.h. `verify` runs the
// deep structural scan and recomputes the fingerprint from the mapped
// attribute and adjacency sections. `info` prints the header and section
// table without touching the adjacency.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "girg/generator.h"
#include "girg/io.h"
#include "girg/pack_io.h"
#include "graph/packed_graph.h"

using namespace smallworld;

namespace {

class Args {
public:
    Args(int argc, char** argv, int first) {
        for (int i = first; i + 1 < argc; i += 2) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                throw std::runtime_error("expected --flag value, got " + key);
            }
            values_[key.substr(2)] = argv[i + 1];
        }
    }

    [[nodiscard]] double number(const std::string& key, double fallback) const {
        const auto it = values_.find(key);
        if (it == values_.end()) return fallback;
        if (it->second == "inf") return kAlphaInfinity;
        return std::stod(it->second);
    }
    [[nodiscard]] std::string text(const std::string& key, std::string fallback) const {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }
    [[nodiscard]] std::string required(const std::string& key) const {
        const auto it = values_.find(key);
        if (it == values_.end()) throw std::runtime_error("missing required --" + key);
        return it->second;
    }

private:
    std::map<std::string, std::string> values_;
};

GirgParams params_from_args(const Args& args) {
    GirgParams params;
    params.n = args.number("n", 1 << 16);
    params.dim = static_cast<int>(args.number("dim", 2));
    params.alpha = args.number("alpha", 2.0);
    params.beta = args.number("beta", 2.5);
    params.wmin = args.number("wmin", 2.0);
    params.norm = args.text("norm", "max") == "l2" ? Norm::kEuclidean : Norm::kMax;
    // "calibrated" picks the Θ-constant that makes E[deg v] = wv — the same
    // operating point the bench sweeps use (bench_common.h standard_params).
    if (args.text("edge-scale", "1") == "calibrated") {
        params.edge_scale = calibrated_edge_scale(params);
    } else {
        params.edge_scale = args.number("edge-scale", 1.0);
    }
    return params;
}

void print_file_info(const PackFileInfo& info, std::uint64_t num_vertices) {
    const double raw_bytes =
        static_cast<double>(sizeof(Vertex)) * static_cast<double>(info.num_arcs);
    std::cout << "  file bytes       " << info.file_bytes << "\n"
              << "  adjacency bytes  " << info.adjacency_bytes << "\n"
              << "  arcs             " << info.num_arcs << "\n"
              << "  vertices         " << num_vertices << "\n"
              << "  max degree       " << info.max_degree << "\n"
              << "  fingerprint      " << info.fingerprint << "\n";
    if (info.adjacency_bytes > 0 && info.num_arcs > 0) {
        std::cout << "  pack ratio       "
                  << raw_bytes / static_cast<double>(info.adjacency_bytes)
                  << "x vs raw CSR arcs\n";
    }
}

int run_generate(const Args& args) {
    const GirgParams params = params_from_args(args);
    const auto seed = static_cast<std::uint64_t>(args.number("seed", 1));
    const std::string out = args.required("out");
    PackOptions options;
    options.compress = args.number("compress", 0) != 0;

    if (args.number("resident", 0) != 0) {
        const Girg girg = generate_girg(params, seed);
        const PackFileInfo info = write_girg_pack(out, girg, {options.compress, seed});
        std::cout << "generated (resident) " << out << "\n";
        print_file_info(info, girg.num_vertices());
    } else {
        const PackBuildStats stats = pack_girg_out_of_core(out, params, seed, {}, options);
        std::cout << "generated (out-of-core, " << stats.row_ranges << " row ranges, "
                  << stats.sampled_arcs << " sampled arcs) " << out << "\n";
        print_file_info(stats.file, stats.num_vertices);
    }
    return 0;
}

int run_convert(const Args& args) {
    const std::string in = args.required("in");
    const std::string out = args.required("out");
    std::ifstream is(in);
    if (!is) throw std::runtime_error("cannot open " + in);
    const Girg girg = read_girg(is);
    PackOptions options;
    options.compress = args.number("compress", 0) != 0;
    options.seed = static_cast<std::uint64_t>(args.number("seed", 0));
    const PackFileInfo info = write_girg_pack(out, girg, options);
    std::cout << "converted " << in << " -> " << out << "\n";
    print_file_info(info, girg.num_vertices());
    return 0;
}

int run_verify(const Args& args) {
    const std::string in = args.required("in");
    const PackedGraph pack(in);
    // Aborts loudly on a structural violation or, when the attribute
    // sections are present, a fingerprint that disagrees with the header.
    pack.verify();
    if (pack.has_attributes()) {
        std::cout << in << ": ok (structure + fingerprint " << pack.fingerprint() << ")\n";
    } else {
        std::cout << in << ": ok (structure; no attribute sections to fingerprint)\n";
    }
    return 0;
}

int run_info(const Args& args) {
    const std::string in = args.required("in");
    const PackedGraph pack(in);
    const PackHeader& header = pack.header();
    std::cout << in << ":\n"
              << "  version          " << header.version << "\n"
              << "  variant          " << (pack.compressed() ? "delta-varint" : "raw") << "\n"
              << "  sections         " << header.section_count << "\n";
    print_file_info(pack.info(), header.num_vertices);
    std::cout << "  avg degree       "
              << static_cast<double>(header.num_arcs) /
                     static_cast<double>(header.num_vertices)
              << "\n";
    if (pack.has_params()) {
        const PackedParams params = pack.params();
        std::cout << "  params           n=" << params.n << " dim=" << params.dim
                  << " alpha=" << params.alpha << " beta=" << params.beta
                  << " wmin=" << params.wmin << " edge_scale=" << params.edge_scale
                  << " norm=" << (params.norm == 1 ? "l2" : "max")
                  << " seed=" << params.seed << "\n";
    }
    return 0;
}

int usage() {
    std::cerr << "usage: girg-pack <generate|convert|verify|info> [--flag value]...\n"
              << "  generate --out P [--n N --beta B --alpha A --dim D --wmin W\n"
              << "           --edge-scale X|calibrated --seed S\n"
              << "           --compress 0|1 --resident 0|1]\n"
              << "  convert  --in girg.txt --out P [--compress 0|1 --seed S]\n"
              << "  verify   --in P\n"
              << "  info     --in P\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    try {
        const Args args(argc, argv, 2);
        if (command == "generate") return run_generate(args);
        if (command == "convert") return run_convert(args);
        if (command == "verify") return run_verify(args);
        if (command == "info") return run_info(args);
        return usage();
    } catch (const std::exception& error) {
        std::cerr << "girg-pack " << command << ": " << error.what() << "\n";
        return 1;
    }
}
