// End-to-end benchmark: seed -> sampled edges -> CSR or pack -> opened view
// -> routed and served queries, on four workloads (README.md says why each
// exists). Every layer is measured from outside, by timing calls into its
// public functions.
//
//   bench_e2e --workload W --seed S [--seconds T] [--trace 0|1] [--clients C]
//             [--work-dir D] [--smoke]
//       One workload in this process. Prints METRIC lines, then as its last
//       line one JSON object {correct, attempted, failed, metrics}: the
//       end-to-end metrics, or with --trace 1 the per-layer ones. Exits 1
//       when an output check fails.
//
//   bench_e2e [--seed S] [--seconds T] [--trace 0|1] [--repeat R] [--json PATH]
//             [--clients C] [--work-dir D]
//       All four workloads, each in its own child process (so ru_maxrss is
//       per workload), R times; --json writes the end-to-end results with
//       provenance. With --trace 1 every child also runs traced and writes
//       <work-dir>/traces/<workload>.trace.json.
//
//   bench_e2e --smoke [--seed S]
//       Small instances; every workload runs with the default client count,
//       with one client and traced. Exits 1 unless every run passes its
//       checks and all three agree on outcome_fp.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "percentile.h"
#include "workloads.h"

namespace smallworld::e2e {
namespace {

std::string number(double value) {
    std::ostringstream out;
    out << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
    return out.str();
}

std::string hex(std::uint64_t value) {
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << value;
    return out.str();
}

std::string compiler_string() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

// ------------------------------------------------------ one workload

int run_one(const RunConfig& config) {
    const Report report = run_workload(config);
    const std::vector<Metric>& metrics = config.trace ? report.per_layer : report.end_to_end;
    const std::vector<std::string>& names =
        config.trace ? per_layer_names() : end_to_end_names();

    for (const auto* list : {&report.end_to_end, &report.per_layer}) {
        for (const Metric& m : *list) {
            std::cout << "METRIC " << config.workload << " " << m.name << " "
                      << number(m.value) << " " << m.unit << " samples=" << m.samples << "\n";
        }
    }
    for (const std::string& note : report.notes) std::cout << note << "\n";
    std::cout << "OUTCOME " << config.workload << " outcome_fp=" << hex(report.outcome_fp)
              << " attempted=" << report.attempted << " failed=" << report.failed
              << " failed_frac="
              << number(static_cast<double>(report.failed) /
                        static_cast<double>(std::max<std::size_t>(report.attempted, 1)))
              << "\n";

    // Every listed metric must be present; smoke runs are too small for the
    // tail percentile and report the median only.
    std::map<std::string, const Metric*> by_name;
    for (const Metric& m : metrics) by_name[m.name] = &m;
    bool complete = true;
    std::ostringstream json;
    json << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
         << ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : names) {
        const auto it = by_name.find(name);
        if (it == by_name.end()) {
            if (!config.smoke) {
                std::cerr << "bench_e2e: " << config.workload << " did not report " << name
                          << "\n";
                complete = false;
            }
            continue;
        }
        json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
             << number(it->second->value) << ", \"unit\": \"" << it->second->unit << "\"}";
        first = false;
    }
    json << "}}";
    if (!complete) return 2;
    std::cout << json.str() << std::endl;
    return report.failed == 0 ? 0 : 1;
}

// ------------------------------------------------- child processes

std::string self_executable(const char* argv0) {
    char buffer[4096];
    const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (len <= 0) return argv0;
    buffer[len] = '\0';
    return buffer;
}

std::string quoted(const std::string& arg) {
    std::string out(1, '\'');
    for (const char c : arg) {
        if (c == '\'') {
            out.append("'\\''");
        } else {
            out.push_back(c);
        }
    }
    out.push_back('\'');
    return out;
}

/// What one child printed.
struct ChildRun {
    bool ok = false;
    std::string outcome_fp;
    std::map<std::string, std::pair<double, std::string>> metrics;  ///< name -> (value, unit)
};

/// Runs `exe args...`, echoes its output and parses the METRIC and OUTCOME
/// lines. ok is false when the child fails or reports a failed check.
ChildRun run_child(const std::string& exe, const std::vector<std::string>& args) {
    std::string command = quoted(exe);
    for (const std::string& arg : args) {
        command.push_back(' ');
        command.append(quoted(arg));
    }
    ChildRun run;
    std::FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) {
        std::cerr << "bench_e2e: cannot start " << command << "\n";
        return run;
    }
    std::string output;
    char buffer[4096];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
    const int status = ::pclose(pipe);

    std::istringstream lines(output);
    std::string line;
    std::size_t failed = 1;
    while (std::getline(lines, line)) {
        if (line.rfind("{\"correct\"", 0) == 0) continue;  // the JSON result line
        std::cout << line << "\n";
        std::istringstream tokens(line);
        std::string kind;
        std::string workload;
        tokens >> kind >> workload;
        if (kind == "METRIC") {
            std::string name;
            double value = 0.0;
            std::string unit;
            tokens >> name >> value >> unit;
            run.metrics[name] = {value, unit};
        } else if (kind == "OUTCOME") {
            std::string field;
            while (tokens >> field) {
                if (field.rfind("outcome_fp=", 0) == 0) run.outcome_fp = field.substr(11);
                if (field.rfind("failed=", 0) == 0) failed = std::stoull(field.substr(7));
            }
        }
    }
    run.ok = status == 0 && failed == 0 && !run.outcome_fp.empty();
    if (!run.ok) std::cerr << "bench_e2e: FAILED: " << command << "\n";
    return run;
}

std::vector<std::string> child_args(const RunConfig& config, const std::string& workload,
                                    bool trace, unsigned clients) {
    std::vector<std::string> args = {"--workload", workload,
                                     "--seed",     std::to_string(config.seed),
                                     "--seconds",  number(config.seconds),
                                     "--trace",    trace ? "1" : "0",
                                     "--work-dir", config.work_dir};
    if (clients != 0) {
        args.push_back("--clients");
        args.push_back(std::to_string(clients));
    }
    if (config.smoke) args.push_back("--smoke");
    return args;
}

/// All workloads, `repeat` times each; outcome_fp must agree across repeats.
int run_all(const std::string& exe, const RunConfig& config, int repeat,
            const std::string& json_path) {
    bool ok = true;
    std::ostringstream workloads;
    for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
        const std::string& workload = kWorkloads[w];
        std::vector<ChildRun> runs;
        for (int r = 0; r < repeat; ++r) {
            runs.push_back(run_child(
                exe, child_args(config, workload, config.trace, config.clients)));
            ok = ok && runs.back().ok;
            if (runs.back().outcome_fp != runs.front().outcome_fp) {
                std::cerr << "bench_e2e: " << workload << " outcome_fp differs across runs\n";
                ok = false;
            }
        }
        workloads << (w == 0 ? "" : ",\n") << "    \"" << workload
                  << "\": {\"outcome_fp\": \"" << runs.front().outcome_fp
                  << "\", \"metrics\": {";
        const std::vector<std::string>& names = end_to_end_names();
        for (std::size_t i = 0; i < names.size(); ++i) {
            std::vector<double> values;
            std::string unit;
            std::ostringstream list;
            for (const ChildRun& run : runs) {
                const auto it = run.metrics.find(names[i]);
                if (it == run.metrics.end()) continue;
                list << (values.empty() ? "" : ", ") << number(it->second.first);
                values.push_back(it->second.first);
                unit = it->second.second;
            }
            workloads << (i == 0 ? "" : ", ") << "\n      \"" << names[i] << "\": {\"unit\": \""
                      << unit << "\", \"values\": [" << list.str() << "], \"median\": "
                      << number(values.empty() ? 0.0 : Percentiles(values).median()) << "}";
        }
        workloads << "}}";
    }
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"benchmark\": \"E2E/seed" << config.seed << "\",\n"
            << "  \"git_sha\": \"" << SMALLWORLD_GIT_SHA << "\",\n"
            << "  \"compiler\": \"" << compiler_string() << "\",\n"
            << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
            << "  \"clients\": " << client_count(config)
            << ",\n  \"seconds\": " << number(config.seconds) << ",\n"
            << "  \"runs_per_workload\": " << repeat << ",\n"
            << "  \"measurement\": \"one child process per run; medians over the runs\",\n"
            << "  \"identical_outcomes\": " << (ok ? "true" : "false") << ",\n"
            << "  \"workloads\": {\n"
            << workloads.str() << "\n  }\n}\n";
        if (!out) {
            std::cerr << "bench_e2e: cannot write " << json_path << "\n";
            return 1;
        }
    }
    return ok ? 0 : 1;
}

/// Each workload with the default client count, with one client, and
/// traced: every run passes its checks and all agree on outcome_fp.
int run_smoke(const std::string& exe, RunConfig config) {
    config.seconds = 0;  // exactly one pass
    bool ok = true;
    for (const std::string& workload : kWorkloads) {
        const ChildRun base = run_child(exe, child_args(config, workload, false, 0));
        const ChildRun single = run_child(exe, child_args(config, workload, false, 1));
        const ChildRun traced = run_child(exe, child_args(config, workload, true, 0));
        const bool same = base.outcome_fp == single.outcome_fp &&
                          base.outcome_fp == traced.outcome_fp;
        if (!same) std::cerr << "bench_e2e: " << workload << " outcome_fp depends on the run\n";
        ok = ok && base.ok && single.ok && traced.ok && same;
    }
    std::cout << (ok ? "SMOKE OK" : "SMOKE FAILED") << "\n";
    return ok ? 0 : 1;
}

int usage() {
    std::cerr << "usage: bench_e2e [--workload W] [--seed S] [--seconds T] [--trace 0|1] "
                 "[--clients C] [--smoke] [--repeat R] [--json PATH] [--work-dir D]\n";
    return 2;
}

}  // namespace
}  // namespace smallworld::e2e

int main(int argc, char** argv) {
    using namespace smallworld::e2e;
    RunConfig config;
    int repeat = 1;
    std::string json_path;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--smoke") {
                config.smoke = true;
                continue;
            }
            if (i + 1 == argc) return usage();
            const std::string value = argv[++i];
            if (arg == "--workload") {
                config.workload = value;
            } else if (arg == "--seed") {
                config.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                config.seconds = std::stod(value);
            } else if (arg == "--trace") {
                config.trace = value != "0";
            } else if (arg == "--clients") {
                config.clients = static_cast<unsigned>(std::stoul(value));
            } else if (arg == "--repeat") {
                repeat = std::stoi(value);
            } else if (arg == "--json") {
                json_path = value;
            } else if (arg == "--work-dir") {
                config.work_dir = value;
            } else {
                return usage();
            }
        }
    } catch (const std::exception&) {  // a number that does not parse
        return usage();
    }
    if (config.seconds < 0 || repeat < 1) return usage();
    if (!config.workload.empty()) {
        bool known = false;
        for (const std::string& w : kWorkloads) known = known || w == config.workload;
        return known ? run_one(config) : usage();
    }
    const std::string exe = self_executable(argv[0]);
    return config.smoke ? run_smoke(exe, config) : run_all(exe, config, repeat, json_path);
}
