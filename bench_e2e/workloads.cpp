#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "checks.h"
#include "core/adversary.h"
#include "core/check.h"
#include "core/fault.h"
#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/message_history.h"
#include "core/objective.h"
#include "core/phi_dfs.h"
#include "distributed/protocols.h"
#include "distributed/serving.h"
#include "experiments/memory.h"
#include "girg/generator.h"
#include "girg/pack_io.h"
#include "girg/phi_memo.h"
#include "graph/fingerprint.h"
#include "graph/packed_graph.h"
#include "percentile.h"
#include "random/rng.h"
#include "random/splitmix64.h"
#include "trace.h"

namespace smallworld::e2e {
namespace {

/// Set-ups per run, each in a fresh process; setup_s is their median.
constexpr int kSetups = 3;
/// The Chrome trace file keeps the query spans of this many requests.
constexpr std::int64_t kTraceRequests = 8192;
/// Vertices the row-read probe samples.
constexpr std::size_t kProbeVertices = 65536;

enum class Kind { kGreedyResident, kPatchingHostile, kServingHotspot, kColdPackBlob };

/// Instance size and query load of one workload.
struct Shape {
    Kind kind = Kind::kGreedyResident;
    double n = 0;
    std::size_t targets = 0;        ///< routing: targets per pass; serving: hot destinations
    std::size_t per_target = 0;     ///< routing: sources per target
    std::size_t batches = 0;        ///< serving: batches per pass
    std::size_t batch_queries = 0;  ///< serving: queries per batch

    [[nodiscard]] bool packed() const noexcept {
        return kind == Kind::kPatchingHostile || kind == Kind::kColdPackBlob;
    }
};

Shape shape_of(const std::string& workload, bool smoke) {
    if (workload == "greedy_resident") {
        return smoke ? Shape{Kind::kGreedyResident, 1 << 14, 128, 16, 0, 0}
                     : Shape{Kind::kGreedyResident, 1 << 20, 16384, 16, 0, 0};
    }
    if (workload == "patching_hostile") {
        return smoke ? Shape{Kind::kPatchingHostile, 1 << 13, 256, 8, 0, 0}
                     : Shape{Kind::kPatchingHostile, 1 << 18, 16384, 8, 0, 0};
    }
    if (workload == "serving_hotspot") {
        return smoke ? Shape{Kind::kServingHotspot, 1 << 12, 32, 0, 4, 512}
                     : Shape{Kind::kServingHotspot, 1 << 17, 256, 0, 40, 4096};
    }
    GIRG_CHECK(workload == "cold_pack_blob", "unknown workload '", workload, "'");
    return smoke ? Shape{Kind::kColdPackBlob, 1 << 14, 128, 16, 0, 0}
                 : Shape{Kind::kColdPackBlob, 1 << 21, 16384, 8, 0, 0};
}

/// What a seed is for. The first three make up the scenario, the rest the
/// requests.
enum Purpose : std::uint64_t {
    kInstance = 1,
    kFaults,
    kAdversary,
    kPairs,
    kLatency,
    kEvents,
    kProbe,
};

/// Root of the scenario seeds.
constexpr std::uint64_t kScenarioSeed = 1;

/// Every input is a pure function of (workload, purpose) and, for the
/// requests (pairs, hot sets, latency jitter, event tie-breaks, probe), of
/// --seed. The scenario (instance, fault plan, adversary plan) is part of
/// the workload's definition, like a dataset, and ignores --seed: hub
/// degrees are heavy-tailed and a liar among the top hubs changes the
/// regime, so with a scenario per seed queries_per_s spread 47% to 127%
/// (quartile distance over median, five seeds) on the routing workloads.
std::uint64_t derive_seed(const RunConfig& config, Purpose purpose) {
    const std::uint64_t name =
        fnv1a_bytes(kFingerprintBasis, config.workload.data(), config.workload.size());
    const std::uint64_t root = purpose <= kAdversary ? kScenarioSeed : config.seed;
    return hash_combine(hash_combine(root, name), purpose);
}

/// The repo's standard instance: d=2, alpha=2, beta=2.5, wmin=2, calibrated
/// edge scale; generation keeps the Morton and streaming-CSR defaults.
GirgParams standard_params(double n) {
    GirgParams params;
    params.n = n;
    params.dim = 2;
    params.alpha = 2.0;
    params.beta = 2.5;
    params.wmin = 2.0;
    params.edge_scale = calibrated_edge_scale(params);
    return params;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// ---------------------------------------------------------------- set-up

/// Everything the measured phase needs, built from the seed.
struct Instance {
    Girg girg;         ///< the resident instance, or the pack's attributes
    PackedGraph pack;  ///< open when the workload serves from a pack
    bool packed = false;
    std::unique_ptr<FaultState> faults;
    std::unique_ptr<AdversaryState> adversary;

    /// One view per thread: a compressed pack decodes into `scratch`.
    [[nodiscard]] GraphView view(NeighborScratch& scratch) const {
        if (!packed) return {girg.graph};
        return pack.compressed() ? pack.view(scratch) : pack.view();
    }
    [[nodiscard]] Vertex num_vertices() const {
        return packed ? pack.num_vertices() : girg.graph.num_vertices();
    }
    [[nodiscard]] std::uint64_t arcs() const {
        return packed ? pack.header().num_arcs : girg.graph.raw_adjacency().size();
    }
    /// Adjacency storage plus row offsets, in bytes.
    [[nodiscard]] double adjacency_bytes() const {
        if (packed) {
            return static_cast<double>(pack.info().adjacency_bytes + pack.offsets().size_bytes());
        }
        return static_cast<double>(girg.graph.raw_adjacency().size_bytes() +
                                   girg.graph.raw_offsets().size_bytes());
    }
};

std::unique_ptr<Instance> set_up(const Shape& shape, const RunConfig& config, TraceLane* lane) {
    auto instance = std::make_unique<Instance>();
    const ScopedSpan root(lane, "bench.setup");
    const GirgParams params = standard_params(shape.n);
    const std::uint64_t seed = derive_seed(config, kInstance);
    if (!shape.packed()) {
        const ScopedSpan span(lane, "girg.generate");
        instance->girg = generate_girg(params, seed);
    } else {
        const std::string path = config.work_dir + "/" + config.workload + ".girgpack";
        PackOptions options;
        options.compress = shape.kind == Kind::kColdPackBlob;
        {
            const ScopedSpan span(lane, "girg.pack_build");
            (void)pack_girg_out_of_core(path, params, seed, {}, options);
        }
        {
            const ScopedSpan span(lane, "graph.pack_open");
            instance->pack = PackedGraph(path);
            instance->packed = true;
        }
        // The mapping outlives the name; the next set-up writes a new file.
        std::filesystem::remove(path);
        const ScopedSpan span(lane, "girg.attributes");
        instance->girg = load_pack_attributes(instance->pack);
    }
    {
        const ScopedSpan span(lane, "girg.phi_soa");
        (void)instance->girg.phi_soa();
    }
    if (shape.kind == Kind::kPatchingHostile) {
        NeighborScratch scratch;
        const GraphView view = instance->view(scratch);
        {
            const ScopedSpan span(lane, "routing.fault_state");
            FaultPlan plan;
            plan.seed = derive_seed(config, kFaults);
            plan.crash_fraction = 0.05;
            plan.link_failure_prob = 0.1;
            instance->faults = std::make_unique<FaultState>(view, plan, instance->girg.weights);
        }
        const ScopedSpan span(lane, "adversary.state");
        AdversaryPlan plan;
        plan.seed = derive_seed(config, kAdversary);
        plan.byzantine_fraction = 0.02;
        plan.weight_lie_factor = 8.0;
        plan.blackhole = true;
        plan.phantom_neighbors = 4;
        instance->adversary =
            std::make_unique<AdversaryState>(view, plan, instance->girg.weights);
    }
    return instance;
}

/// Times one set-up in a forked child. A set-up repeated in one process
/// would reuse the heap pages the first one faulted in (glibc keeps freed
/// memory below its adaptive mmap threshold), so it would time a warm
/// process that no user starts. Must run before this process starts any
/// thread.
double setup_in_child(const Shape& shape, const RunConfig& config) {
    int fds[2];
    GIRG_CHECK(::pipe(fds) == 0, "pipe failed");
    const pid_t pid = ::fork();
    GIRG_CHECK(pid >= 0, "fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        const std::int64_t start = now_ns();
        const std::unique_ptr<Instance> instance = set_up(shape, config, nullptr);
        const double seconds = seconds_between(start, now_ns());
        const bool sent = ::write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
        ::_exit(sent ? 0 : 1);
    }
    ::close(fds[1]);
    double seconds = -1.0;
    const bool received = ::read(fds[0], &seconds, sizeof(seconds)) == sizeof(seconds);
    ::close(fds[0]);
    int status = 0;
    GIRG_CHECK(::waitpid(pid, &status, 0) == pid, "waitpid failed");
    GIRG_CHECK(received && WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "set-up child failed");
    return seconds;
}

// ------------------------------------------------------------ objectives

/// Forwards to the objective a client built and counts every phi value
/// requested at the Objective interface (memo hits included). Traced runs
/// only: the extra virtual hop is part of the tracing overhead.
class CountingObjective final : public Objective {
public:
    CountingObjective(std::unique_ptr<Objective> base, std::uint64_t& evaluations)
        : base_(std::move(base)), evaluations_(&evaluations) {}

    [[nodiscard]] double value(Vertex v) const override {
        ++*evaluations_;
        return base_->value(v);
    }
    [[nodiscard]] Vertex target() const override { return base_->target(); }
    void values(std::span<const Vertex> vertices, double* out) const override {
        *evaluations_ += vertices.size();
        base_->values(vertices, out);
    }
    [[nodiscard]] BestNeighbor best_of(std::span<const Vertex> vertices) const override {
        *evaluations_ += vertices.size();
        return base_->best_of(vertices);
    }

private:
    std::unique_ptr<Objective> base_;
    std::uint64_t* evaluations_;
};

std::unique_ptr<Objective> make_objective(const Girg& attributes, Vertex target,
                                          const std::shared_ptr<PhiMemoPool>& pool,
                                          std::uint64_t* evaluations) {
    PhiOptions options;
    options.pool = pool;
    auto objective = std::make_unique<GirgObjective>(attributes, target, options);
    if (evaluations == nullptr) return objective;
    return std::make_unique<CountingObjective>(std::move(objective), *evaluations);
}

// ----------------------------------------------------------- the phases

/// Where a first-pass query's path sits in its client's PathStore.
struct PathRef {
    std::uint32_t client = 0;
    std::uint32_t chunk = 0;
    std::uint32_t offset = 0;
};

/// Append-only store of first-pass paths, in chunks that never reallocate:
/// its share of peak_rss_mb stays close to the paths it holds (tens of MiB
/// on patching_hostile) instead of doubling as a growing vector would.
class PathStore {
public:
    /// Copies `path` into the store; `ref.client` is left to the caller.
    PathRef append(std::span<const Vertex> path) {
        if (chunks_.empty() ||
            chunks_.back().capacity() - chunks_.back().size() < path.size()) {
            chunks_.emplace_back().reserve(std::max(kChunk, path.size()));
        }
        std::vector<Vertex>& chunk = chunks_.back();
        const PathRef ref{0, static_cast<std::uint32_t>(chunks_.size() - 1),
                          static_cast<std::uint32_t>(chunk.size())};
        chunk.insert(chunk.end(), path.begin(), path.end());
        return ref;
    }

    [[nodiscard]] std::span<const Vertex> get(const PathRef& ref, std::size_t length) const {
        return {chunks_[ref.chunk].data() + ref.offset, length};
    }

private:
    static constexpr std::size_t kChunk = std::size_t{1} << 20;
    std::vector<std::vector<Vertex>> chunks_;
};

constexpr std::size_t kRouters = 4;
constexpr std::array<const char*, kRouters> kRouterNames = {"greedy", "phi-dfs",
                                                            "gravity-pressure", "msg-history"};
constexpr std::array<const char*, kRouters> kRouteSpans = {
    "routing.route.greedy", "routing.route.phi-dfs", "routing.route.gravity-pressure",
    "routing.route.msg-history"};

/// What one client thread (or the serving caller) measured.
struct ClientLog {
    std::vector<double> route_us;  ///< one sample per Router::route call
    std::vector<double> build_us;  ///< one sample per objective build
    std::array<double, kRouters> router_s{};
    double failed_route_s = 0.0;  ///< route time of queries that were not delivered
    double busy_s = 0.0;          ///< time inside calls into the layers
    std::size_t queries = 0;
    std::uint64_t phi_evaluations = 0;  ///< traced phases only
    PathStore paths;                    ///< first-pass paths
    std::vector<std::pair<std::size_t, std::uint64_t>> repeats;  ///< (pass block, digest)
};

/// Per-batch telemetry of the first serving pass.
struct BatchTelemetry {
    std::uint64_t events = 0;
    std::uint64_t wakes = 0;
    std::size_t heap_high_water = 0;
    std::uint32_t peak_queue_depth = 0;
    SimTime makespan = 0;
};

/// One measured phase: every query of the first pass, then repeats.
struct Phase {
    double wall_s = 0.0;
    std::size_t queries = 0;
    std::vector<ClientLog> clients;
    std::vector<Outcome> outcomes;  ///< first pass, in query order
    std::vector<PathRef> paths;
    // serving_hotspot only
    std::vector<double> batch_us;
    std::vector<BatchTelemetry> telemetry;
    std::vector<std::uint8_t> protocol_violations;  ///< per first-pass query
    double factory_s = 0.0;
    /// ru_maxrss when the phase ends, before validation allocates.
    double peak_rss_mb = 0.0;
};

double peak_rss_mb() { return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0); }

struct RoutingQuery {
    Vertex source = kNoVertex;
    Vertex target = kNoVertex;
    std::uint8_t router = 0;  ///< index into kRouterNames
};

/// One pass: `targets` uniform targets, each with `per_target` uniform
/// sources (never the target). Queries of one target are consecutive; with
/// `mixed` the router is (target index + source index) mod 4.
std::vector<RoutingQuery> routing_pass(const Shape& shape, Vertex n, std::uint64_t seed,
                                       bool mixed) {
    Rng rng(seed);
    std::vector<RoutingQuery> pass;
    pass.reserve(shape.targets * shape.per_target);
    for (std::size_t b = 0; b < shape.targets; ++b) {
        const auto target = static_cast<Vertex>(rng.uniform_index(n));
        for (std::size_t i = 0; i < shape.per_target; ++i) {
            Vertex source = target;
            while (source == target) source = static_cast<Vertex>(rng.uniform_index(n));
            pass.push_back({source, target,
                            static_cast<std::uint8_t>(mixed ? (b + i) % kRouters : 0)});
        }
    }
    return pass;
}

struct RoutingContext {
    const Instance* instance = nullptr;
    const std::vector<RoutingQuery>* pass = nullptr;
    std::size_t per_block = 0;
    RoutingOptions options;
    std::array<const Router*, kRouters> routers{};
    std::shared_ptr<PhiMemoPool> pool;  ///< shared by all clients
};

/// Closed loop: every client claims the next block (one target and its
/// sources), builds one objective for it, routes the block's queries one
/// after another, and claims again. Blocks of the first pass are always
/// routed; after it, clients stop claiming once `seconds` have passed.
Phase run_routing_phase(const RoutingContext& ctx, unsigned clients, double seconds,
                        Tracer* tracer) {
    const std::size_t pass_blocks = ctx.pass->size() / ctx.per_block;
    Phase phase;
    phase.clients.resize(clients);
    phase.outcomes.resize(ctx.pass->size());
    phase.paths.resize(ctx.pass->size());
    std::atomic<std::size_t> next_block{0};
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);

    const auto client = [&](unsigned c) {
        ClientLog& log = phase.clients[c];
        TraceLane* lane = tracer != nullptr ? &tracer->lane(c + 1) : nullptr;
        std::uint64_t* evaluations = lane != nullptr ? &log.phi_evaluations : nullptr;
        NeighborScratch scratch;
        const GraphView view = ctx.instance->view(scratch);
        // Address space only: pages become resident as samples land, so the
        // log's share of peak_rss_mb follows the samples without the copies
        // a growing vector would make.
        log.route_us.reserve(8 * ctx.pass->size() / clients + ctx.per_block);
        log.build_us.reserve(8 * pass_blocks / clients + 1);
        while (true) {
            const std::size_t block = next_block.fetch_add(1);
            if (block >= pass_blocks && now_ns() >= deadline) break;
            const std::size_t pass_block = block % pass_blocks;
            const bool first_pass = block < pass_blocks;
            const auto req = static_cast<std::int64_t>(block * ctx.per_block);
            const ScopedSpan block_span(lane, "bench.block", req);
            const Vertex target = (*ctx.pass)[pass_block * ctx.per_block].target;

            const std::int64_t build_start = now_ns();
            std::unique_ptr<Objective> objective;
            {
                const ScopedSpan span(lane, "routing.objective_build", req);
                objective = make_objective(ctx.instance->girg, target, ctx.pool, evaluations);
            }
            const std::int64_t build_end = now_ns();
            log.build_us.push_back(static_cast<double>(build_end - build_start) * 1e-3);
            log.busy_s += seconds_between(build_start, build_end);

            std::uint64_t digest = kFingerprintBasis;
            for (std::size_t i = 0; i < ctx.per_block; ++i) {
                const std::size_t index = pass_block * ctx.per_block + i;
                const RoutingQuery& query = (*ctx.pass)[index];
                const std::int64_t route_start = now_ns();
                RoutingResult result;
                {
                    const ScopedSpan span(lane, kRouteSpans[query.router],
                                          req + static_cast<std::int64_t>(i));
                    result = ctx.routers[query.router]->route(view, *objective, query.source,
                                                              ctx.options);
                }
                const double route_s = seconds_between(route_start, now_ns());
                log.route_us.push_back(route_s * 1e6);
                log.router_s[query.router] += route_s;
                if (!result.success()) log.failed_route_s += route_s;
                log.busy_s += route_s;
                ++log.queries;

                const Outcome outcome = outcome_of(result);
                if (first_pass) {
                    phase.outcomes[index] = outcome;
                    phase.paths[index] = log.paths.append(result.path);
                    phase.paths[index].client = c;
                } else {
                    digest = fold_outcome(digest, index, outcome);
                }
            }
            if (!first_pass) log.repeats.emplace_back(pass_block, digest);

            const std::int64_t release_start = now_ns();
            {
                const ScopedSpan span(lane, "routing.objective_release", req);
                objective.reset();
            }
            log.busy_s += seconds_between(release_start, now_ns());
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& thread : threads) thread.join();
    phase.wall_s = seconds_between(start, now_ns());
    phase.peak_rss_mb = peak_rss_mb();
    for (const ClientLog& log : phase.clients) phase.queries += log.queries;
    return phase;
}

struct ServingPass {
    std::vector<std::vector<ServingQuery>> batches;
    std::vector<double> distinct_targets;  ///< per batch
};

/// Sources uniform; targets Zipf(1) over `shape.targets` hot destinations;
/// query i of a batch starts at tick i/4. Each batch draws its own hot set:
/// with one set for the whole pass, the few top-ranked destinations would
/// decide delivered_frac and batch latency for the seed.
ServingPass serving_pass(const Shape& shape, Vertex n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> cumulative(shape.targets);
    double total = 0.0;
    for (std::size_t k = 0; k < cumulative.size(); ++k) {
        total += 1.0 / static_cast<double>(k + 1);
        cumulative[k] = total;
    }
    ServingPass pass;
    std::vector<Vertex> hot(shape.targets);
    for (std::size_t b = 0; b < shape.batches; ++b) {
        for (Vertex& v : hot) v = static_cast<Vertex>(rng.uniform_index(n));
        std::vector<ServingQuery> batch(shape.batch_queries);
        std::vector<Vertex> targets;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const double u = rng.uniform() * total;
            const auto rank = static_cast<std::size_t>(
                std::upper_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin());
            const Vertex target = hot[std::min(rank, hot.size() - 1)];
            Vertex source = target;
            while (source == target) source = static_cast<Vertex>(rng.uniform_index(n));
            batch[i] = {source, target, static_cast<SimTime>(i / 4)};
            targets.push_back(target);
        }
        std::sort(targets.begin(), targets.end());
        pass.distinct_targets.push_back(static_cast<double>(
            std::unique(targets.begin(), targets.end()) - targets.begin()));
        pass.batches.push_back(std::move(batch));
    }
    return pass;
}

/// One caller runs simulate_many batches back to back: every batch of the
/// first pass, then repeats until `seconds` have passed.
Phase run_serving_phase(const Instance& instance, const ServingPass& pass,
                        const RunConfig& config, unsigned clients, Tracer* tracer) {
    const std::size_t per_batch = pass.batches.front().size();
    Phase phase;
    phase.outcomes.resize(pass.batches.size() * per_batch);
    phase.paths.resize(phase.outcomes.size());
    phase.protocol_violations.resize(phase.outcomes.size());
    phase.telemetry.resize(pass.batches.size());
    phase.clients.resize(1);
    ClientLog& log = phase.clients.front();
    TraceLane* lane = tracer != nullptr ? &tracer->lane(1) : nullptr;

    const auto pool = std::make_shared<PhiMemoPool>();
    std::atomic<std::int64_t> last_factory_return{0};
    SpanRef factory_span;
    std::int64_t batch_req = 0;
    Mutex build_mutex;
    std::vector<double> build_us;
    std::uint64_t* evaluations = tracer != nullptr ? &log.phi_evaluations : nullptr;
    // Called on simulate_many's set-up workers, once per distinct target;
    // every objective is then evaluated on the event loop alone.
    const TargetObjectiveFactory factory = [&](Vertex target) {
        const std::int64_t start = now_ns();
        std::unique_ptr<Objective> objective =
            make_objective(instance.girg, target, pool, evaluations);
        const std::int64_t end = now_ns();
        std::int64_t seen = last_factory_return.load();
        while (seen < end && !last_factory_return.compare_exchange_weak(seen, end)) {
        }
        if (tracer != nullptr) {
            tracer->add_shared("routing.objective_build", start, end, factory_span, batch_req);
        }
        const MutexLock lock(build_mutex);
        build_us.push_back(static_cast<double>(end - start) * 1e-3);
        return objective;
    };

    ServingOptions options;
    options.latency.kind = LatencyKind::kSeededJitter;
    options.latency.base_ticks = 1;
    options.latency.jitter_ticks = 3;
    options.latency.seed = derive_seed(config, kLatency);
    options.threads = clients;
    const DistributedGreedy greedy;
    NeighborScratch scratch;
    const GraphView view = instance.view(scratch);

    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(config.seconds * 1e9);
    for (std::size_t batch = 0;; ++batch) {
        if (batch >= pass.batches.size() && now_ns() >= deadline) break;
        const std::size_t pass_batch = batch % pass.batches.size();
        const bool first_pass = batch < pass.batches.size();
        options.seed = hash_combine(derive_seed(config, kEvents), pass_batch);
        batch_req = static_cast<std::int64_t>(batch);

        const ScopedSpan batch_span(lane, "distributed.simulate_many", batch_req);
        const std::int64_t batch_start = now_ns();
        last_factory_return.store(batch_start);
        if (lane != nullptr) {
            // Ends at the factory's last return, known only after the call.
            factory_span = lane->add("distributed.factory", batch_start, batch_start,
                                     batch_span.ref(), batch_req);
        }
        const ServingResult result =
            simulate_many(view, factory, greedy, pass.batches[pass_batch], options);
        const std::int64_t batch_end = now_ns();
        const std::int64_t factory_end = last_factory_return.load();
        if (lane != nullptr) {
            lane->set_end(factory_span, factory_end);
            (void)lane->add("distributed.event_loop", factory_end, batch_end, batch_span.ref(),
                            batch_req);
        }
        phase.batch_us.push_back(static_cast<double>(batch_end - batch_start) * 1e-3);
        phase.factory_s += seconds_between(batch_start, factory_end);
        log.busy_s += seconds_between(batch_start, batch_end);
        log.queries += result.queries.size();

        std::uint64_t digest = kFingerprintBasis;
        for (std::size_t i = 0; i < result.queries.size(); ++i) {
            const DistributedResult& query = result.queries[i];
            const std::size_t index = pass_batch * per_batch + i;
            const Outcome outcome = outcome_of(query.routing);
            if (!first_pass) {
                digest = fold_outcome(digest, index, outcome);
                continue;
            }
            phase.outcomes[index] = outcome;
            phase.paths[index] = log.paths.append(query.routing.path);
            phase.protocol_violations[index] = query.telemetry.illegal_forwards != 0 ||
                                               query.telemetry.locality_violations != 0;
        }
        if (!first_pass) {
            log.repeats.emplace_back(pass_batch, digest);
            continue;
        }
        BatchTelemetry& t = phase.telemetry[pass_batch];
        t.events = result.serving.events_fired;
        t.wakes = result.serving.total_wakes;
        t.heap_high_water = result.serving.heap_high_water;
        t.makespan = result.serving.clock_end;
        for (const std::uint32_t depth : result.serving.node_queue_high_water) {
            t.peak_queue_depth = std::max(t.peak_queue_depth, depth);
        }
    }
    phase.wall_s = seconds_between(start, now_ns());
    phase.peak_rss_mb = peak_rss_mb();
    phase.queries = log.queries;
    const MutexLock lock(build_mutex);
    log.build_us = std::move(build_us);
    return phase;
}

// ----------------------------------------------------------- validation

/// Output-derived aggregates of the first pass.
struct Validation {
    std::uint64_t outcome_fp = kFingerprintBasis;
    std::size_t failed = 0;
    std::array<std::size_t, 4> status{};  ///< queries per RoutingStatus
    double hops = 0, failed_hops = 0, distinct = 0, retries = 0, row_entries = 0;
    std::size_t phantom_hops = 0, blackholed = 0;
};

/// Checks every first-pass query, and every repeated block or batch against
/// the first pass: a repeat must reproduce its outcomes exactly.
Validation validate(const Phase& phase, std::size_t per_block, const CheckRules& rules,
                    const std::vector<std::pair<Vertex, Vertex>>& endpoints,
                    std::vector<std::string>& notes, const std::string& workload) {
    Validation v;
    const auto fail = [&](std::size_t index, const char* reason) {
        if (v.failed++ < 5) {
            notes.push_back("FAIL " + workload + " query=" + std::to_string(index) + " " + reason);
        }
    };
    std::vector<std::uint64_t> block_digest(phase.outcomes.size() / per_block, kFingerprintBasis);
    for (std::size_t index = 0; index < phase.outcomes.size(); ++index) {
        const Outcome& outcome = phase.outcomes[index];
        v.outcome_fp = fold_outcome(v.outcome_fp, index, outcome);
        std::uint64_t& block = block_digest[index / per_block];
        block = fold_outcome(block, index, outcome);
        const PathRef& ref = phase.paths[index];
        const std::span<const Vertex> path =
            phase.clients[ref.client].paths.get(ref, std::size_t{outcome.steps} + 1);
        PathStats stats;
        const char* broken = check_query(rules, endpoints[index].first, endpoints[index].second,
                                         outcome, path, stats);
        if (broken == nullptr && !phase.protocol_violations.empty() &&
            phase.protocol_violations[index] != 0) {
            broken = "illegal forward or locality violation";
        }
        if (broken != nullptr) fail(index, broken);
        ++v.status[static_cast<std::size_t>(outcome.status)];
        if (outcome.status != RoutingStatus::kDelivered) v.failed_hops += outcome.steps;
        v.hops += outcome.steps;
        v.retries += outcome.retries;
        v.distinct += static_cast<double>(stats.distinct);
        v.row_entries += static_cast<double>(stats.row_entries);
        v.phantom_hops += stats.phantom_hop ? 1 : 0;
        v.blackholed += stats.blackholed ? 1 : 0;
    }
    for (const ClientLog& log : phase.clients) {
        for (const auto& [block, digest] : log.repeats) {
            if (digest != block_digest[block]) fail(block * per_block, "repeat changed outcome");
        }
    }
    return v;
}

// -------------------------------------------------------------- metrics

void add(std::vector<Metric>& out, const std::string& name, double value,
         const std::string& unit, std::size_t samples) {
    out.push_back({name, value, unit, samples});
}

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

double median_of(std::vector<double> values) { return Percentiles(std::move(values)).median(); }

/// Times GraphView::neighbors over kProbeVertices seeded vertices: the cost
/// per entry of reading a row (a varint decode on a compressed pack, a span
/// on a flat one).
double row_read_ns_per_entry(const Instance& instance, const RunConfig& config,
                             TraceLane* lane) {
    NeighborScratch scratch;
    const GraphView view = instance.view(scratch);
    Rng rng(derive_seed(config, kProbe));
    std::vector<Vertex> probes(kProbeVertices);
    for (Vertex& v : probes) v = static_cast<Vertex>(rng.uniform_index(view.num_vertices()));
    const ScopedSpan span(lane, "graph.row_probe");
    const std::int64_t start = now_ns();
    std::uint64_t entries = 0;
    std::uint64_t checksum = 0;
    for (const Vertex v : probes) {
        for (const Vertex u : view.neighbors(v)) checksum += u;
        entries += view.degree(v);
    }
    const std::int64_t end = now_ns();
    // An empty asm that consumes the checksum keeps the reads alive.
    asm volatile("" : : "r"(checksum));
    return ratio(static_cast<double>(end - start), static_cast<double>(entries));
}

void end_to_end_metrics(Report& report, const Shape& shape, const std::vector<double>& setups,
                        const Phase& phase, const Validation& v) {
    auto& m = report.end_to_end;
    add(m, "setup_s", median_of(setups), "s", setups.size());
    add(m, "queries_per_s", ratio(static_cast<double>(phase.queries), phase.wall_s), "1/s",
        phase.queries);
    // A request is one Router::route call, or on serving_hotspot one
    // simulate_many batch; the tail is p99 of calls or p75 of batches.
    std::vector<double> latencies = phase.batch_us;
    for (const ClientLog& log : phase.clients) {
        latencies.insert(latencies.end(), log.route_us.begin(), log.route_us.end());
    }
    const Percentiles percentiles(std::move(latencies));
    add(m, "latency_p50_us", percentiles.median(), "us", percentiles.samples());
    const double tail_q = shape.kind == Kind::kServingHotspot ? 0.75 : 0.99;
    if (const auto tail = percentiles.at(tail_q)) {
        add(m, "latency_tail_us", *tail, "us", percentiles.samples());
    }
    std::ostringstream line;
    line << "LATENCY " << report.workload << " p50=" << percentiles.median() << "us";
    if (const double q = percentiles.highest_supported(); q > 0.0) {
        line << " p" << q * 100 << "=" << percentiles.at(q).value_or(0.0) << "us";
    }
    line << " samples=" << percentiles.samples();
    report.notes.push_back(line.str());
    const auto pass = static_cast<double>(phase.outcomes.size());
    add(m, "delivered_frac",
        ratio(static_cast<double>(v.status[static_cast<std::size_t>(RoutingStatus::kDelivered)]),
              pass),
        "ratio", phase.outcomes.size());
    add(m, "peak_rss_mb", phase.peak_rss_mb, "MiB", 1);
}

/// Set-up spans: their self times sum to nearly all of setup_s.
constexpr std::array<const char*, 7> kSetupSpans = {
    "girg.generate",  "girg.pack_build",     "graph.pack_open", "girg.attributes",
    "girg.phi_soa",   "routing.fault_state", "adversary.state"};

/// Per-layer metrics of a traced run. The set-up ones come from the traced
/// set-up in this process; the rest from the traced phase, except
/// bench.client_busy_frac (untraced) and the overhead (both phases).
void per_layer_metrics(Report& report, const Instance& instance, const Phase& untraced,
                       const Phase& traced, const Validation& v, const Tracer& tracer,
                       const std::vector<double>& distinct_targets, double probe_ns) {
    const std::map<std::string, SpanTotals> spans = tracer.by_name();
    const auto self = [&spans](const std::string& name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.self_s;
    };
    const auto total = [&spans](const std::string& name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.total_s;
    };
    const double setup_total = total("bench.setup");
    const std::size_t setups = spans.count("bench.setup") ? spans.at("bench.setup").count : 0;
    const auto pass = static_cast<double>(traced.outcomes.size());
    auto& m = report.per_layer;

    const double girg_setup = self("girg.generate") + self("girg.pack_build") +
                              self("girg.attributes") + self("girg.phi_soa");
    add(m, "girg.setup_s", ratio(girg_setup, static_cast<double>(setups)), "s", setups);
    add(m, "girg.arcs_per_s",
        ratio(static_cast<double>(instance.arcs() * setups),
              total("girg.generate") + total("girg.pack_build")),
        "1/s", setups);
    std::uint64_t evaluations = 0;
    std::vector<double> build_us;
    std::array<double, kRouters> router_s{};
    double failed_route_s = 0.0;
    for (const ClientLog& log : traced.clients) {
        evaluations += log.phi_evaluations;
        build_us.insert(build_us.end(), log.build_us.begin(), log.build_us.end());
        for (std::size_t r = 0; r < kRouters; ++r) router_s[r] += log.router_s[r];
        failed_route_s += log.failed_route_s;
    }
    add(m, "girg.phi_evals_per_query",
        ratio(static_cast<double>(evaluations), static_cast<double>(traced.queries)), "count",
        traced.queries);

    add(m, "graph.setup_frac", ratio(self("graph.pack_open"), setup_total), "ratio",
        setups);
    add(m, "graph.row_read_ns_per_entry", probe_ns, "ns", kProbeVertices);
    add(m, "graph.row_entries_per_query", ratio(v.row_entries, pass), "count",
        traced.outcomes.size());
    add(m, "graph.adjacency_mb", instance.adjacency_bytes() / (1024.0 * 1024.0), "MiB", 1);

    add(m, "routing.setup_frac", ratio(self("routing.fault_state"), setup_total), "ratio",
        setups);
    add(m, "routing.objective_build_us_p50", median_of(build_us), "us", build_us.size());
    double routed_s = 0.0;
    for (const double s : router_s) routed_s += s;
    for (std::size_t r = 0; r < kRouters; ++r) {
        add(m, std::string("routing.route_share.") + kRouterNames[r],
            ratio(router_s[r], routed_s), "ratio", traced.queries);
    }
    add(m, "routing.failed_route_share", ratio(failed_route_s, routed_s), "ratio",
        traced.queries);
    const auto failed_queries =
        pass - static_cast<double>(v.status[static_cast<std::size_t>(RoutingStatus::kDelivered)]);
    add(m, "routing.hops_per_query", ratio(v.hops, pass), "count", traced.outcomes.size());
    add(m, "routing.hops_per_failed_query", ratio(v.failed_hops, failed_queries), "count",
        static_cast<std::size_t>(failed_queries));
    add(m, "routing.distinct_per_query", ratio(v.distinct, pass), "count",
        traced.outcomes.size());
    add(m, "routing.retries_per_query", ratio(v.retries, pass), "count",
        traced.outcomes.size());
    const std::array<const char*, 4> statuses = {"delivered", "dead_end", "exhausted",
                                                 "step_limit"};
    for (std::size_t s = 0; s < statuses.size(); ++s) {
        add(m, std::string("routing.status_frac.") + statuses[s],
            ratio(static_cast<double>(v.status[s]), pass), "ratio", traced.outcomes.size());
    }

    add(m, "adversary.setup_frac", ratio(self("adversary.state"), setup_total), "ratio",
        setups);
    add(m, "adversary.blackholed_frac", ratio(static_cast<double>(v.blackholed), pass), "ratio",
        traced.outcomes.size());
    add(m, "adversary.phantom_hop_frac", ratio(static_cast<double>(v.phantom_hops), pass),
        "ratio", traced.outcomes.size());

    double batch_s = 0.0;
    for (const double us : traced.batch_us) batch_s += us * 1e-6;
    std::uint64_t events = 0;
    std::uint64_t wakes = 0;
    std::size_t heap_high_water = 0;
    std::uint32_t peak_queue_depth = 0;
    std::vector<double> makespans;
    for (const BatchTelemetry& t : traced.telemetry) {
        events += t.events;
        wakes += t.wakes;
        heap_high_water = std::max(heap_high_water, t.heap_high_water);
        peak_queue_depth = std::max(peak_queue_depth, t.peak_queue_depth);
        makespans.push_back(static_cast<double>(t.makespan));
    }
    const std::size_t batches = traced.telemetry.size();
    add(m, "distributed.factory_frac", ratio(traced.factory_s, batch_s), "ratio",
        traced.batch_us.size());
    add(m, "distributed.events_per_query", ratio(static_cast<double>(events), pass), "count",
        traced.outcomes.size());
    add(m, "distributed.wakes_per_query", ratio(static_cast<double>(wakes), pass), "count",
        traced.outcomes.size());
    add(m, "distributed.heap_high_water", static_cast<double>(heap_high_water), "count",
        batches);
    add(m, "distributed.peak_queue_depth", static_cast<double>(peak_queue_depth), "count",
        batches);
    add(m, "distributed.makespan_ticks", makespans.empty() ? 0.0 : median_of(makespans),
        "ticks", batches);
    add(m, "distributed.distinct_targets_per_batch",
        distinct_targets.empty() ? 0.0 : median_of(distinct_targets), "count", batches);

    double busy_s = 0.0;
    for (const ClientLog& log : untraced.clients) busy_s += log.busy_s;
    add(m, "bench.client_busy_frac",
        ratio(busy_s, static_cast<double>(untraced.clients.size()) * untraced.wall_s), "ratio",
        untraced.queries);
    const double untraced_per_query =
        ratio(untraced.wall_s, static_cast<double>(untraced.queries));
    const double traced_per_query = ratio(traced.wall_s, static_cast<double>(traced.queries));
    add(m, "bench.trace_overhead_frac", ratio(traced_per_query, untraced_per_query) - 1.0,
        "ratio", traced.queries);

    std::map<std::string, SpanTotals> layers;
    for (const auto& [name, t] : spans) {
        SpanTotals& layer = layers[layer_of(name)];
        layer.self_s += t.self_s;
        layer.count += t.count;
    }
    for (const auto& [layer, t] : layers) {
        std::ostringstream line;
        line << "LAYER " << report.workload << " " << layer << " self_s=" << t.self_s
             << " spans=" << t.count;
        report.notes.push_back(line.str());
    }
    double setup_spans = 0.0;
    for (const char* name : kSetupSpans) setup_spans += self(name);
    std::ostringstream line;
    line << "SETUP " << report.workload << " span_self_s=" << setup_spans
         << " setup_s=" << setup_total << " covered=" << ratio(setup_spans, setup_total);
    report.notes.push_back(line.str());
}

}  // namespace

const std::vector<std::string>& end_to_end_names() {
    static const std::vector<std::string> names = {
        "setup_s", "queries_per_s", "latency_p50_us", "latency_tail_us", "delivered_frac",
        "peak_rss_mb"};
    return names;
}

const std::vector<std::string>& per_layer_names() {
    static const std::vector<std::string> names = {
        "girg.setup_s",
        "girg.arcs_per_s",
        "girg.phi_evals_per_query",
        "graph.setup_frac",
        "graph.row_read_ns_per_entry",
        "graph.row_entries_per_query",
        "graph.adjacency_mb",
        "routing.setup_frac",
        "routing.objective_build_us_p50",
        "routing.route_share.greedy",
        "routing.route_share.phi-dfs",
        "routing.route_share.gravity-pressure",
        "routing.route_share.msg-history",
        "routing.failed_route_share",
        "routing.hops_per_query",
        "routing.hops_per_failed_query",
        "routing.distinct_per_query",
        "routing.retries_per_query",
        "routing.status_frac.delivered",
        "routing.status_frac.dead_end",
        "routing.status_frac.exhausted",
        "routing.status_frac.step_limit",
        "adversary.setup_frac",
        "adversary.blackholed_frac",
        "adversary.phantom_hop_frac",
        "distributed.factory_frac",
        "distributed.events_per_query",
        "distributed.wakes_per_query",
        "distributed.heap_high_water",
        "distributed.peak_queue_depth",
        "distributed.makespan_ticks",
        "distributed.distinct_targets_per_batch",
        "bench.client_busy_frac",
        "bench.trace_overhead_frac",
    };
    return names;
}

unsigned client_count(const RunConfig& config) {
    if (config.clients != 0) return config.clients;
    return std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
}

Report run_workload(const RunConfig& config) {
    const Shape shape = shape_of(config.workload, config.smoke);
    const unsigned clients = client_count(config);
    std::filesystem::create_directories(config.work_dir);
    Report report;
    report.workload = config.workload;

    // kSetups set-ups, each in a fresh process: kSetups - 1 in forked
    // children (before this process starts a thread), then the one that
    // serves the queries, here.
    std::vector<double> setups;
    for (int i = 1; i < kSetups; ++i) setups.push_back(setup_in_child(shape, config));
    Tracer tracer(clients + 1);
    TraceLane* main_lane = config.trace ? &tracer.lane(0) : nullptr;
    const std::int64_t setup_start = now_ns();
    const std::unique_ptr<Instance> instance = set_up(shape, config, main_lane);
    setups.push_back(seconds_between(setup_start, now_ns()));
    const Vertex n = instance->num_vertices();

    NeighborScratch scratch;
    CheckRules rules;
    rules.graph = instance->view(scratch);
    rules.attributes = &instance->girg;
    rules.adversary = instance->adversary.get();
    rules.phi_increases =
        shape.kind == Kind::kGreedyResident || shape.kind == Kind::kColdPackBlob;

    // The inputs: generated from the seed, outside every timed region.
    std::vector<std::pair<Vertex, Vertex>> endpoints;
    std::size_t per_block = 0;
    ServingPass serving;
    std::vector<RoutingQuery> routing;
    RoutingContext ctx;
    if (shape.kind == Kind::kServingHotspot) {
        serving = serving_pass(shape, n, derive_seed(config, kPairs));
        for (const auto& batch : serving.batches) {
            for (const ServingQuery& q : batch) endpoints.emplace_back(q.source, q.target);
        }
        per_block = shape.batch_queries;
    } else {
        routing = routing_pass(shape, n, derive_seed(config, kPairs),
                               shape.kind == Kind::kPatchingHostile);
        for (const RoutingQuery& q : routing) endpoints.emplace_back(q.source, q.target);
        per_block = shape.per_target;
        ctx.instance = instance.get();
        ctx.pass = &routing;
        ctx.per_block = per_block;
        ctx.options.faults = instance->faults.get();
        ctx.options.adversary = instance->adversary.get();
        static const GreedyRouter greedy;
        static const PhiDfsRouter phi_dfs;
        static const GravityPressureRouter gravity;
        static const MessageHistoryRouter history;
        ctx.routers = {&greedy, &phi_dfs, &gravity, &history};
        ctx.pool = std::make_shared<PhiMemoPool>();
    }
    const auto measure = [&](Tracer* trace) {
        return shape.kind == Kind::kServingHotspot
                   ? run_serving_phase(*instance, serving, config, clients, trace)
                   : run_routing_phase(ctx, clients, config.seconds, trace);
    };

    const Phase untraced = measure(nullptr);
    const Validation v =
        validate(untraced, per_block, rules, endpoints, report.notes, config.workload);
    report.outcome_fp = v.outcome_fp;
    report.failed = v.failed;
    report.attempted = untraced.queries;
    end_to_end_metrics(report, shape, setups, untraced, v);
    if (!config.trace) return report;

    const double probe_ns = row_read_ns_per_entry(*instance, config, main_lane);
    const Phase traced = measure(&tracer);
    const Validation tv =
        validate(traced, per_block, rules, endpoints, report.notes, config.workload);
    report.failed += tv.failed;
    report.attempted += traced.queries;
    if (tv.outcome_fp != v.outcome_fp) {
        ++report.failed;
        report.notes.push_back("FAIL " + config.workload +
                               " traced outcome_fp differs from the untraced one");
    }
    per_layer_metrics(report, *instance, untraced, traced, tv, tracer,
                      serving.distinct_targets, probe_ns);
    const std::string dir = config.work_dir + "/traces";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + config.workload + ".trace.json";
    if (!tracer.write_chrome(path, kTraceRequests)) {
        ++report.failed;
        report.notes.push_back("FAIL " + config.workload + " cannot write " + path);
    } else {
        report.notes.push_back("TRACE " + config.workload + " " + path);
    }
    return report;
}

}  // namespace smallworld::e2e
