/**
 * @file
 * Sec 6.4.1: optimization (JIT compilation) overhead on computation
 * graphs of 5,000-10,000 nodes — AStitch's exhaustive stitching, thread
 * mapping and data-management planning vs XLA's fusion, measured as real
 * wall-clock time of this implementation's passes.
 *
 * Per-cluster planning is independent, so the session fans it out across
 * a thread pool (SessionOptions::compile_threads). The sweep below
 * measures serial-vs-parallel compile latency per backend and writes
 * the full (nodes x threads x backend -> compile ms) grid to
 * BENCH_compile.json so future PRs can track compile-latency
 * regressions. Override the output path with $ASTITCH_BENCH_JSON.
 *
 * A robustness column prices fault tolerance: the idle cost of armed
 * fault-injection points and the recompile cost of demoting the whole
 * graph to each fallback-ladder rung. Written to BENCH_robustness.json
 * (override with $ASTITCH_BENCH_ROBUSTNESS_JSON).
 *
 * A verification column prices shape-parametric (AS8xx) certification:
 * warming K=16 power-of-two buckets and serving several shapes per
 * bucket under Proven certificates vs the per-concrete-shape baseline
 * that re-runs the AS7xx verifier for every distinct served shape. The
 * verifierPlanRuns() deltas go to BENCH_verify.json (override with
 * $ASTITCH_BENCH_VERIFY_JSON).
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/kernel_verifier.h"
#include "bench_common.h"
#include "graph/graph_builder.h"
#include "runtime/dynamic_session.h"
#include "support/strings.h"
#include "workloads/random_graph.h"

using namespace astitch;
using namespace astitch::bench;

namespace {

Graph
randomGraph(int nodes, unsigned seed)
{
    workloads::RandomGraphConfig config;
    config.num_nodes = nodes;
    config.seed = seed;
    return workloads::buildRandomGraph(config);
}

/** Cap on remote stitching during the thread sweep: remote stitching
 * stops merging clusters once a merge would exceed this many nodes, so
 * it no longer folds a random graph into ~2 mega-clusters and caps
 * cluster-level parallelism at 2x. The cap bounds remote stitching
 * only: the memory-intensive clusters it starts from can be far larger
 * (clustering still yields 7,668-node clusters at cap 64). */
constexpr int kSweepMaxClusterNodes = 64;

/**
 * Sweep graph: like randomGraph() but with enough compute-intensive
 * dividers (matmuls) that the memory-intensive regions split into many
 * independent clusters. Real serving graphs interleave GEMMs with
 * memory-intensive subgraphs the same way; the seed's 2% matmul rate
 * produces a handful of mega-components that cap cluster-level
 * parallelism regardless of thread count.
 */
Graph
sweepGraph(int nodes, unsigned seed)
{
    workloads::RandomGraphConfig config;
    config.num_nodes = nodes;
    config.seed = seed;
    config.matmul_probability = 0.15;
    return workloads::buildRandomGraph(config);
}

double
compileOnce(const Graph &graph, Which which, int threads,
            std::size_t *num_clusters = nullptr)
{
    SessionOptions options;
    options.compile_threads = threads;
    options.max_cluster_nodes = kSweepMaxClusterNodes;
    Session session(graph, makeBackend(which), options);
    const double ms = session.compile();
    if (num_clusters)
        *num_clusters = session.clusters().size();
    return ms;
}

void
printCompileOverhead()
{
    printHeader("Sec 6.4.1: optimization overhead on 5k-10k node "
                "graphs (wall-clock of this implementation)");
    std::printf("%-8s %12s %14s %14s\n", "nodes", "clusters",
                "XLA compile", "AStitch compile");
    for (int nodes : {5000, 7500, 10000}) {
        const Graph graph = randomGraph(nodes, 17);
        Session xla(graph, makeBackend(Which::Xla));
        const double xla_ms = xla.compile();
        Session as(graph, makeBackend(Which::AStitch));
        const double as_ms = as.compile();
        std::printf("%-8d %12zu %11.1f ms %11.1f ms\n", nodes,
                    as.clusters().size(), xla_ms, as_ms);
    }
    std::printf("(paper: ~90s AStitch vs ~30s XLA at this scale on the "
                "full TF stack — a one-time JIT cost, far below "
                "search-based tuning)\n");
}

void
printPassBreakdown()
{
    printHeader("Per-pass compile breakdown "
                "(Session::passTimings(), AStitch backend)");
    std::printf("%-8s %8s %11s %9s %10s %10s %9s %9s\n", "nodes",
                "threads", "clustering", "stitch", "backend*",
                "analysis*", "parallel", "schedule");
    for (int nodes : {5000, 10000}) {
        const Graph graph = sweepGraph(nodes, 17);
        for (int threads : {1, 8}) {
            SessionOptions options;
            options.compile_threads = threads;
            options.max_cluster_nodes = kSweepMaxClusterNodes;
            Session session(graph, makeBackend(Which::AStitch), options);
            session.compile();
            const CompilePassTimings &t = session.passTimings();
            std::printf("%-8d %8d %8.1f ms %6.1f ms %7.1f ms %7.1f ms "
                        "%6.1f ms %6.1f ms\n",
                        nodes, threads, t.clustering_ms,
                        t.remote_stitch_ms, t.backend_compile_ms,
                        t.analysis_ms, t.parallel_section_ms,
                        t.scheduling_ms);
        }
    }
    std::printf("(* CPU time summed across compile threads — can exceed "
                "the wall-clock parallel column)\n");
}

/** One sweep record: compile latency of one configuration. */
struct SweepRecord
{
    int nodes;
    int threads;
    std::string backend;
    double compile_ms;
};

void
printThreadSweep(std::vector<SweepRecord> &records)
{
    printHeader(strCat("Parallel JIT pipeline: compile-thread sweep "
                       "(hardware concurrency: ",
                       std::thread::hardware_concurrency(), ")"));
    std::printf("%-8s %-10s %10s %9s %12s %9s\n", "nodes", "backend",
                "clusters", "threads", "compile", "speedup");
    for (int nodes : {5000, 10000}) {
        const Graph graph = sweepGraph(nodes, 17);
        for (const Which which : {Which::Xla, Which::AStitch}) {
            const std::string name =
                which == Which::Xla ? "xla" : "astitch";
            double serial_ms = 0.0;
            for (int threads : {1, 2, 4, 8}) {
                std::size_t clusters = 0;
                const double ms =
                    compileOnce(graph, which, threads, &clusters);
                if (threads == 1)
                    serial_ms = ms;
                records.push_back(SweepRecord{nodes, threads, name, ms});
                std::printf("%-8d %-10s %10zu %9d %9.1f ms %8.2fx\n",
                            nodes, name.c_str(), clusters, threads, ms,
                            serial_ms / ms);
            }
        }
    }
}

/** nodes x threads x backend -> compile ms, for regression tracking. */
void
writeCompileJson(const std::vector<SweepRecord> &records)
{
    const char *env = std::getenv("ASTITCH_BENCH_JSON");
    const std::string path = env ? env : "BENCH_compile.json";
    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    file << jsonPreamble() << "\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SweepRecord &r = records[i];
        file << (i ? "," : "") << "{\"nodes\":" << r.nodes
             << ",\"threads\":" << r.threads << ",\"backend\":\""
             << r.backend << "\",\"compile_ms\":" << r.compile_ms << "}";
    }
    file << "]}\n";
    std::printf("wrote %zu sweep records to %s\n", records.size(),
                path.c_str());
}

/** One robustness record: compile latency of one fault scenario. */
struct RobustnessRecord
{
    std::string scenario;
    std::string fault_plan;
    std::string max_level;
    double compile_ms;
};

/**
 * Robustness column: what fault tolerance costs. "clean" is the
 * baseline; "armed-idle" installs a fault plan whose sites never fire
 * (the fallback rungs are dead code while rung 0 succeeds), bounding
 * the overhead of having injection checks active at every phase
 * boundary; the remaining rows force every cluster down to the named
 * ladder rung and so measure the recompile cost of each demotion level.
 */
void
printRobustness(std::vector<RobustnessRecord> &records)
{
    struct Scenario
    {
        const char *name;
        const char *plan;
    };
    const Scenario scenarios[] = {
        {"clean", ""},
        {"armed-idle", "ladder-local-only,ladder-loop-fusion"},
        {"local-only", "backend-compile"},
        {"loop-fusion", "backend-compile,ladder-local-only"},
        {"kernel-per-op",
         "backend-compile,ladder-local-only,ladder-loop-fusion"},
    };

    printHeader("Robustness: fault-tolerance overhead and per-rung "
                "fallback recompile cost (AStitch backend, 5k nodes)");
    const Graph graph = sweepGraph(5000, 17);
    std::printf("%-14s %14s %12s %10s\n", "scenario", "ladder level",
                "compile", "vs clean");
    double clean_ms = 0.0;
    for (const Scenario &scenario : scenarios) {
        SessionOptions options;
        options.max_cluster_nodes = kSweepMaxClusterNodes;
        options.fault_plan = scenario.plan;
        Session session(graph, makeBackend(Which::AStitch), options);
        const double ms = session.compile();
        if (clean_ms == 0.0)
            clean_ms = ms;
        const char *level =
            ladderLevelName(session.degradation().maxLevel());
        records.push_back(
            RobustnessRecord{scenario.name, scenario.plan, level, ms});
        std::printf("%-14s %14s %9.1f ms %9.2fx\n", scenario.name,
                    level, ms, ms / clean_ms);
    }
    std::printf("(armed-idle bounds the fault-point tax; the ladder "
                "rows price a full-graph demotion to that rung)\n");
}

/** scenario x fault plan -> compile ms, for regression tracking. */
void
writeRobustnessJson(const std::vector<RobustnessRecord> &records)
{
    const char *env = std::getenv("ASTITCH_BENCH_ROBUSTNESS_JSON");
    const std::string path = env ? env : "BENCH_robustness.json";
    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    file << jsonPreamble() << "\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RobustnessRecord &r = records[i];
        file << (i ? "," : "") << "{\"scenario\":\"" << r.scenario
             << "\",\"fault_plan\":\"" << r.fault_plan
             << "\",\"max_level\":\"" << r.max_level
             << "\",\"compile_ms\":" << r.compile_ms << "}";
    }
    file << "]}\n";
    std::printf("wrote %zu robustness records to %s\n", records.size(),
                path.c_str());
}

/** Dynamic-dim element-wise chain: certifies Proven in every bucket,
 * so the sweep isolates the verifier-run accounting from proof
 * fallbacks. */
Graph
dynamicChain(std::int64_t n)
{
    Graph graph("chain");
    GraphBuilder b(graph);
    NodeId x = b.parameter({n});
    for (int i = 0; i < 8; ++i)
        x = b.add(b.mul(x, b.constantScalar(1.5f)),
                  b.constantScalar(0.25f));
    graph.markOutput(x);
    return graph;
}

/** One verification record: verifier-run accounting of one mode. */
struct VerifyRecord
{
    std::string mode;
    int buckets;
    int serves;
    std::int64_t verifier_runs;
    double wall_ms;
};

/**
 * Verification column: what shape-parametric certificates save. Both
 * modes warm K=16 power-of-two buckets of one dynamic-dim template and
 * serve kServesPerBucket shapes per bucket. "certified" proves each
 * bucket's whole rounding range once at compile time, so the serves
 * ride the certificates; "per-shape" is the pre-AS8xx baseline that
 * re-runs the concrete AS7xx verifier for every distinct served shape
 * beyond the compile shape.
 */
void
printVerifyOverhead(std::vector<VerifyRecord> &records)
{
    constexpr int kBuckets = 16;
    constexpr int kServesPerBucket = 4;

    printHeader(strCat("Shape-parametric verification: certified "
                       "buckets vs per-shape verifier runs (K=",
                       kBuckets, " buckets, ", kServesPerBucket,
                       " serves each)"));

    // Serve shapes spread through bucket (lo, key]: lo+1, midpoint,
    // key-1, key. Dims double so every round lands in a fresh bucket.
    const auto servedShapes = [](std::int64_t key) {
        const std::int64_t lo = std::max<std::int64_t>(1, key / 2 + 1);
        return std::vector<std::int64_t>{
            std::min(lo + 1, key), (lo + key) / 2, key - 1, key};
    };

    using Clock = std::chrono::steady_clock;
    const auto elapsedMs = [](Clock::time_point start) {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         start)
            .count();
    };

    // Certified mode: one DynamicSession, certificates carry every
    // serve after the bucket's single compile-time verification.
    {
        const std::int64_t runs_before = verifierPlanRuns();
        const Clock::time_point start = Clock::now();
        DynamicSessionOptions options;
        options.bucket_to_power_of_two = true;
        options.dim_names = {"n"};
        DynamicSession session(
            [](const std::vector<std::int64_t> &dims) {
                return dynamicChain(dims.at(0));
            },
            [] { return std::make_unique<AStitchBackend>(); }, options);
        std::int64_t dim = 100;
        int serves = 0;
        for (int k = 0; k < kBuckets; ++k, dim *= 2) {
            for (std::int64_t shape :
                 servedShapes(session.bucketFor({dim}).at(0))) {
                session.profile({shape});
                ++serves;
            }
        }
        records.push_back(VerifyRecord{
            "certified", kBuckets, serves,
            verifierPlanRuns() - runs_before, elapsedMs(start)});
    }

    // Baseline mode: the same buckets and serves, but safety comes
    // from re-running the concrete verifier at every distinct served
    // shape (what recordServe's fallback path does when no
    // certificate holds).
    {
        const std::int64_t runs_before = verifierPlanRuns();
        const Clock::time_point start = Clock::now();
        const SessionOptions session_options;
        std::int64_t dim = 100;
        int serves = 0;
        for (int k = 0; k < kBuckets; ++k, dim *= 2) {
            std::int64_t key = 1;
            while (key < dim)
                key <<= 1;
            const Graph graph = dynamicChain(key);
            Session session(graph, std::make_unique<AStitchBackend>(),
                            session_options);
            session.compile(); // verifies the key shape concretely
            for (std::int64_t shape : servedShapes(key)) {
                session.profile();
                ++serves;
                if (shape == key)
                    continue; // compile already verified the key
                DiagnosticEngine scratch;
                for (const CompiledCluster &compiled :
                     session.compiled())
                    verifyCompiledCluster(session.activeGraph(),
                                          compiled,
                                          session_options.spec,
                                          scratch);
            }
        }
        records.push_back(VerifyRecord{
            "per-shape", kBuckets, serves,
            verifierPlanRuns() - runs_before, elapsedMs(start)});
    }

    std::printf("%-12s %8s %7s %14s %10s\n", "mode", "buckets",
                "serves", "verifier runs", "wall");
    for (const VerifyRecord &r : records)
        std::printf("%-12s %8d %7d %14lld %7.1f ms\n", r.mode.c_str(),
                    r.buckets, r.serves,
                    static_cast<long long>(r.verifier_runs), r.wall_ms);
    std::printf("(certified verifies each bucket once for its whole "
                "rounding range; per-shape pays one verifier pass per "
                "distinct served shape)\n");
}

/** mode -> verifier runs, for regression tracking. */
void
writeVerifyJson(const std::vector<VerifyRecord> &records)
{
    const char *env = std::getenv("ASTITCH_BENCH_VERIFY_JSON");
    const std::string path = env ? env : "BENCH_verify.json";
    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    file << jsonPreamble() << "\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const VerifyRecord &r = records[i];
        file << (i ? "," : "") << "{\"mode\":\"" << r.mode
             << "\",\"buckets\":" << r.buckets
             << ",\"serves\":" << r.serves
             << ",\"verifier_runs\":" << r.verifier_runs
             << ",\"wall_ms\":" << r.wall_ms << "}";
    }
    file << "]}\n";
    std::printf("wrote %zu verify records to %s\n", records.size(),
                path.c_str());
}

void
BM_CompileRandomGraph(benchmark::State &state)
{
    const Graph graph = randomGraph(static_cast<int>(state.range(0)), 23);
    const Which which =
        state.range(1) ? Which::AStitch : Which::Xla;
    const int threads = static_cast<int>(state.range(2));
    for (auto _ : state)
        benchmark::DoNotOptimize(compileOnce(graph, which, threads));
}
BENCHMARK(BM_CompileRandomGraph)
    ->Args({5000, 0, 1})
    ->Args({5000, 1, 1})
    ->Args({10000, 0, 1})
    ->Args({10000, 1, 1})
    ->Args({10000, 0, 8})
    ->Args({10000, 1, 8})
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printCompileOverhead();
    printPassBreakdown();
    std::vector<SweepRecord> records;
    printThreadSweep(records);
    writeCompileJson(records);
    std::vector<RobustnessRecord> robustness;
    printRobustness(robustness);
    writeRobustnessJson(robustness);
    std::vector<VerifyRecord> verify;
    printVerifyOverhead(verify);
    writeVerifyJson(verify);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
