#include "pipeline.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "analysis/kernel_verifier.h"
#include "compiler/clustering.h"
#include "core/astitch_backend.h"
#include "runtime/artifact_cache.h"
#include "runtime/jit_cache.h"
#include "support/thread_pool.h"

namespace perfbench {

using namespace astitch;

namespace {

/** The traced twin of Session::compile (see pipeline.h). */
std::unique_ptr<Session>
compileTraced(const Graph &graph, const GpuSpec &spec,
              const std::string &artifact_dir, Tracer *tracer,
              const std::string &label, Outcome &outcome)
{
    Span root(tracer, "runtime.compile");
    JitCacheEntry entry;
    const AStitchBackend backend;
    {
        Span span(tracer, "compiler.cluster");
        entry.clusters = findMemoryIntensiveClusters(graph);
    }
    {
        Span span(tracer, "compiler.stitch");
        entry.clusters = remoteStitch(graph, std::move(entry.clusters),
                                      /*max_cluster_nodes=*/0);
    }
    const std::size_t n = entry.clusters.size();
    entry.compiled.resize(n);
    entry.cluster_diagnostics.resize(n);
    entry.degradation.clusters.resize(n);
    entry.tuning.clusters.resize(n);
    const int parent = root.id();
    parallelFor(kCompileThreads, n, [&](std::size_t i) {
        {
            Span span(tracer, "core.codegen", parent);
            entry.compiled[i] =
                backend.compileCluster(graph, entry.clusters[i], spec);
        }
        Span span(tracer, "analysis.analyze", parent);
        analyzeCompiledCluster(graph, entry.clusters[i], entry.compiled[i],
                               spec, entry.cluster_diagnostics[i],
                               AnalysisOptions{});
    });

    // Session::compileCacheKey for default options.
    const std::string key = JitCache::makeKey(graph, backend.name(), spec);
    if (!artifact_dir.empty()) {
        Span span(tracer, "runtime.artifact_store");
        ArtifactCache cache(artifact_dir);
        ArtifactCache::Lease lease =
            cache.acquire(key, graph, spec, AnalysisOptions{}, nullptr);
        outcome.check(!lease.entry && lease.lock,
                      label + ": cold artifact directory was not empty");
        if (lease.lock)
            outcome.check(cache.publish(lease, key, entry, nullptr),
                          label + ": artifact store failed");
    }

    SessionOptions options;
    options.spec = spec;
    options.compile_threads = kCompileThreads;
    options.use_jit_cache = true;
    JitCache::global().insert(key, std::move(entry));
    auto session = std::make_unique<Session>(
        graph, std::make_unique<AStitchBackend>(), options);
    {
        Span span(tracer, "runtime.schedule");
        session->compile();
    }
    const JitCache::Stats stats = JitCache::global().stats();
    outcome.check(stats.hits == 1 && stats.misses == 0,
                  label + ": traced plans were not adopted from the JIT "
                          "cache");
    JitCache::global().clear();
    return session;
}

} // namespace

ColdCompile
compileCold(const Graph &graph, const GpuSpec &spec,
            const std::string &artifact_dir, Tracer *tracer,
            const std::string &label, Outcome &outcome)
{
    ColdCompile out;
    const std::int64_t runs_before = verifierPlanRuns();
    const Clock::time_point t0 = Clock::now();
    if (tracer) {
        out.session = compileTraced(graph, spec, artifact_dir, tracer,
                                    label, outcome);
    } else {
        SessionOptions options;
        options.spec = spec;
        options.compile_threads = kCompileThreads;
        options.artifact_cache_dir = artifact_dir;
        out.session = std::make_unique<Session>(
            graph, std::make_unique<AStitchBackend>(), options);
        out.session->compile();
    }
    out.wall_s = secondsSince(t0);
    const std::int64_t runs = verifierPlanRuns() - runs_before;

    const std::vector<Cluster> &clusters = out.session->clusters();
    out.clusters = static_cast<int>(clusters.size());
    for (const Cluster &cluster : clusters)
        out.max_cluster_nodes = std::max(
            out.max_cluster_nodes, static_cast<int>(cluster.nodes.size()));
    for (const CompiledCluster &compiled : out.session->compiled())
        out.kernels += static_cast<int>(compiled.kernels.size());
    out.error_findings = out.session->diagnostics().count(Severity::Error);
    out.demoted = out.session->degradation().degraded();
    out.verifier_runs_per_cluster =
        out.clusters > 0 ? static_cast<double>(runs) / out.clusters : 0.0;

    outcome.check(out.error_findings == 0,
                  label + ": analyzer Error finding(s)");
    outcome.check(!out.demoted, label + ": compile demoted below "
                                        "FullStitch");
    return out;
}

void
PassTotals::addCompile(const ColdCompile &compile)
{
    clusters += compile.clusters;
    max_cluster_nodes = std::max(max_cluster_nodes, compile.max_cluster_nodes);
    kernels += compile.kernels;
    error_findings += compile.error_findings;
    verifier_runs += compile.verifier_runs_per_cluster * compile.clusters;
}

double
PassTotals::addProfile(const RunReport &report)
{
    latencies_us.push_back(report.end_to_end_us);
    mem_kernels +=
        report.counters.kernelCount(KernelCategory::MemoryIntensive);
    // DRAM transactions are 32-byte sectors.
    dram_mb += static_cast<double>(report.counters.dramReadTransactions() +
                                   report.counters.dramWriteTransactions()) *
               32.0 / 1e6;
    occupancy_top80_sum += report.counters.avgOccupancyTop(0.8);
    overhead_us += report.counters.totalOverhead();
    return report.end_to_end_us;
}

void
PassTotals::report(Metrics &m) const
{
    m.set("sim.latency_us", geomean(latencies_us), "sim_us");
    m.set("sim.mem_kernels", mem_kernels, "count");
    m.set("sim.dram_mb", dram_mb, "MB");
    m.set("sim.occupancy_top80",
          occupancy_top80_sum / static_cast<double>(latencies_us.size()),
          "ratio");
    m.set("sim.overhead_us", overhead_us, "sim_us");
    m.set("compiler.clusters", clusters, "count");
    m.set("compiler.max_cluster_nodes", max_cluster_nodes, "count");
    m.set("core.kernels", kernels, "count");
    m.set("analysis.verifier_runs_per_cluster",
          clusters > 0 ? verifier_runs / clusters : 0.0, "ratio");
    m.set("analysis.errors", error_findings, "count");
}

std::vector<std::string>
PassTotals::metricNames()
{
    return {"sim.latency_us",    "sim.mem_kernels",
            "sim.dram_mb",       "sim.occupancy_top80",
            "sim.overhead_us",   "compiler.clusters",
            "compiler.max_cluster_nodes", "core.kernels",
            "analysis.verifier_runs_per_cluster", "analysis.errors"};
}

} // namespace perfbench
