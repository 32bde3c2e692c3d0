/**
 * @file
 * Cold AStitch compilation as the compile workloads drive it.
 *
 * Untraced, a compile is one Session::compile() call. Traced, the
 * same passes are driven one public call at a time, in the order
 * Session::compile uses them, with a span around each:
 *
 *   findMemoryIntensiveClusters -> remoteStitch ->
 *   (per cluster, on the compile pool) Backend::compileCluster ->
 *   analyzeCompiledCluster
 *
 * The traced result is handed to a Session through the process JIT
 * cache (and to disk through ArtifactCache when a directory is given),
 * so the profile that follows simulates the very plans that were
 * traced.
 */
#ifndef ASTITCH_PERFBENCH_PIPELINE_H
#define ASTITCH_PERFBENCH_PIPELINE_H

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "runtime/run_report.h"
#include "runtime/session.h"

namespace perfbench {

/** A compiled, profile-ready session plus the public facts of its
 * compile. */
struct ColdCompile
{
    std::unique_ptr<astitch::Session> session;
    double wall_s = 0.0;
    int clusters = 0;
    int max_cluster_nodes = 0;
    int kernels = 0;
    int error_findings = 0;
    bool demoted = false;
    /** verifierPlanRuns() delta over the compile / cluster count. */
    double verifier_runs_per_cluster = 0.0;
};

/**
 * Cold-compile @p graph with AStitch on @p spec. A non-empty
 * @p artifact_dir persists the result to the on-disk artifact cache.
 * Failed checks (analyzer Error findings, demoted clusters) land in
 * @p outcome under @p label.
 */
ColdCompile compileCold(const astitch::Graph &graph,
                        const astitch::GpuSpec &spec,
                        const std::string &artifact_dir, Tracer *tracer,
                        const std::string &label, Outcome &outcome);

/** Compile facts and simulated figures summed over one pass. */
struct PassTotals
{
    int clusters = 0;
    int max_cluster_nodes = 0;
    int kernels = 0;
    int error_findings = 0;
    double verifier_runs = 0.0;
    std::vector<double> latencies_us;
    int mem_kernels = 0;
    double dram_mb = 0.0;
    double occupancy_top80_sum = 0.0;
    double overhead_us = 0.0;

    void addCompile(const ColdCompile &compile);
    /** Returns the simulated end-to-end latency of @p report. */
    double addProfile(const astitch::RunReport &report);
    /** Set the compiler.*, core.kernels, analysis.* and sim.* figures. */
    void report(Metrics &metrics) const;
    /** Their names: all repeat exactly for one seed. */
    static std::vector<std::string> metricNames();
};

} // namespace perfbench

#endif // ASTITCH_PERFBENCH_PIPELINE_H
