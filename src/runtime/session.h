/**
 * @file
 * The Session: JIT compile a graph with a backend and simulate a run.
 *
 * Mirrors the paper's deployment model (Sec 5): the session partitions
 * the computation graph into compute-intensive library calls and
 * memory-intensive clusters, hands each cluster to the active backend's
 * fusion/codegen, caches the compilation (JIT happens once), and then
 * executes: functionally through the compiled plans (correctness) and
 * analytically through the device model (time + counters).
 */
#ifndef ASTITCH_RUNTIME_SESSION_H
#define ASTITCH_RUNTIME_SESSION_H

#include <memory>

#include "analysis/diagnostics.h"
#include "compiler/backend.h"
#include "compiler/evaluator.h"
#include "opt/autotuner.h"
#include "runtime/degradation.h"
#include "runtime/jit_cache.h"
#include "runtime/run_report.h"

namespace astitch {

/** Session configuration. */
struct SessionOptions
{
    GpuSpec spec = GpuSpec::v100();

    /** Bound on remote-stitched cluster size; <= 0 means unbounded. */
    int max_cluster_nodes = 0;

    /**
     * Run the standard optimization pipeline (algebraic simplify,
     * constant folding, CSE, DCE) before clustering — the non-fusion XLA
     * optimizations AStitch retains (Sec 5). Feeds keep binding to the
     * original graph's parameter ids; the session translates them.
     */
    bool enable_optimizer = false;

    /** Share compilations across sessions via the global JIT cache. */
    bool use_jit_cache = false;

    /**
     * Directory of the crash-safe on-disk artifact cache
     * (runtime/artifact_cache.h); "" (the default) disables the disk
     * tier. When set, a compilation misses the in-memory cache, is
     * looked up on disk, re-verified by the analyzer, and served
     * without recompiling; misses compile and persist the result. All
     * disk failures degrade to an in-memory recompile with AS62x
     * diagnostics. Composes with use_jit_cache (memory in front of
     * disk) but does not require it.
     */
    std::string artifact_cache_dir;

    /** Bounded wait for the artifact cache's cross-process file lock
     * before skipping the disk tier (AS625). */
    double artifact_lock_timeout_ms = 10000.0;

    /** Promote analysis errors to fatal() at compile time. */
    bool strict_analysis = false;

    /**
     * Threads for per-cluster JIT compilation + analysis. Clusters are
     * independent, so compilation fans out across a work-queue pool;
     * results commit in cluster order, so any thread count produces
     * bit-identical plans, diagnostics and reports. 0 resolves through
     * $ASTITCH_COMPILE_THREADS, then hardware concurrency; 1 is fully
     * serial (no pool).
     */
    int compile_threads = 0;

    /**
     * Disable fault containment: the first compilation failure rethrows
     * to the caller (the pre-ladder behaviour). With containment on
     * (the default), a failing cluster demotes down the fallback ladder
     * — Local-only stitching, then loop fusion, then kernel-per-op —
     * and the compile succeeds degraded; see Session::degradation().
     */
    bool fail_fast = false;

    /**
     * Fault-injection plan installed for the duration of this session's
     * compile ($ASTITCH_FAULT syntax, see support/fault_injection.h).
     * A test/CI facility; empty (the default) injects nothing.
     */
    std::string fault_plan;

    /**
     * First fallback-ladder rung to attempt per cluster. FullStitch
     * (the default) compiles normally; a lower rung (e.g. LoopFusion)
     * skips the stitching pipeline entirely for a fast, deliberately
     * degraded compilation — the serving runtime's load-shedding path.
     * A non-default rung is part of the compile cache key, and degraded
     * entries never persist to the artifact cache, so a forced-fallback
     * compile can never shadow (or be shadowed by) the full one.
     */
    LadderLevel start_ladder_level = LadderLevel::FullStitch;

    /**
     * Declared dynamic-dimension ranges for shape-parametric (AS8xx)
     * certification. When non-empty, every compiled kernel plan gets
     * symbolic access twins and a ShapeCertificate over these ranges
     * (carried through the JIT cache with the plans); the parametric
     * findings accumulate in Session::diagnostics(). Empty disables
     * the pass.
     */
    std::vector<ShapeDim> shape_params;

    /**
     * Cost-model-guided autotuning of every full-stitch cluster after
     * clustering (see opt/autotuner.h): mode Off (the default) keeps
     * the pure heuristics; Seeded runs a beam search from the
     * heuristic plan; Full adds evolutionary mutation rounds. Budgets,
     * seed and the persistent tuning-DB path ride in here. Tuning only
     * applies to the AStitch backend's stitched compilations; other
     * backends and demoted ladder rungs are left untouched. Results
     * are reported per cluster in RunReport::tuning and timed in
     * CompilePassTimings::autotune_ms.
     */
    TuningOptions tuning;
};

/** Compile-once, run-many execution session. */
class Session
{
  public:
    Session(const Graph &graph, std::unique_ptr<Backend> backend,
            SessionOptions options = {});
    ~Session();

    /**
     * JIT-compile all memory-intensive clusters (no-op when cached).
     * Returns the wall-clock compilation time in ms.
     */
    double compile();

    /**
     * Simulate one execution with functional evaluation through the
     * compiled plans. @p feeds must bind every graph parameter.
     */
    RunReport run(const TensorMap &feeds);

    /** Simulate one execution without computing tensor values. */
    RunReport profile();

    const Graph &graph() const { return graph_; }

    /** The graph actually compiled (post-optimizer when enabled). */
    const Graph &activeGraph() const;

    Backend &backend() { return *backend_; }
    const std::vector<Cluster> &clusters();
    const std::vector<CompiledCluster> &compiled();

    /** Analysis findings accumulated while compiling (compiles first). */
    const DiagnosticEngine &diagnostics();

    /** How far compilation degraded down the fallback ladder — clean
     * (degraded() == false) unless containment kicked in. Compiles
     * first. */
    const DegradationReport &degradation();

    /** Per-pass breakdown of the compile (entry timings + this
     * session's scheduling span). Compiles first. */
    const CompilePassTimings &passTimings();

    /** Per-cluster autotuning outcomes of the active compilation
     * (enabled == false when tuning was off). Compiles first. */
    const TuningReport &tuningReport();

    /** Tally of per-plan certificate verdicts (see ShapeCertificate);
     * all zeros unless shape_params were declared. Compiles first. */
    struct CertificateSummary
    {
        int proven = 0;
        int fallback = 0;
        int refuted = 0;
        int none = 0;
    };
    CertificateSummary certificateSummary();

  private:
    RunReport execute(const TensorMap *feeds);

    /** Cluster + compile + analyze the whole graph: the parallel
     * section, with per-cluster fallback-ladder containment. Pure with
     * respect to session state; degradation lands in the entry. */
    JitCacheEntry compileAllClusters(const Graph &graph) const;

    /** Full identity key of this session's compilation (graph,
     * backend, device, shape ranges, tuning knobs, start rung, cluster
     * bound) — shared by the in-memory JIT cache and the on-disk
     * artifact cache. */
    std::string compileCacheKey(const Graph &graph) const;

    /** Obtain the entry through the artifact/JIT caches / fallback
     * ladder and record session-scope recoveries (cache bypass,
     * retries). */
    void compileEntry(const Graph &graph);

    /** Adopt an entry: merge diagnostics in cluster order, emit the
     * AS6xx degradation findings, and apply this session's
     * validation/strictness policy. */
    void commitEntry(std::shared_ptr<const JitCacheEntry> entry);

    /** Map original-graph feeds onto the active graph's parameters. */
    TensorMap translateFeeds(const TensorMap &feeds) const;

    const Graph &graph_;
    std::unique_ptr<Graph> optimized_;
    std::unique_ptr<Backend> backend_;
    SessionOptions options_;

    bool compiled_valid_ = false;
    double compile_ms_ = 0.0;
    /** The compilation this session executes — possibly shared with
     * other sessions through the JIT cache (never copied out of it). */
    std::shared_ptr<const JitCacheEntry> entry_;
    DiagnosticEngine diagnostics_;
    /** entry_->degradation plus session-scope recovery flags. */
    DegradationReport degradation_;
    /** entry_->timings plus this session's scheduling span. */
    CompilePassTimings pass_timings_;

    /** Execution order of units: cluster index (>= 0) or ~node for
     * library/compute nodes (< 0). */
    std::vector<std::int64_t> unit_order_;
};

} // namespace astitch

#endif // ASTITCH_RUNTIME_SESSION_H
