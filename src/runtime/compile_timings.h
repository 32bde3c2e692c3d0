/**
 * @file
 * Per-pass wall/CPU timing breakdown of one JIT compilation.
 *
 * Sec 6.4.1 reports compilation overhead as a single wall-clock number;
 * scaling work needs to know *which* pass the time went to. The session
 * fills one of these per compilation and carries it in the JitCacheEntry
 * (a cache hit reports the timings of the compile that produced the
 * entry, not zero).
 */
#ifndef ASTITCH_RUNTIME_COMPILE_TIMINGS_H
#define ASTITCH_RUNTIME_COMPILE_TIMINGS_H

namespace astitch {

/**
 * Milliseconds spent in each compile pass.
 *
 * Wall-clock fields (clustering_ms, remote_stitch_ms,
 * parallel_section_ms, scheduling_ms) are disjoint spans of the
 * compiling thread and sum to roughly the session's compile_ms.
 * CPU-sum fields (backend_compile_ms, analysis_ms, autotune_ms) are
 * thread CPU time (CLOCK_THREAD_CPUTIME_ID) accumulated across the
 * parallel compile's threads: time a thread spends descheduled does
 * not count, so with N threads they exceed parallel_section_ms only
 * through real parallelism — their ratio to it is the effective
 * parallel speedup.
 */
struct CompilePassTimings
{
    /** findMemoryIntensiveClusters() — wall. */
    double clustering_ms = 0.0;

    /** remoteStitch() — wall (0 when the backend declines it). */
    double remote_stitch_ms = 0.0;

    /** Per-cluster backend codegen (fallback ladder included) — CPU
     * time summed over all compile threads. */
    double backend_compile_ms = 0.0;

    /** Per-cluster plan analysis — CPU time summed over all workers. */
    double analysis_ms = 0.0;

    /** Per-cluster autotuning search (candidate compiles + scoring) —
     * CPU time summed over all workers; 0 with tuning off. */
    double autotune_ms = 0.0;

    /** The whole parallel compile+analyze fan-out — wall. */
    double parallel_section_ms = 0.0;

    /** Unit-DAG construction + Kahn scheduling — wall. */
    double scheduling_ms = 0.0;

    /**
     * Reading + decoding a persisted artifact from the on-disk cache —
     * wall. Nonzero only on a warm (disk-hit) start; the compile-pass
     * fields above are then all zero (no pass ran — the compile that
     * produced the artifact paid them in its own process), which is
     * exactly what CI asserts to prove a warm start skipped the
     * backend compiler.
     */
    double artifact_load_ms = 0.0;

    /** Re-running the analyzer gate over a loaded artifact — wall. */
    double artifact_verify_ms = 0.0;

    /** True when this compilation was served from a disk artifact (the
     * artifact_* spans were spent instead of the compile passes). */
    bool fromArtifact() const
    {
        return artifact_load_ms > 0.0 || artifact_verify_ms > 0.0;
    }

    /** Sum of the disjoint wall-clock spans (the CPU-sum fields are
     * contained within parallel_section_ms and not added again). */
    double accountedWallMs() const
    {
        return clustering_ms + remote_stitch_ms + parallel_section_ms +
               scheduling_ms + artifact_load_ms + artifact_verify_ms;
    }
};

} // namespace astitch

#endif // ASTITCH_RUNTIME_COMPILE_TIMINGS_H
