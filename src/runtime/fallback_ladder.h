/**
 * @file
 * Per-cluster fallback ladder: error containment for JIT compilation.
 *
 * A cluster whose compilation throws is not a reason to fail the whole
 * graph — every memory-intensive cluster has a trivially correct
 * compilation (one kernel per operator). compileClusterWithLadder()
 * walks a cluster down progressively simpler strategies until one
 * succeeds:
 *
 *   0  the configured backend as-is (full stitching for AStitch)
 *   1  Local-only stitching: loop fusion + adaptive thread mappings,
 *      no Regional/Global schemes (no smem arena, no global barriers)
 *   2  plain loop fusion with naive mappings
 *   3  kernel-per-op — total by construction, compiled under a
 *      FaultShield so not even injected faults can reach it
 *
 * Transient faults retry the *same* rung (bounded); anything else
 * demotes. The outcome records the final rung, retry count and one
 * cause string per demotion for the session's degradation report.
 */
#ifndef ASTITCH_RUNTIME_FALLBACK_LADDER_H
#define ASTITCH_RUNTIME_FALLBACK_LADDER_H

#include "compiler/backend.h"
#include "runtime/degradation.h"

namespace astitch {

/** Same-rung retries the recovery paths (the ladder and the session's
 * clustering, parallel-section and cache-publish loops) grant a
 * transient fault before treating it as permanent. */
constexpr int kMaxTransientRetries = 2;

/** Ladder behaviour knobs (from SessionOptions). */
struct LadderPolicy
{
    /** Disable containment: rethrow the first failure unchanged. */
    bool fail_fast = false;

    /**
     * First rung to attempt. FullStitch (the default) is the normal
     * ladder; a lower start skips the rungs above it entirely — the
     * serving runtime's load-shedding path compiles straight at
     * LoopFusion to answer a request now, while a second compilation
     * starts from FullStitch in the background. A skipped prefix is
     * recorded as a demotion cause so the outcome reads as degraded.
     */
    LadderLevel start_level = LadderLevel::FullStitch;
};

/** How one cluster's walk down the ladder ended. */
struct LadderOutcome
{
    CompiledCluster compiled;
    ClusterDegradation degradation;
};

/**
 * Level-3 compilation: one kernel per operator in the cluster, naive
 * mappings, no cross-op reuse. Mirrors the framework-executor baseline
 * minus its per-op dispatch overhead. Never throws for any cluster a
 * backend could be handed.
 */
CompiledCluster compileClusterKernelPerOp(const Graph &graph,
                                          const Cluster &cluster,
                                          const GpuSpec &spec);

/**
 * Compile @p cluster via @p backend, demoting down the ladder on
 * failure. Throws only when policy.fail_fast is set (the original
 * exception) — otherwise always returns a compiled cluster.
 */
LadderOutcome compileClusterWithLadder(const Graph &graph,
                                       const Cluster &cluster,
                                       const GpuSpec &spec,
                                       const Backend &backend,
                                       const LadderPolicy &policy);

} // namespace astitch

#endif // ASTITCH_RUNTIME_FALLBACK_LADDER_H
