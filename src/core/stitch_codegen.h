/**
 * @file
 * Stitch-op code generation: one GPU kernel per stitched cluster.
 *
 * Orchestrates the whole AStitch pipeline of Sec 4: dominant analysis ->
 * adaptive thread mapping + schedule propagation -> passive/proactive
 * locality -> memory planning -> resource-aware launch configuration ->
 * a single KernelPlan with hierarchical data reuse (register / shared /
 * global buffering, no recomputation).
 */
#ifndef ASTITCH_CORE_STITCH_CODEGEN_H
#define ASTITCH_CORE_STITCH_CODEGEN_H

#include "analysis/access_model.h"
#include "core/launch_config.h"
#include "core/memory_planner.h"

namespace astitch {

/**
 * Explicit per-cluster decisions imposed on the heuristic pipeline (the
 * autotuner's handle, see src/opt/autotuner.h): stitch-scheme choices
 * for boundary values and thread-mapping overrides keyed by group
 * dominant. Empty (the default) leaves the pipeline untouched. Scheme
 * overrides apply only to values the locality pass already assigned a
 * scheme, and never relax an atomics/split producer below Global; the
 * memory planner may still demote a forced Regional on budget.
 */
struct TuningOverrides
{
    std::unordered_map<NodeId, StitchScheme> schemes;
    MappingOverrideMap mappings;

    bool empty() const { return schemes.empty() && mappings.empty(); }
};

/** Feature switches, matching the paper's ablation study (Table 4). */
struct AStitchOptions
{
    /** Adaptive thread mapping (task packing/splitting) — "ATM". */
    bool adaptive_thread_mapping = true;

    /**
     * Exhaustive stitching with hierarchical data management — "HDM".
     * When false, the backend falls back to XLA's fusion scopes (but can
     * still apply adaptive mappings to them).
     */
    bool hierarchical_stitching = true;

    /** Dominant merging (operator-level data reuse). */
    bool dominant_merging = true;

    /** Shared-memory budget per block; <= 0 uses the device limit. */
    std::int64_t smem_budget_per_block = 0;

    /** Autotuner decisions to impose; empty keeps pure heuristics. */
    TuningOverrides tuning;
};

/** Introspection output for tests and the compiler-explorer example. */
struct StitchDiagnostics
{
    DominantAnalysis analysis;
    std::vector<GroupSchedule> schedules;
    MemoryPlan memory;
    LaunchConfig launch;
};

/**
 * Append the write-after-read separators shared-arena reuse needs to
 * @p plan.barriers. Two slots whose bytes overlap and whose values live
 * at disjoint schedule intervals need a barrier between the earlier
 * value's last reader and the later value's definition; when none sits
 * there, a block barrier after the op just before that definition is
 * appended. Pairs are visited in (a, b) slot order, so one separator
 * can cover several later pairs. @p op_pos maps each slot's node to its
 * schedule position; @p last_reader holds, per position, the last
 * in-kernel reader's position (its own when it has none).
 */
void placeArenaReuseBarriers(KernelPlan &plan,
                             const std::unordered_map<NodeId, int> &op_pos,
                             const std::vector<int> &last_reader);

/**
 * Compile @p cluster into a single stitched kernel.
 * @p diagnostics, when non-null, receives the intermediate pass results.
 */
CompiledCluster compileStitchOp(const Graph &graph, const Cluster &cluster,
                                const GpuSpec &spec,
                                const AStitchOptions &options,
                                StitchDiagnostics *diagnostics = nullptr);

} // namespace astitch

#endif // ASTITCH_CORE_STITCH_CODEGEN_H
