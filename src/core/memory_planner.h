/**
 * @file
 * Memory usage optimization (Sec 4.4).
 *
 * Regional buffers live in shared memory; the planner sizes them per
 * block, reuses slots by liveness (a dominance/last-use analysis over the
 * schedule order), and — when the per-block budget is exceeded — demotes
 * Regional boundaries to Global one by one until the usage fits. Global
 * scratch tensors are likewise liveness-packed and the peak footprint
 * reported.
 */
#ifndef ASTITCH_CORE_MEMORY_PLANNER_H
#define ASTITCH_CORE_MEMORY_PLANNER_H

#include <map>
#include <set>
#include <utility>

#include "core/locality_check.h"

namespace astitch {

/** Result of shared/global memory planning for one stitch op. */
struct MemoryPlan
{
    /** Final schemes (input schemes possibly demoted Regional->Global). */
    SchemeMap schemes;

    /** Static shared memory per block after liveness reuse (bytes). */
    std::int64_t smem_per_block = 0;

    /**
     * Concrete shared-arena byte assignments for every Regional
     * intermediate with in-kernel consumers (first-fit over liveness
     * intervals; disjoint lifetimes may reuse the same bytes). Offsets
     * are absolute within the block's shared memory: the reduction
     * scratch slab occupies [0, scratch) and slots start after it.
     * The stitch sanitizer's lifetime-overlap check runs over these.
     */
    std::vector<SharedSlot> arena;

    /** Peak global scratch after liveness reuse (bytes). */
    std::int64_t global_scratch_bytes = 0;

    /** Boundaries demoted Regional->Global by the budget. */
    int num_demoted = 0;

    /**
     * Non-reduce boundaries whose regional buffer overflowed: instead of
     * spilling them to global memory, their (element-wise) values are
     * recomputed inside each consuming group — XLA-style per-element
     * rematerialization, which trades reads + instructions for the
     * write+read of a spill. Reductions can never be rematerialized
     * (pattern (1)): they demote to Global instead.
     */
    std::set<NodeId> rematerialized;
};

/**
 * Liveness intervals keyed by defining node: def -> (last use, bytes).
 * Every last use is at or after its def.
 */
using LivenessIntervals = std::map<NodeId, std::pair<NodeId, std::int64_t>>;

/** A concrete arena layout: slot offsets plus the bytes they span. */
struct ArenaLayout
{
    std::int64_t extent = 0;
    std::vector<SharedSlot> slots; ///< one per interval, in def order
};

/**
 * First-fit storage allocation over liveness intervals [def, last_use]:
 * values whose lifetimes are disjoint may share bytes, concurrently-live
 * values get disjoint ranges. Each value takes the lowest offset that
 * fits between the byte ranges of the values still live at its def.
 * Allocating in definition order keeps the layout deterministic and,
 * for the chain-shaped lifetimes stitched clusters produce, matches the
 * event-scan peak.
 */
ArenaLayout allocateArena(const LivenessIntervals &intervals);

/**
 * Plan buffer placement. @p smem_budget <= 0 uses the device's per-block
 * shared-memory limit.
 */
MemoryPlan planMemory(const Graph &graph, const Cluster &cluster,
                      const DominantAnalysis &analysis,
                      const std::vector<GroupSchedule> &schedules,
                      SchemeMap schemes, const GpuSpec &spec,
                      std::int64_t smem_budget = 0);

} // namespace astitch

#endif // ASTITCH_CORE_MEMORY_PLANNER_H
