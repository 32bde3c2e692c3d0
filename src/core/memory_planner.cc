#include "core/memory_planner.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "support/fault_injection.h"
#include "support/logging.h"

namespace astitch {

namespace {

/** Per-block bytes of a Regional buffer for node @p x in group @p g. */
std::int64_t
regionalBytesPerBlock(const Graph &graph, const GroupSchedule &sched,
                      NodeId x)
{
    const Node &node = graph.node(x);
    const std::int64_t elems = node.shape().numElements();
    const std::int64_t grid = std::max<std::int64_t>(
        1, sched.mapping.launch.grid);
    const std::int64_t logical_blocks =
        grid * std::max<std::int64_t>(1, sched.mapping.tasks_per_block);
    const std::int64_t per_block =
        (elems + logical_blocks - 1) / logical_blocks;
    return per_block * dtypeSizeBytes(node.dtype());
}

/**
 * Peak footprint of liveness intervals [def, last_use] after slot reuse:
 * a scan over the schedule order accumulating live sizes.
 */
std::int64_t
peakLiveBytes(const LivenessIntervals &intervals)
{
    // Events: +size at def, -size after last use.
    std::map<NodeId, std::int64_t> delta;
    for (const auto &[def, entry] : intervals) {
        delta[def] += entry.second;
        delta[entry.first + 1] -= entry.second;
    }
    std::int64_t live = 0;
    std::int64_t peak = 0;
    for (const auto &[pos, d] : delta) {
        live += d;
        peak = std::max(peak, live);
    }
    return peak;
}

} // namespace

ArenaLayout
allocateArena(const LivenessIntervals &intervals)
{
    using Range = std::pair<std::int64_t, std::int64_t>;
    using LiveSlot = std::pair<NodeId, std::multiset<Range>::iterator>;
    const auto ends_later = [](const LiveSlot &x, const LiveSlot &y) {
        return x.first > y.first;
    };
    ArenaLayout layout;
    // Byte ranges of the slots live at the current def, ordered by
    // (lo, hi), and the same slots in a min-heap on their last use.
    std::multiset<Range> busy;
    std::priority_queue<LiveSlot, std::vector<LiveSlot>,
                        decltype(ends_later)>
        live(ends_later);
    for (const auto &[def, entry] : intervals) {
        const NodeId last = entry.first;
        const std::int64_t size = entry.second;
        panicIf(last < def, "liveness interval of %", def,
                " ends before it starts");
        // Slots are allocated in def order, so a slot stays busy
        // exactly while its last use has not passed this def.
        while (!live.empty() && live.top().first < def) {
            busy.erase(live.top().second);
            live.pop();
        }
        std::int64_t offset = 0;
        for (const auto &[lo, hi] : busy) {
            if (offset + size <= lo)
                break;
            offset = std::max(offset, hi);
        }
        live.emplace(last, busy.emplace(offset, offset + size));
        layout.slots.push_back(SharedSlot{def, offset, size});
        layout.extent = std::max(layout.extent, offset + size);
    }
    return layout;
}

MemoryPlan
planMemory(const Graph &graph, const Cluster &cluster,
           const DominantAnalysis &analysis,
           const std::vector<GroupSchedule> &schedules, SchemeMap schemes,
           const GpuSpec &spec, std::int64_t smem_budget)
{
    faultPoint("memory-planner");
    MemoryPlan plan;
    if (smem_budget <= 0)
        smem_budget = spec.smem_per_block_bytes;

    const std::unordered_map<NodeId, int> producers =
        analysis.producingGroups();
    auto producing_group = [&](NodeId x) -> int {
        const auto it = producers.find(x);
        panicIf(it == producers.end(), "boundary node ", x,
                " has no producing group");
        return it->second;
    };

    auto last_use = [&](NodeId x) {
        NodeId last = x;
        for (NodeId u : graph.users(x)) {
            if (cluster.contains(u))
                last = std::max(last, u);
        }
        return last;
    };

    // Reduction tree scratch: one block-wide slab, reused across reduces.
    std::int64_t static_scratch = 0;
    for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
        if (schedules[g].is_reduce_group) {
            static_scratch = std::max<std::int64_t>(
                static_scratch, schedules[g].mapping.launch.block * 4);
        }
    }

    // Iteratively demote until the peak fits the budget.
    while (true) {
        LivenessIntervals intervals;
        for (const auto &[x, scheme] : schemes) {
            if (scheme != StitchScheme::Regional)
                continue;
            // A boundary with no in-kernel consumer (a pure cluster
            // output) needs no intermediate buffer — it is streamed to
            // framework memory directly.
            if (last_use(x) == x)
                continue;
            const int g = producing_group(x);
            intervals[x] = {last_use(x),
                            regionalBytesPerBlock(graph, schedules[g], x)};
        }
        const ArenaLayout layout = allocateArena(intervals);
        const std::int64_t used = layout.extent + static_scratch;
        if (used <= smem_budget) {
            plan.smem_per_block = used;
            plan.arena = layout.slots;
            // Report absolute offsets: slots sit after the scratch slab.
            for (SharedSlot &slot : plan.arena)
                slot.offset_bytes += static_scratch;
            break;
        }
        // Demote the largest Regional buffer (one by one, Sec 4.4).
        // Element-wise values rematerialize (recompute per consumer
        // group, no off-chip spill); reductions demote to Global.
        NodeId victim = kInvalidNodeId;
        std::int64_t victim_bytes = -1;
        for (const auto &[x, entry] : intervals) {
            if (entry.second > victim_bytes) {
                victim_bytes = entry.second;
                victim = x;
            }
        }
        fatalIf(victim == kInvalidNodeId,
                "shared-memory budget ", smem_budget,
                " too small even for reduction scratch ", static_scratch);
        if (isReduce(graph.node(victim).kind())) {
            schemes[victim] = StitchScheme::Global;
        } else {
            schemes.erase(victim);
            plan.rematerialized.insert(victim);
        }
        ++plan.num_demoted;
    }

    // Peak global scratch (liveness-reused).
    LivenessIntervals global_intervals;
    for (const auto &[x, scheme] : schemes) {
        if (scheme != StitchScheme::Global || last_use(x) == x)
            continue;
        const Node &node = graph.node(x);
        global_intervals[x] = {
            last_use(x),
            node.shape().numElements() * dtypeSizeBytes(node.dtype())};
    }
    plan.global_scratch_bytes = peakLiveBytes(global_intervals);
    plan.schemes = std::move(schemes);
    return plan;
}

} // namespace astitch
