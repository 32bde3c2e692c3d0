#include "compiler/kernel_plan.h"

#include <algorithm>
#include <limits>

#include "support/logging.h"

namespace astitch {

std::string
bufferSpaceName(BufferSpace space)
{
    switch (space) {
      case BufferSpace::Register:
        return "register";
      case BufferSpace::Shared:
        return "shared";
      case BufferSpace::Global:
        return "global";
      case BufferSpace::Output:
        return "output";
    }
    panic("unknown buffer space");
}

std::string
barrierScopeName(BarrierScope scope)
{
    switch (scope) {
      case BarrierScope::Block:
        return "block";
      case BarrierScope::Device:
        return "device";
    }
    panic("unknown barrier scope");
}

BarrierIndex::BarrierIndex(const std::vector<BarrierPoint> &barriers)
{
    for (const BarrierPoint &barrier : barriers) {
        any_.push_back(barrier.after_op);
        if (barrier.scope == BarrierScope::Device)
            device_.push_back(barrier.after_op);
    }
    std::sort(any_.begin(), any_.end());
    std::sort(device_.begin(), device_.end());
}

void
BarrierIndex::insert(const BarrierPoint &barrier)
{
    const auto add = [p = barrier.after_op](std::vector<int> &points) {
        points.insert(std::upper_bound(points.begin(), points.end(), p), p);
    };
    add(any_);
    if (barrier.scope == BarrierScope::Device)
        add(device_);
}

bool
BarrierIndex::inRange(int lo, int hi, bool device_only) const
{
    const std::vector<int> &points = device_only ? device_ : any_;
    const auto it = std::lower_bound(points.begin(), points.end(), lo);
    return it != points.end() && *it < hi;
}

std::size_t
BarrierIndex::epoch(int p, bool device_only) const
{
    const std::vector<int> &points = device_only ? device_ : any_;
    return static_cast<std::size_t>(
        std::lower_bound(points.begin(), points.end(), p) - points.begin());
}

int
BarrierIndex::nextAtOrAfter(int p) const
{
    const auto it = std::lower_bound(any_.begin(), any_.end(), p);
    return it == any_.end() ? std::numeric_limits<int>::max() : *it;
}

std::vector<std::pair<std::size_t, std::size_t>>
unseparatedSlotPairs(const std::vector<SharedSlot> &slots,
                     const std::vector<SlotLifetime> &lifetimes,
                     const BarrierIndex &barriers)
{
    std::vector<std::size_t> by_def;
    for (std::size_t i = 0; i < slots.size(); ++i)
        if (lifetimes[i].def >= 0)
            by_def.push_back(i);
    std::stable_sort(by_def.begin(), by_def.end(),
                     [&](std::size_t x, std::size_t y) {
                         return lifetimes[x].def < lifetimes[y].def;
                     });
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t k = 0; k < by_def.size(); ++k) {
        const std::size_t a = by_def[k];
        // A value defined later is live together with `a` or
        // unseparated from it until a barrier follows a's last reader.
        const int reach = barriers.nextAtOrAfter(lifetimes[a].last);
        for (std::size_t m = k + 1;
             m < by_def.size() && lifetimes[by_def[m]].def <= reach; ++m) {
            const std::size_t b = by_def[m];
            if (slots[a].offset_bytes <
                    slots[b].offset_bytes + slots[b].size_bytes &&
                slots[b].offset_bytes <
                    slots[a].offset_bytes + slots[a].size_bytes) {
                pairs.emplace_back(std::min(a, b), std::max(a, b));
            }
        }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

bool
KernelPlan::containsNode(NodeId node) const
{
    return std::any_of(ops.begin(), ops.end(), [node](const ScheduledOp &op) {
        return op.node == node;
    });
}

std::int64_t
opProcessedElements(const Graph &graph, NodeId node)
{
    const Node &n = graph.node(node);
    if (isReduce(n.kind()))
        return graph.node(n.operands()[0]).shape().numElements();
    return n.shape().numElements();
}

KernelWorkDesc
workDescFor(const Graph &graph, const KernelPlan &plan)
{
    KernelWorkDesc desc;
    desc.name = plan.name;
    desc.category = KernelCategory::MemoryIntensive;
    desc.launch = plan.launch;
    desc.regs_per_thread = plan.regs_per_thread;
    desc.smem_per_block = plan.smem_per_block;
    desc.num_block_barriers = plan.num_block_barriers;
    desc.num_global_barriers = plan.num_global_barriers;
    desc.atomic_operations = plan.atomic_operations;
    desc.read_coalescing = plan.read_coalescing;
    desc.write_coalescing = plan.write_coalescing;
    desc.extra_launch_overhead_us = plan.extra_launch_overhead_us;

    desc.bytes_read += plan.extra_bytes_read;

    // Kernel inputs: one full-tensor load per load_factor unit.
    for (const KernelInput &input : plan.inputs) {
        const Node &n = graph.node(input.node);
        desc.bytes_read += static_cast<double>(n.shape().numElements()) *
                           dtypeSizeBytes(n.dtype()) * input.load_factor;
    }

    // Scheduled ops: instructions plus traffic of global-space spills.
    for (const ScheduledOp &op : plan.ops) {
        const Node &n = graph.node(op.node);
        const double elems =
            static_cast<double>(opProcessedElements(graph, op.node));
        desc.fp_instructions += elems *
                                opInstructionsPerElement(n.kind()) *
                                op.recompute_factor;

        const double out_bytes =
            static_cast<double>(n.shape().numElements()) *
            dtypeSizeBytes(n.dtype());
        switch (op.out_space) {
          case BufferSpace::Register:
          case BufferSpace::Shared:
            break; // on-chip, no DRAM traffic
          case BufferSpace::Global:
            // Written once, read back by the consumer group(s).
            desc.bytes_written += out_bytes;
            desc.bytes_read += out_bytes;
            break;
          case BufferSpace::Output:
            desc.bytes_written += out_bytes;
            break;
        }
    }

    // Kernel outputs that were not already marked Output in the schedule
    // (defensive: every output node should carry BufferSpace::Output).
    for (NodeId out : plan.outputs) {
        const bool scheduled_as_output = std::any_of(
            plan.ops.begin(), plan.ops.end(), [out](const ScheduledOp &op) {
                return op.node == out &&
                       op.out_space == BufferSpace::Output;
            });
        panicIf(!scheduled_as_output,
                "kernel ", plan.name, " output node ", out,
                " is not scheduled with BufferSpace::Output");
    }

    return desc;
}

} // namespace astitch
