/**
 * @file
 * Equivalence tests of the sweep-based hazard checks, arena allocator
 * and barrier placement against reference oracles: the straightforward
 * all-pairs implementations with a linear barrier scan per pair. The
 * oracles live here, not in the library; the library versions must
 * report identical findings in identical order, and produce identical
 * arena layouts and barrier lists, on fixed-seed random inputs that
 * cover empty ranges, zero-size and equal-offset slots, out-of-range
 * barrier positions and wide-range accesses. One scale test drops a
 * barrier from a 5k-node random-graph plan and checks that AS101 and
 * AS712 still fire.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "analysis/kernel_verifier.h"
#include "analysis/sanitizer.h"
#include "compiler/clustering.h"
#include "core/memory_planner.h"
#include "core/stitch_codegen.h"
#include "graph/graph_builder.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

const GpuSpec kV100 = GpuSpec::v100();

// ---------------------------------------------------------------------
// Reference oracles: all pairs, linear barrier scans.
// ---------------------------------------------------------------------

bool
referenceBarrierIn(const std::vector<BarrierPoint> &barriers, int lo, int hi,
                   bool device_only = false)
{
    return std::any_of(barriers.begin(), barriers.end(),
                       [&](const BarrierPoint &b) {
                           if (b.after_op < lo || b.after_op >= hi)
                               return false;
                           return !device_only ||
                                  b.scope == BarrierScope::Device;
                       });
}

/** AS711/AS712 over every pair of accesses. */
void
referenceRaces(const KernelPlan &plan, DiagnosticEngine &engine)
{
    const auto &accesses = plan.accesses;
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        for (std::size_t j = i + 1; j < accesses.size(); ++j) {
            const OpAccess &a = accesses[i];
            const OpAccess &b = accesses[j];
            if (a.op_index == b.op_index)
                continue;
            if (a.kind == AccessKind::Read && b.kind == AccessKind::Read)
                continue;
            if (!rangesOverlap(a, b))
                continue;
            const bool needs_device = a.space != AccessSpace::Shared;
            const bool ordered = referenceBarrierIn(
                plan.barriers, std::min(a.op_index, b.op_index),
                std::max(a.op_index, b.op_index), needs_device);
            if (a.kind == AccessKind::Write &&
                b.kind == AccessKind::Write) {
                if (sameMapping(a, b))
                    continue;
                if (!ordered) {
                    engine.report(
                        "AS711", plan.name,
                        strCat("unordered overlapping writes to ",
                               a.buffer, " by ops ", a.op_index, " and ",
                               b.op_index),
                        a.node);
                }
                continue;
            }
            if (a.space != AccessSpace::Shared &&
                a.space != AccessSpace::Scratch) {
                continue;
            }
            if (!ordered) {
                const OpAccess &w = a.kind == AccessKind::Write ? a : b;
                const OpAccess &r = a.kind == AccessKind::Write ? b : a;
                engine.report(
                    "AS712", plan.name,
                    strCat("write of ", w.buffer, " by op ", w.op_index,
                           " and read by op ", r.op_index,
                           " are not separated by a ",
                           needs_device ? "device" : "block",
                           "-scope barrier"),
                    w.node);
            }
        }
    }
}

/** AS101/AS102 and AS401/AS402 over every pair of arena slots. */
void
referenceSlotChecks(const Graph &graph, const KernelPlan &plan,
                    DiagnosticEngine &engine)
{
    std::unordered_map<NodeId, int> pos;
    for (std::size_t i = 0; i < plan.ops.size(); ++i)
        pos.emplace(plan.ops[i].node, static_cast<int>(i));
    std::vector<std::vector<int>> consumers(plan.ops.size());
    for (std::size_t j = 0; j < plan.ops.size(); ++j) {
        for (NodeId operand : graph.node(plan.ops[j].node).operands()) {
            const auto it = pos.find(operand);
            if (it != pos.end() && it->second != static_cast<int>(j))
                consumers[it->second].push_back(static_cast<int>(j));
        }
    }
    const auto last_use = [&](int i) {
        int last = i;
        for (int j : consumers[i])
            last = std::max(last, j);
        return last;
    };
    const auto op_name = [&](int i) {
        return strCat("%", plan.ops[i].node, " (",
                      graph.node(plan.ops[i].node).name(), ")");
    };
    const auto &slots = plan.shared_slots;

    // AS1xx, in the sanitizer's family order.
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        if (plan.ops[i].out_space != BufferSpace::Shared)
            continue;
        for (int j : consumers[i]) {
            if (j <= static_cast<int>(i))
                continue;
            if (!referenceBarrierIn(plan.barriers, static_cast<int>(i), j)) {
                engine.report(
                    "AS101", plan.name,
                    strCat("shared-memory value ", op_name(i),
                           " is read by ", op_name(j),
                           " with no barrier between store and load"),
                    plan.ops[i].node);
            }
        }
    }
    for (std::size_t a = 0; a < slots.size(); ++a) {
        for (std::size_t b = a + 1; b < slots.size(); ++b) {
            const SharedSlot &sa = slots[a];
            const SharedSlot &sb = slots[b];
            if (!(sa.offset_bytes < sb.offset_bytes + sb.size_bytes &&
                  sb.offset_bytes < sa.offset_bytes + sa.size_bytes))
                continue;
            const auto pa = pos.find(sa.node);
            const auto pb = pos.find(sb.node);
            if (pa == pos.end() || pb == pos.end())
                continue;
            const int def_a = pa->second, def_b = pb->second;
            const int last_a = last_use(def_a), last_b = last_use(def_b);
            if (def_a <= last_b && def_b <= last_a)
                continue;
            const int last_prev = def_a < def_b ? last_a : last_b;
            const int def_next = def_a < def_b ? def_b : def_a;
            const NodeId next = def_a < def_b ? sb.node : sa.node;
            if (!referenceBarrierIn(plan.barriers, last_prev, def_next)) {
                engine.report(
                    "AS102", plan.name,
                    strCat("shared-arena bytes [",
                           std::max(sa.offset_bytes, sb.offset_bytes), ", ",
                           std::min(sa.offset_bytes + sa.size_bytes,
                                    sb.offset_bytes + sb.size_bytes),
                           ") are rewritten by ", op_name(def_next),
                           " before a barrier separates the previous "
                           "value's last reader at schedule position ",
                           last_prev),
                    next);
            }
        }
    }

    // AS4xx.
    for (const SharedSlot &slot : slots) {
        if (slot.offset_bytes < 0 ||
            slot.offset_bytes + slot.size_bytes > plan.smem_per_block) {
            engine.report("AS402", plan.name,
                          strCat("shared slot of %", slot.node, " at [",
                                 slot.offset_bytes, ", ",
                                 slot.offset_bytes + slot.size_bytes,
                                 ") escapes the ", plan.smem_per_block,
                                 "-byte shared arena"),
                          slot.node);
        }
    }
    for (std::size_t a = 0; a < slots.size(); ++a) {
        for (std::size_t b = a + 1; b < slots.size(); ++b) {
            const SharedSlot &sa = slots[a];
            const SharedSlot &sb = slots[b];
            if (!(sa.offset_bytes < sb.offset_bytes + sb.size_bytes &&
                  sb.offset_bytes < sa.offset_bytes + sa.size_bytes))
                continue;
            const auto pa = pos.find(sa.node);
            const auto pb = pos.find(sb.node);
            if (pa == pos.end() || pb == pos.end())
                continue;
            const int def_a = pa->second, def_b = pb->second;
            const int last_a = last_use(def_a), last_b = last_use(def_b);
            if (def_a <= last_b && def_b <= last_a) {
                engine.report(
                    "AS401", plan.name,
                    strCat("values %", sa.node, " (live [", def_a, ", ",
                           last_a, "]) and %", sb.node, " (live [", def_b,
                           ", ", last_b,
                           "]) occupy overlapping shared-arena ranges [",
                           sa.offset_bytes, ", ",
                           sa.offset_bytes + sa.size_bytes, ") and [",
                           sb.offset_bytes, ", ",
                           sb.offset_bytes + sb.size_bytes, ")"),
                    sb.node);
            }
        }
    }
}

/** Write-after-read separators over every pair of arena slots. */
void
referenceArenaReuseBarriers(KernelPlan &plan,
                            const std::unordered_map<NodeId, int> &op_pos,
                            const std::vector<int> &last_reader)
{
    const auto trip_at = [&](int i) {
        return plan.ops[i].partition.known()
                   ? plan.ops[i].partition.tasks_per_block
                   : 1;
    };
    for (std::size_t a = 0; a < plan.shared_slots.size(); ++a) {
        for (std::size_t b = a + 1; b < plan.shared_slots.size(); ++b) {
            const SharedSlot &sa = plan.shared_slots[a];
            const SharedSlot &sb = plan.shared_slots[b];
            if (sa.offset_bytes >= sb.offset_bytes + sb.size_bytes ||
                sb.offset_bytes >= sa.offset_bytes + sa.size_bytes) {
                continue;
            }
            const int def_a = op_pos.at(sa.node);
            const int def_b = op_pos.at(sb.node);
            const int last_a = last_reader[def_a];
            const int last_b = last_reader[def_b];
            if (def_a <= last_b && def_b <= last_a)
                continue;
            const int lo = def_a < def_b ? last_a : last_b;
            const int hi = def_a < def_b ? def_b : def_a;
            if (!referenceBarrierIn(plan.barriers, lo, hi)) {
                plan.barriers.push_back(BarrierPoint{
                    hi - 1, BarrierScope::Block, trip_at(hi - 1)});
            }
        }
    }
}

/** First fit against every earlier slot whose lifetime overlaps. */
ArenaLayout
referenceAllocateArena(const LivenessIntervals &intervals)
{
    ArenaLayout layout;
    for (const auto &[def, entry] : intervals) {
        const NodeId last = entry.first;
        const std::int64_t size = entry.second;
        std::vector<std::pair<std::int64_t, std::int64_t>> busy;
        for (const SharedSlot &slot : layout.slots) {
            const auto other = intervals.find(slot.node);
            if (slot.node <= last && def <= other->second.first) {
                busy.emplace_back(slot.offset_bytes,
                                  slot.offset_bytes + slot.size_bytes);
            }
        }
        std::sort(busy.begin(), busy.end());
        std::int64_t offset = 0;
        for (const auto &[lo, hi] : busy) {
            if (offset + size <= lo)
                break;
            offset = std::max(offset, hi);
        }
        layout.slots.push_back(SharedSlot{def, offset, size});
        layout.extent = std::max(layout.extent, offset + size);
    }
    return layout;
}

// ---------------------------------------------------------------------
// Random inputs.
// ---------------------------------------------------------------------

/** A random DAG of binary and unary element-wise ops over 4x4 values. */
Graph
randomDag(Rng &rng, int num_ops)
{
    Graph graph("sweep");
    GraphBuilder b(graph);
    std::vector<NodeId> pool = {b.parameter({4, 4}, "x"),
                                b.parameter({4, 4}, "y")};
    for (int i = 0; i < num_ops; ++i) {
        const auto pick = [&] {
            return pool[rng.uniformInt(0, pool.size() - 1)];
        };
        const NodeId x = pick();
        pool.push_back(rng.uniformInt(0, 3) == 0 ? b.exp(x)
                                                 : b.add(x, pick()));
    }
    b.output(pool.back());
    return graph;
}

/** Barriers at random positions, some outside [0, num_ops). */
std::vector<BarrierPoint>
randomBarriers(Rng &rng, int num_ops)
{
    std::vector<BarrierPoint> barriers;
    const int count = static_cast<int>(rng.uniformInt(0, num_ops / 3 + 2));
    for (int k = 0; k < count; ++k) {
        barriers.push_back(BarrierPoint{
            static_cast<int>(rng.uniformInt(-3, num_ops + 2)),
            rng.uniformInt(0, 2) == 0 ? BarrierScope::Device
                                      : BarrierScope::Block,
            rng.uniformInt(1, 3)});
    }
    return barriers;
}

/** Slots on a coarse offset grid: equal offsets and zero sizes abound. */
SharedSlot
randomSlot(Rng &rng, NodeId node)
{
    static constexpr std::int64_t kSizes[] = {0, 4, 8, 16, 32, 64};
    return SharedSlot{node, 8 * rng.uniformInt(-1, 8),
                      kSizes[rng.uniformInt(0, 5)]};
}

KernelPlan
randomAccessPlan(Rng &rng)
{
    static const char *const kBuffers[] = {"smem", "scratch:%1",
                                           "scratch:%2", "out:%3",
                                           "input:%4"};
    KernelPlan plan;
    plan.name = "random_accesses";
    const int num_ops = static_cast<int>(rng.uniformInt(1, 12));
    for (int i = 0; i < num_ops; ++i) {
        plan.ops.emplace_back();
        plan.ops.back().node = static_cast<NodeId>(i);
    }
    plan.barriers = randomBarriers(rng, num_ops);
    const int num_accesses = static_cast<int>(rng.uniformInt(0, 40));
    for (int k = 0; k < num_accesses; ++k) {
        OpAccess a;
        a.buffer = kBuffers[rng.uniformInt(0, 4)];
        a.space = a.buffer == "smem"                ? AccessSpace::Shared
                  : a.buffer.rfind("scratch", 0) == 0 ? AccessSpace::Scratch
                                                      : AccessSpace::Global;
        if (rng.uniformInt(0, 9) == 0) // a buffer seen from mixed spaces
            a.space = static_cast<AccessSpace>(rng.uniformInt(0, 2));
        a.kind = rng.uniformInt(0, 1) ? AccessKind::Write : AccessKind::Read;
        a.op_index = static_cast<int>(rng.uniformInt(0, num_ops - 1));
        a.node = static_cast<NodeId>(a.op_index);
        a.extent = 64;
        a.index.offset = rng.uniformInt(-4, 48);
        a.index.coeff_thread = rng.uniformInt(0, 2);
        a.index.num_threads = rng.uniformInt(1, 16);
        if (rng.uniformInt(0, 3) == 0) {
            a.index.coeff_block = 16;
            a.index.num_blocks = rng.uniformInt(1, 4);
        }
        if (rng.uniformInt(0, 9) == 0) // wide range: spans every access
            a.index.num_threads = std::int64_t{1} << 40;
        if (rng.uniformInt(0, 4) == 0) // a guard below minIndex: empty
            a.guard = rng.uniformInt(0, 24);
        plan.accesses.push_back(a);
    }
    return plan;
}

/** Text of @p engine's findings under each of @p prefixes in turn. */
std::string
renderPrefixes(const DiagnosticEngine &engine,
               std::initializer_list<const char *> prefixes)
{
    DiagnosticEngine scoped;
    for (const char *prefix : prefixes) {
        for (Diagnostic &d : engine.withCodePrefix(prefix))
            scoped.add(std::move(d));
    }
    return scoped.renderText();
}

/** The verifier's race findings (AS71x). */
std::string
renderRaces(const KernelPlan &plan, const Graph &graph)
{
    DiagnosticEngine engine;
    verifyKernelPlan(graph, plan, kV100, engine);
    return renderPrefixes(engine, {"AS71"});
}

/** The sanitizer's barrier-race and arena-lifetime findings (AS1xx,
 * AS4xx): the checks the slot oracle re-derives. */
std::string
renderSlotChecks(const KernelPlan &plan, const Graph &graph)
{
    DiagnosticEngine engine;
    sanitizeKernelPlan(graph, plan, kV100, engine);
    return renderPrefixes(engine, {"AS1", "AS4"});
}

std::string
referenceRaceText(const KernelPlan &plan)
{
    DiagnosticEngine engine;
    referenceRaces(plan, engine);
    return engine.renderText();
}

std::string
referenceSlotText(const KernelPlan &plan, const Graph &graph)
{
    DiagnosticEngine engine;
    referenceSlotChecks(graph, plan, engine);
    return engine.renderText();
}

// ---------------------------------------------------------------------
// Equivalence on random inputs.
// ---------------------------------------------------------------------

TEST(HazardSweep, BarrierIndexMatchesLinearScan)
{
    Rng rng(11);
    for (int trial = 0; trial < 300; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(0, 10));
        const std::vector<BarrierPoint> barriers = randomBarriers(rng, n);
        const BarrierIndex index(barriers);
        for (int lo = -4; lo <= n + 3; ++lo) {
            for (int hi = -4; hi <= n + 3; ++hi) {
                for (bool device : {false, true}) {
                    ASSERT_EQ(index.inRange(lo, hi, device),
                              referenceBarrierIn(barriers, lo, hi, device))
                        << "trial " << trial << " [" << lo << ", " << hi
                        << ") device=" << device;
                }
            }
        }
    }
}

TEST(HazardSweep, RacesMatchAllPairsOracle)
{
    Rng rng(1234);
    // Plans name up to 12 ops; the verifier prices every plan against
    // the graph (AS751), so the graph must hold all of their nodes.
    const Graph graph = randomDag(rng, 12);
    int findings = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const KernelPlan plan = randomAccessPlan(rng);
        const std::string expected = referenceRaceText(plan);
        ASSERT_EQ(renderRaces(plan, graph), expected) << "trial " << trial;
        findings += expected.empty() ? 0 : 1;
    }
    EXPECT_GT(findings, 500); // the corpus exercises both outcomes
}

TEST(HazardSweep, SlotChecksMatchAllPairsOracle)
{
    Rng rng(77);
    int findings = 0;
    for (int trial = 0; trial < 500; ++trial) {
        const int num_ops = static_cast<int>(rng.uniformInt(1, 14));
        const Graph graph = randomDag(rng, num_ops);
        KernelPlan plan;
        plan.name = strCat("random_slots_", trial);
        plan.smem_per_block = 8 * rng.uniformInt(4, 10);
        for (NodeId id : graph.topoOrder()) {
            if (graph.node(id).kind() == OpKind::Parameter)
                continue;
            ScheduledOp op;
            op.node = id;
            if (rng.uniformInt(0, 2) == 0)
                op.out_space = BufferSpace::Shared;
            plan.ops.push_back(op);
        }
        plan.barriers =
            randomBarriers(rng, static_cast<int>(plan.ops.size()));
        const int num_slots = static_cast<int>(rng.uniformInt(0, 12));
        for (int k = 0; k < num_slots; ++k) {
            // Now and then a slot of a node the plan does not schedule.
            const NodeId node =
                rng.uniformInt(0, 9) == 0
                    ? static_cast<NodeId>(0)
                    : plan.ops[rng.uniformInt(0, plan.ops.size() - 1)].node;
            plan.shared_slots.push_back(randomSlot(rng, node));
        }
        const std::string expected = referenceSlotText(plan, graph);
        ASSERT_EQ(renderSlotChecks(plan, graph), expected)
            << "trial " << trial;
        findings += expected.empty() ? 0 : 1;
    }
    EXPECT_GT(findings, 100);
}

TEST(HazardSweep, ReuseBarrierPlacementMatchesAllPairsOracle)
{
    Rng rng(4242);
    int placed = 0;
    for (int trial = 0; trial < 1000; ++trial) {
        KernelPlan plan;
        const int num_ops = static_cast<int>(rng.uniformInt(1, 16));
        std::unordered_map<NodeId, int> op_pos;
        std::vector<int> last_reader;
        for (int i = 0; i < num_ops; ++i) {
            ScheduledOp op;
            op.node = static_cast<NodeId>(100 + i);
            if (rng.uniformInt(0, 1))
                op.partition = OpPartition{LaunchDims{4, 128}, 1,
                                           rng.uniformInt(1, 4)};
            plan.ops.push_back(op);
            op_pos.emplace(op.node, i);
            last_reader.push_back(static_cast<int>(
                rng.uniformInt(i, std::min(num_ops - 1, i + 4))));
        }
        plan.barriers = randomBarriers(rng, num_ops);
        std::vector<int> order(num_ops);
        for (int i = 0; i < num_ops; ++i)
            order[i] = i;
        const int num_slots = static_cast<int>(rng.uniformInt(0, num_ops));
        for (int k = 0; k < num_slots; ++k) {
            std::swap(order[k], order[rng.uniformInt(k, num_ops - 1)]);
            plan.shared_slots.push_back(
                randomSlot(rng, plan.ops[order[k]].node));
        }

        const std::size_t structural = plan.barriers.size();
        KernelPlan expected = plan;
        referenceArenaReuseBarriers(expected, op_pos, last_reader);
        placeArenaReuseBarriers(plan, op_pos, last_reader);
        ASSERT_EQ(plan.barriers.size(), expected.barriers.size())
            << "trial " << trial;
        for (std::size_t k = 0; k < plan.barriers.size(); ++k) {
            EXPECT_EQ(plan.barriers[k].after_op,
                      expected.barriers[k].after_op);
            EXPECT_EQ(plan.barriers[k].scope, expected.barriers[k].scope);
            EXPECT_EQ(plan.barriers[k].trip_count,
                      expected.barriers[k].trip_count);
        }
        placed += plan.barriers.size() > structural ? 1 : 0;
    }
    EXPECT_GT(placed, 100);
}

TEST(HazardSweep, ArenaLayoutMatchesFirstFitOracle)
{
    Rng rng(9);
    static constexpr std::int64_t kSizes[] = {0, 4, 12, 64, 256, 1024};
    for (int trial = 0; trial < 1000; ++trial) {
        LivenessIntervals intervals;
        const int count = static_cast<int>(rng.uniformInt(0, 40));
        for (int k = 0; k < count; ++k) {
            const NodeId def = static_cast<NodeId>(rng.uniformInt(0, 80));
            const NodeId last =
                def + static_cast<NodeId>(rng.uniformInt(0, 20));
            intervals[def] = {last, kSizes[rng.uniformInt(0, 5)]};
        }
        const ArenaLayout expected = referenceAllocateArena(intervals);
        const ArenaLayout actual = allocateArena(intervals);
        ASSERT_EQ(actual.extent, expected.extent) << "trial " << trial;
        ASSERT_EQ(actual.slots.size(), expected.slots.size());
        for (std::size_t k = 0; k < actual.slots.size(); ++k) {
            EXPECT_EQ(actual.slots[k].node, expected.slots[k].node);
            EXPECT_EQ(actual.slots[k].offset_bytes,
                      expected.slots[k].offset_bytes)
                << "trial " << trial << " slot " << k;
            EXPECT_EQ(actual.slots[k].size_bytes,
                      expected.slots[k].size_bytes);
        }
    }
}

TEST(HazardSweep, CompiledPlansMatchOraclesWithAndWithoutBarriers)
{
    workloads::RandomGraphConfig config;
    config.num_nodes = 1000;
    config.seed = 1;
    const Graph graph = workloads::buildRandomGraph(config);
    int checked = 0;
    for (const Cluster &cluster :
         remoteStitch(graph, findMemoryIntensiveClusters(graph))) {
        const CompiledCluster compiled =
            compileStitchOp(graph, cluster, kV100, AStitchOptions{});
        for (const KernelPlan &seed : compiled.kernels) {
            // Intact, then with every third barrier dropped.
            KernelPlan thinned = seed;
            thinned.barriers.clear();
            for (std::size_t k = 0; k < seed.barriers.size(); ++k)
                if (k % 3 != 0)
                    thinned.barriers.push_back(seed.barriers[k]);
            for (const KernelPlan *plan :
                 std::initializer_list<const KernelPlan *>{&seed,
                                                            &thinned}) {
                EXPECT_EQ(renderRaces(*plan, graph),
                          referenceRaceText(*plan));
                EXPECT_EQ(renderSlotChecks(*plan, graph),
                          referenceSlotText(*plan, graph));
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 2);
}

// ---------------------------------------------------------------------
// Scale: a dropped barrier in a giant stitched cluster still fires.
// ---------------------------------------------------------------------

TEST(HazardSweep, DroppedBarrierInGiantClusterStillFires)
{
    workloads::RandomGraphConfig config;
    config.num_nodes = 5000;
    config.seed = 17;
    const Graph graph = workloads::buildRandomGraph(config);
    std::vector<Cluster> clusters =
        remoteStitch(graph, findMemoryIntensiveClusters(graph));
    ASSERT_FALSE(clusters.empty());
    const Cluster &giant = *std::max_element(
        clusters.begin(), clusters.end(),
        [](const Cluster &x, const Cluster &y) {
            return x.nodes.size() < y.nodes.size();
        });
    ASSERT_GT(giant.nodes.size(), 1000u);
    const CompiledCluster compiled =
        compileStitchOp(graph, giant, kV100, AStitchOptions{});
    const KernelPlan &seed = compiled.kernels.at(0);
    ASSERT_TRUE(renderSlotChecks(seed, graph).empty());
    ASSERT_TRUE(renderRaces(seed, graph).empty());

    std::unordered_map<NodeId, int> pos;
    for (std::size_t i = 0; i < seed.ops.size(); ++i)
        pos.emplace(seed.ops[i].node, static_cast<int>(i));
    for (std::size_t k = 0; k < seed.barriers.size(); ++k) {
        const int p = seed.barriers[k].after_op;
        if (seed.ops[p].out_space != BufferSpace::Shared)
            continue;
        // The store->load edge this barrier guards: the earliest reader.
        int reader = -1;
        for (NodeId u : graph.users(seed.ops[p].node)) {
            const auto it = pos.find(u);
            if (it != pos.end() && it->second > p &&
                (reader < 0 || it->second < reader))
                reader = it->second;
        }
        KernelPlan mutated = seed;
        mutated.barriers.erase(mutated.barriers.begin() + k);
        if (reader < 0 ||
            BarrierIndex(mutated.barriers).inRange(p, reader))
            continue; // another barrier still covers the edge
        const std::string sanitized = renderSlotChecks(mutated, graph);
        const std::string verified = renderRaces(mutated, graph);
        EXPECT_NE(sanitized.find("AS101"), std::string::npos) << sanitized;
        EXPECT_NE(verified.find("AS712"), std::string::npos) << verified;
        return;
    }
    FAIL() << "no shared-memory barrier guards a lone store->load edge";
}

} // namespace
} // namespace astitch
