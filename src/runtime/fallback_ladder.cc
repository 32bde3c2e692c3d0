#include "runtime/fallback_ladder.h"

#include "analysis/diagnostics.h"
#include "compiler/loop_fusion.h"
#include "compiler/thread_mapping.h"
#include "core/adaptive_mapping.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

/** Classify a caught failure for the degradation cause string. */
std::string
describeFailure(const std::exception &e)
{
    if (dynamic_cast<const TransientFault *>(&e))
        return strCat("transient fault: ", e.what());
    if (dynamic_cast<const InjectedFault *>(&e))
        return strCat("injected fault: ", e.what());
    if (dynamic_cast<const SanitizerPolicyError *>(&e))
        return strCat("sanitizer policy: ", e.what());
    if (dynamic_cast<const PanicError *>(&e))
        return strCat("internal error: ", e.what());
    if (dynamic_cast<const FatalError *>(&e))
        return strCat("compile error: ", e.what());
    return strCat("error: ", e.what());
}

/** First line only — demotion causes are single-line records. */
std::string
firstLine(std::string text)
{
    const std::size_t nl = text.find('\n');
    if (nl != std::string::npos)
        text.resize(nl);
    return text;
}

/** Level 1: stitching restricted to the Local scheme — XLA-style fusion
 * scopes with AStitch's adaptive thread mappings. No shared-memory
 * arena, no device-wide barriers, so the memory planner and the global
 * barrier machinery (the rungs most likely to have failed above) are
 * out of the picture. */
CompiledCluster
compileLocalOnly(const Graph &graph, const Cluster &cluster,
                 const GpuSpec &spec)
{
    faultPoint("ladder-local-only");
    LoopFusionRules rules;
    rules.fuse_heavy_into_broadcast_consumer = false;
    rules.allow_duplication = true;
    rules.tiled_column_reduce = true;
    rules.reduce_mapper = [](const GpuSpec &s, const ReduceInfo &info) {
        const AdaptiveMapping m =
            info.is_row_reduce
                ? adaptiveRowReduce(s, info.rows, info.cols)
                : adaptiveColumnReduce(s, info.rows, info.cols);
        return m.launch;
    };
    rules.elementwise_mapper = [](const GpuSpec &s, std::int64_t n) {
        return adaptiveElementwise(s, n).launch;
    };
    return compileClusterLoopFusion(graph, cluster, spec, rules);
}

/** Level 2: plain loop fusion, naive mappings — the adaptive-mapping
 * code paths are gone too. */
CompiledCluster
compileLoopFusionOnly(const Graph &graph, const Cluster &cluster,
                      const GpuSpec &spec)
{
    faultPoint("ladder-loop-fusion");
    return compileClusterLoopFusion(graph, cluster, spec,
                                    LoopFusionRules{});
}

} // namespace

CompiledCluster
compileClusterKernelPerOp(const Graph &graph, const Cluster &cluster,
                          const GpuSpec &spec)
{
    CompiledCluster compiled;
    for (NodeId id : cluster.nodes) {
        const Node &node = graph.node(id);
        KernelPlan plan;
        plan.name = strCat("fallback_", opKindName(node.kind()), "_", id);

        ScheduledOp op;
        op.node = id;
        op.out_space = BufferSpace::Output;
        plan.ops.push_back(op);
        plan.outputs.push_back(id);
        for (NodeId operand : node.operands())
            plan.inputs.push_back(KernelInput{operand, 1.0});

        if (isReduce(node.kind())) {
            const ReduceInfo info = analyzeReduce(graph, id);
            if (info.is_row_reduce) {
                plan.launch =
                    rowReduceMappingNaive(spec, info.rows, info.cols);
                plan.smem_per_block = plan.launch.block * 4;
                plan.num_block_barriers = 2;
            } else {
                plan.launch =
                    columnReduceMappingNaive(info.rows * info.cols);
                plan.atomic_operations =
                    static_cast<double>(info.rows * info.cols) /
                    spec.warp_size;
                plan.read_coalescing = 0.5;
                compiled.num_memcpy += 1; // accumulator memset
                compiled.memcpy_bytes +=
                    static_cast<double>(node.shape().numElements()) *
                    dtypeSizeBytes(node.dtype());
            }
        } else {
            plan.launch =
                elementwiseMappingNaive(node.shape().numElements());
            if (node.kind() == OpKind::Transpose)
                plan.read_coalescing = 0.25;
        }
        plan.regs_per_thread = 24;
        compiled.kernels.push_back(std::move(plan));
    }
    return compiled;
}

LadderOutcome
compileClusterWithLadder(const Graph &graph, const Cluster &cluster,
                         const GpuSpec &spec, const Backend &backend,
                         const LadderPolicy &policy)
{
    LadderOutcome outcome;
    auto attempt = [&](LadderLevel level) {
        switch (level) {
        case LadderLevel::FullStitch:
            faultPoint("backend-compile");
            return backend.compileCluster(graph, cluster, spec);
        case LadderLevel::LocalOnly:
            return compileLocalOnly(graph, cluster, spec);
        case LadderLevel::LoopFusion:
            return compileLoopFusionOnly(graph, cluster, spec);
        case LadderLevel::KernelPerOp:
            break;
        }
        // The terminal rung: shielded so injected faults cannot reach
        // it, and structurally unable to fail (no planning passes).
        FaultShield shield;
        return compileClusterKernelPerOp(graph, cluster, spec);
    };

    const int start = static_cast<int>(policy.start_level);
    if (start > 0) {
        // Deliberately skipped rungs read like demotions so every
        // consumer (AS601, degradation reports, serve-response flags)
        // sees a policy-degraded compilation without a special case.
        outcome.degradation.causes.push_back(
            strCat(ladderLevelName(LadderLevel::FullStitch),
                   ": skipped by policy (start rung ",
                   ladderLevelName(policy.start_level), ")"));
    }

    for (int level = start;; ++level) {
        int retries_left = kMaxTransientRetries;
        for (;;) {
            try {
                outcome.compiled =
                    attempt(static_cast<LadderLevel>(level));
                outcome.degradation.level =
                    static_cast<LadderLevel>(level);
                return outcome;
            } catch (const TransientFault &e) {
                if (policy.fail_fast)
                    throw;
                if (retries_left > 0) {
                    --retries_left;
                    ++outcome.degradation.retries;
                    continue; // same rung, next attempt
                }
                outcome.degradation.causes.push_back(strCat(
                    ladderLevelName(static_cast<LadderLevel>(level)),
                    ": ", firstLine(describeFailure(e)),
                    " (retries exhausted)"));
                break; // demote
            } catch (const std::exception &e) {
                if (policy.fail_fast)
                    throw;
                outcome.degradation.causes.push_back(strCat(
                    ladderLevelName(static_cast<LadderLevel>(level)),
                    ": ", firstLine(describeFailure(e))));
                break; // demote
            }
        }
        panicIf(level >= static_cast<int>(LadderLevel::KernelPerOp),
                "kernel-per-op fallback threw — the ladder has no "
                "rung left");
    }
}

} // namespace astitch
