/**
 * @file
 * The stitch sanitizer: static SIMT hazard analysis over kernel plans.
 *
 * AStitch's Regional and Global stitching schemes are exactly where GPU
 * compilers ship silent correctness bugs: a missing __syncthreads()
 * between a shared-memory producer and its consumers, a lock-free
 * inter-block barrier launched with more blocks than can be co-resident
 * (deadlock), or a block-locality assumption the passive check got
 * wrong. This pass proves, per kernel, that the emitted plan is
 * hazard-free — without a GPU to crash on. Five check families:
 *
 *   AS1xx  barrier-placement races: every Shared producer->consumer
 *          edge must be separated by a barrier in schedule order, and
 *          shared-arena slot reuse must not create write-after-read
 *          hazards across schedule groups;
 *   AS2xx  global-barrier deadlock: a kernel with device-wide
 *          synchronization whose grid exceeds the co-resident block
 *          capacity can never rendezvous; Global stitch edges without
 *          any device barrier never synchronize at all;
 *   AS3xx  block locality: a consumer of a shared-memory value whose
 *          partitioning differs from the producer's reads elements
 *          another block wrote (should have been demoted to Global);
 *   AS4xx  buffer lifetimes: interval analysis over the shared-arena
 *          offsets, flagging simultaneously-live values on overlapping
 *          byte ranges and slots escaping the arena;
 *   AS5xx  barrier divergence: barriers scheduled inside vertically-
 *          packed task loops whose trip counts differ across the
 *          packed groups (lint).
 *
 * Checks that need structural metadata (partitions, barrier points,
 * arena slots) skip ops that carry none, so plans from non-stitching
 * backends produce zero findings by construction. Every family always
 * runs; a caller that wants one filters the findings by code prefix
 * (DiagnosticEngine::withCodePrefix).
 */
#ifndef ASTITCH_ANALYSIS_SANITIZER_H
#define ASTITCH_ANALYSIS_SANITIZER_H

#include "analysis/diagnostics.h"
#include "compiler/kernel_plan.h"
#include "sim/gpu_spec.h"

namespace astitch {

/** Run every check family over one kernel plan. */
void sanitizeKernelPlan(const Graph &graph, const KernelPlan &plan,
                        const GpuSpec &spec, DiagnosticEngine &engine);

/** Sanitize every kernel of a compiled cluster. */
void sanitizeCompiledCluster(const Graph &graph,
                             const CompiledCluster &compiled,
                             const GpuSpec &spec, DiagnosticEngine &engine);

} // namespace astitch

#endif // ASTITCH_ANALYSIS_SANITIZER_H
