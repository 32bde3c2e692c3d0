/**
 * @file
 * The kernel-access verifier: symbolic interpretation over the per-op
 * access summaries stitch codegen emits (analysis/access_model.h).
 *
 * The sanitizer (AS1xx-AS5xx) checks the *plan metadata* codegen
 * claims; this pass independently verifies the *index arithmetic* of
 * the emitted kernel. Four check families over KernelPlan::accesses:
 *
 *   AS70x  bounds: evaluate every access's affine index over its
 *          variable ranges (interval abstract domain) and prove it
 *          stays inside [0, extent) under the recorded guard; writes
 *          to off-chip buffers must additionally *cover* the buffer
 *          (a shrunken task-loop bound leaves a tail unwritten);
 *   AS71x  races: overlapping accesses to one buffer from different
 *          scheduled ops must be ordered by a barrier of sufficient
 *          scope (block for the shared arena, device for global
 *          scratch) between their schedule positions — write-write
 *          on any buffer, write-read/read-write on staging buffers;
 *   AS72x-AS74x  performance lints: warp-sector transaction counting
 *          flags uncoalesced global access, bank arithmetic flags
 *          shared-memory conflicts, and recompute factors beyond the
 *          broadcast-blowup threshold flag Fig. 5-style inlining;
 *   AS75x  cost-model cross-check: the verifier's statically derived
 *          DRAM transaction counts must agree with sim/cost_model's
 *          pricing of the same plan within tolerance, making the
 *          analytical model itself a checked artifact.
 *
 * Plans without access summaries (comparator backends, fallback-ladder
 * rungs below full stitching) produce zero findings by construction.
 * Every family always runs, with fixed thresholds; a caller that wants
 * one filters the findings by code prefix ("AS70", "AS71", ...).
 *
 * The AS8xx family extends the same obligations to whole *shape
 * ranges*: verifyKernelPlanSymbolic interprets the plan's symbolic
 * access twins (KernelPlan::sym_accesses) over declared ShapeDim
 * ranges in an interval/affine abstract domain with divisibility
 * reasoning, and either proves each obligation for every admissible
 * shape, refutes it with a concrete witness shape (AS801-AS804,
 * AS811/AS812, AS821), or declares it unclosed (one AS831 note; the
 * concrete AS7xx verifier stays the authority for such plans).
 */
#ifndef ASTITCH_ANALYSIS_KERNEL_VERIFIER_H
#define ASTITCH_ANALYSIS_KERNEL_VERIFIER_H

#include "analysis/access_model.h"
#include "analysis/diagnostics.h"
#include "compiler/kernel_plan.h"
#include "sim/gpu_spec.h"

namespace astitch {

/** Statically derived DRAM transaction counts of one plan. */
struct TransactionEstimate
{
    double read_transactions = 0.0;
    double write_transactions = 0.0;
};

/**
 * Sum the per-access sector counts of every traffic-counting off-chip
 * access in @p plan (the verifier's side of the AS751 cross-check).
 */
TransactionEstimate staticTransactionCounts(const KernelPlan &plan);

/**
 * Verify one kernel plan's access summaries, reporting findings into
 * @p engine. Plans with no recorded accesses are skipped entirely.
 */
void verifyKernelPlan(const Graph &graph, const KernelPlan &plan,
                      const GpuSpec &spec, DiagnosticEngine &engine);

/** Verify every kernel of a compiled cluster. */
void verifyCompiledCluster(const Graph &graph,
                           const CompiledCluster &compiled,
                           const GpuSpec &spec, DiagnosticEngine &engine);

/**
 * Process-wide count of concrete plan verifications performed so far
 * (verifyKernelPlan calls on plans that actually carried access
 * summaries). The verify bench takes deltas of this counter to show
 * that certified shape buckets skip per-shape verifier runs.
 */
std::int64_t verifierPlanRuns();

/** Process-wide count of parametric certifications performed so far. */
std::int64_t symbolicPlanCertifications();

/**
 * Parametric proof mode: discharge the bounds (AS801-AS804), race
 * (AS811/AS812) and shared-arena (AS802/AS821) obligations of @p plan
 * for every shape admitted by @p dims, using the plan's symbolic
 * access twins. Refutations are reported with a concrete witness
 * shape; obligations that do not close produce a single AS831 note
 * and a Fallback verdict (never a false alarm). Plans without access
 * summaries return a Verdict::None certificate. The graph is not
 * consulted — everything needed is in the plan — so synthetic plans
 * can be verified directly in tests.
 */
ShapeCertificate
verifyKernelPlanSymbolic(const KernelPlan &plan,
                         const std::vector<ShapeDim> &dims,
                         DiagnosticEngine &engine);

/**
 * Certify every kernel of a compiled cluster for the declared dims:
 * attaches symbolic access twins first when the plan has none (via
 * analysis/shape_symbolic.h) and stores each plan's ShapeCertificate
 * in place. Plans already carrying a non-None certificate are left
 * untouched, so a plan is certified at most once.
 */
void certifyCompiledCluster(const Graph &graph, CompiledCluster &compiled,
                            const std::vector<ShapeDim> &dims,
                            DiagnosticEngine &engine);

} // namespace astitch

#endif // ASTITCH_ANALYSIS_KERNEL_VERIFIER_H
