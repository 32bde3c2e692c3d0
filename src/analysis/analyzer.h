/**
 * @file
 * Unified entry point of the kernel-plan analysis subsystem.
 *
 * One call dispatches every check family over a compiled cluster: the
 * AS0xx structural consistency checks (the original plan validator),
 * the AS1xx..AS5xx SIMT hazard sanitizer, the AS7xx kernel-access
 * verifier over the emitted access summaries, and the AS9xx static
 * analyzer over the emitted CUDA text itself. The pipeline (Session,
 * the stitching backend, the CLI) routes through this one path;
 * individual check families remain callable directly from
 * plan_consistency.h, sanitizer.h, kernel_verifier.h and
 * cuda_static.h.
 */
#ifndef ASTITCH_ANALYSIS_ANALYZER_H
#define ASTITCH_ANALYSIS_ANALYZER_H

#include "analysis/cuda_static.h"
#include "analysis/diagnostics.h"
#include "analysis/kernel_verifier.h"
#include "analysis/sanitizer.h"
#include "compiler/clustering.h"
#include "compiler/kernel_plan.h"
#include "sim/gpu_spec.h"

namespace astitch {

/**
 * Analysis inputs beyond the compiled cluster. There are no per-family
 * switches: every family always runs, and a caller that wants one
 * family's findings filters the engine by code prefix
 * (DiagnosticEngine::withCodePrefix / withFamily).
 */
struct AnalysisOptions
{
    /**
     * Declared dynamic-dimension ranges for shape-parametric (AS8xx)
     * certification. Empty (the default) disables the parametric pass;
     * non-empty makes the mutable-cluster analyzeCompiledCluster
     * overload attach a ShapeCertificate to every verifiable plan.
     */
    std::vector<ShapeDim> shape_params;
};

/**
 * Analyze one compiled cluster, reporting findings into @p engine.
 * Returns true when no Error-severity findings were added (warnings and
 * notes do not fail the analysis).
 */
bool analyzeCompiledCluster(const Graph &graph, const Cluster &cluster,
                            const CompiledCluster &compiled,
                            const GpuSpec &spec, DiagnosticEngine &engine);

/**
 * Mutable-cluster overload: runs the same check families and, when
 * options.shape_params is non-empty, additionally certifies every
 * kernel plan for the declared shape ranges (writing the resulting
 * ShapeCertificates into @p compiled). AS831 fallback notes do not
 * fail the analysis; parametric refutations (Error severity) do.
 */
bool analyzeCompiledCluster(const Graph &graph, const Cluster &cluster,
                            CompiledCluster &compiled, const GpuSpec &spec,
                            DiagnosticEngine &engine,
                            const AnalysisOptions &options = {});

} // namespace astitch

#endif // ASTITCH_ANALYSIS_ANALYZER_H
