#include "analysis/analyzer.h"

#include "analysis/plan_consistency.h"

namespace astitch {

bool
analyzeCompiledCluster(const Graph &graph, const Cluster &cluster,
                       const CompiledCluster &compiled, const GpuSpec &spec,
                       DiagnosticEngine &engine)
{
    const int errors_before = engine.count(Severity::Error);
    checkPlanConsistency(graph, cluster, compiled, spec, engine);
    sanitizeCompiledCluster(graph, compiled, spec, engine);
    verifyCompiledCluster(graph, compiled, spec, engine);
    for (const KernelPlan &plan : compiled.kernels)
        analyzeEmittedCuda(graph, plan, spec, engine);
    return engine.count(Severity::Error) == errors_before;
}

bool
analyzeCompiledCluster(const Graph &graph, const Cluster &cluster,
                       CompiledCluster &compiled, const GpuSpec &spec,
                       DiagnosticEngine &engine,
                       const AnalysisOptions &options)
{
    const CompiledCluster &immutable = compiled;
    bool clean =
        analyzeCompiledCluster(graph, cluster, immutable, spec, engine);
    if (!options.shape_params.empty()) {
        const int errors_before = engine.count(Severity::Error);
        certifyCompiledCluster(graph, compiled, options.shape_params,
                               engine);
        clean = clean && engine.count(Severity::Error) == errors_before;
    }
    return clean;
}

} // namespace astitch
