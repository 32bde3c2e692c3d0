/**
 * @file
 * zoo_jit: the five Table-2 inference models and the three training
 * graphs on V100, T4 and A100 (24 pairs), compiled with AStitch.
 *
 * Why: each graph has many small and medium clusters, so per-cluster
 * codegen, analysis and the disk cache take most of the time, while
 * clustering and simulator pricing take little. It is the only
 * workload that both writes the artifact cache (cold) and reads plus
 * re-verifies from it (warm).
 *
 * One pass: every pair cold into an empty artifact directory; every
 * pair warm from disk in a fresh Session (no JIT cache) and profiled;
 * XLA compiled and profiled on the five V100 inference models for the
 * fig11a ratio.
 */

#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "pipeline.h"
#include "runtime/artifact_cache.h"
#include "workloads/common.h"

namespace perfbench {

using namespace astitch;

namespace {

class ZooJit : public Workload
{
  public:
    explicit ZooJit(const WorkloadConfig &config)
        : config_(config), dir_(config.scratch_dir + "/zoo_artifacts")
    {
    }

    void setup() override
    {
        for (const workloads::WorkloadSpec &w :
             workloads::inferenceWorkloads())
            models_.push_back({w.name + "/inference", true, w.build()});
        for (const workloads::WorkloadSpec &w :
             workloads::trainingWorkloads())
            models_.push_back({w.name + "/training", false, w.build()});
        ArtifactCache(dir_).clear();
    }

    void teardown() override { models_.clear(); }

    Metrics pass(Tracer *tracer, Outcome &outcome) override
    {
        const std::vector<GpuSpec> gpus = {GpuSpec::v100(), GpuSpec::t4(),
                                           GpuSpec::a100()};
        {
            Span span(tracer, "runtime.artifact_clear");
            ArtifactCache(dir_).clear();
        }

        // ---- Cold: compile every pair and persist it. ----
        PassTotals totals;
        double cold_s = 0.0;
        for (const GpuSpec &gpu : gpus) {
            for (const Model &model : models_) {
                const ColdCompile cold =
                    compileCold(model.graph, gpu, dir_, tracer,
                                "cold " + model.name + "@" + gpu.name,
                                outcome);
                cold_s += cold.wall_s;
                totals.addCompile(cold);
            }
        }
        calibrationPoint();
        double artifact_bytes = 0.0;
        {
            Span span(tracer, "runtime.artifact_scan");
            for (const ArtifactFileInfo &file : ArtifactCache(dir_).scan())
                if (!file.quarantined)
                    artifact_bytes += static_cast<double>(file.bytes);
        }

        // ---- Warm: restore every pair from disk, then profile it. ----
        double warm_s = 0.0, profile_s = 0.0, load_ms = 0.0,
               verify_ms = 0.0;
        std::vector<double> v100_inference_us;
        for (const GpuSpec &gpu : gpus) {
            for (const Model &model : models_) {
                const std::string label =
                    "warm " + model.name + "@" + gpu.name;
                SessionOptions options;
                options.spec = gpu;
                options.compile_threads = kCompileThreads;
                options.artifact_cache_dir = dir_;
                Session session(model.graph,
                                std::make_unique<AStitchBackend>(),
                                options);
                {
                    Span span(tracer, "runtime.warm_start");
                    const Clock::time_point t0 = Clock::now();
                    session.compile();
                    warm_s += secondsSince(t0);
                }
                const CompilePassTimings &t = session.passTimings();
                load_ms += t.artifact_load_ms;
                verify_ms += t.artifact_verify_ms;
                outcome.check(
                    t.fromArtifact() && t.clustering_ms == 0.0 &&
                        t.remote_stitch_ms == 0.0 &&
                        t.backend_compile_ms == 0.0 &&
                        t.analysis_ms == 0.0 &&
                        t.parallel_section_ms == 0.0,
                    label + ": missed the disk cache or ran a compile "
                            "pass");
                const int found =
                    session.diagnostics().count(Severity::Error);
                totals.error_findings += found;
                outcome.check(found == 0, label + ": analyzer Error "
                                                  "finding(s)");
                outcome.check(!session.degradation().degraded(),
                              label + ": demoted below FullStitch");

                Span span(tracer, "sim.profile");
                const Clock::time_point t0 = Clock::now();
                const RunReport report = session.profile();
                profile_s += secondsSince(t0);
                const double latency_us = totals.addProfile(report);
                if (gpu.name == GpuSpec::v100().name && model.inference)
                    v100_inference_us.push_back(latency_us);
            }
        }
        calibrationPoint();

        // ---- XLA reference on the V100 inference models (fig11a). ----
        double xla_s = 0.0;
        std::vector<double> speedups;
        std::size_t v100_index = 0;
        for (const Model &model : models_) {
            if (!model.inference)
                continue;
            Span span(tracer, "backends.xla");
            const Clock::time_point t0 = Clock::now();
            SessionOptions options;
            options.compile_threads = kCompileThreads;
            Session session(model.graph, std::make_unique<XlaBackend>(),
                            options);
            const RunReport report = session.profile();
            xla_s += secondsSince(t0);
            speedups.push_back(report.end_to_end_us /
                               v100_inference_us.at(v100_index++));
        }

        Metrics m;
        m.set("host_s", cold_s + warm_s + profile_s + xla_s, "s");
        m.set("runtime.compile_s", cold_s, "s");
        m.set("runtime.warm_start_s", warm_s, "s");
        m.set("runtime.warm_verify_share", verify_ms / (warm_s * 1e3),
              "ratio");
        m.set("runtime.artifact_load_ms", load_ms, "ms");
        m.set("runtime.artifact_verify_ms", verify_ms, "ms");
        m.set("runtime.artifact_bytes", artifact_bytes, "bytes");
        m.set("sim.speedup_vs_xla", geomean(speedups), "x");
        totals.report(m);
        return m;
    }

    std::vector<std::string> deterministicMetrics() const override
    {
        std::vector<std::string> names = PassTotals::metricNames();
        names.push_back("sim.speedup_vs_xla");
        names.push_back("runtime.artifact_bytes");
        return names;
    }

  private:
    struct Model
    {
        std::string name;
        bool inference;
        Graph graph;
    };

    WorkloadConfig config_;
    std::string dir_;
    std::vector<Model> models_;
};

} // namespace

std::unique_ptr<Workload>
makeZooJit(const WorkloadConfig &config)
{
    return std::make_unique<ZooJit>(config);
}

} // namespace perfbench
