/**
 * @file
 * Tests of the AS0xx structural plan-consistency checks through the
 * unified analyzer: each defect category must be caught, every real
 * backend must validate cleanly.
 */
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "backends/tf/cuda_graph_backend.h"
#include "backends/trt/trt_backend.h"
#include "backends/tvm/tvm_backend.h"
#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "runtime/session.h"
#include "support/logging.h"
#include "test_graphs.h"
#include "workloads/common.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

const GpuSpec kV100 = GpuSpec::v100();

/** The AS0xx findings for one compiled cluster. */
std::vector<Diagnostic>
consistencyFindings(const Graph &graph, const Cluster &cluster,
                    const CompiledCluster &compiled, const GpuSpec &spec)
{
    DiagnosticEngine engine;
    analyzeCompiledCluster(graph, cluster, compiled, spec, engine);
    return engine.withCodePrefix("AS0");
}

/** A trivially valid 1-op cluster + plan to mutate. */
struct Fixture
{
    Graph graph;
    Cluster cluster;
    CompiledCluster compiled;
    NodeId x, y;

    Fixture()
    {
        GraphBuilder b(graph);
        x = b.parameter({64});
        y = b.tanh(x);
        graph.markOutput(y);
        cluster = findMemoryIntensiveClusters(graph)[0];

        KernelPlan plan;
        plan.name = "k";
        plan.launch = LaunchDims{1, 64};
        plan.inputs.push_back(KernelInput{x, 1.0});
        plan.ops.push_back(ScheduledOp{y, 1.0, BufferSpace::Output, {}});
        plan.outputs.push_back(y);
        compiled.kernels.push_back(std::move(plan));
    }
};

TEST(PlanConsistency, AcceptsAValidPlan)
{
    Fixture f;
    EXPECT_TRUE(
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100)
            .empty());
    DiagnosticEngine engine;
    EXPECT_TRUE(analyzeCompiledCluster(f.graph, f.cluster, f.compiled,
                                       kV100, engine));
}

TEST(PlanConsistency, CatchesOversizedBlock)
{
    Fixture f;
    f.compiled.kernels[0].launch.block = 2048;
    const auto defects =
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100);
    ASSERT_FALSE(defects.empty());
    EXPECT_NE(defects[0].message.find("block size"), std::string::npos);
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeCompiledCluster(f.graph, f.cluster, f.compiled,
                                        kV100, engine));
}

TEST(PlanConsistency, CatchesRegisterAndSmemViolations)
{
    Fixture f;
    f.compiled.kernels[0].regs_per_thread = 300;
    f.compiled.kernels[0].smem_per_block = 100 * 1024;
    const auto defects =
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100);
    EXPECT_EQ(defects.size(), 2u);
}

TEST(PlanConsistency, CatchesBarrierBeyondWave)
{
    Fixture f;
    f.compiled.kernels[0].launch = LaunchDims{161, 1024};
    f.compiled.kernels[0].num_global_barriers = 1;
    const auto defects =
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100);
    ASSERT_FALSE(defects.empty());
    EXPECT_NE(defects[0].message.find("wave capacity"),
              std::string::npos);
}

TEST(PlanConsistency, CatchesMissingInputMaterialization)
{
    Fixture f;
    // Pretend the kernel reads an intermediate never written.
    f.compiled.kernels[0].inputs[0].node = f.y;
    const auto defects =
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100);
    EXPECT_FALSE(defects.empty());
}

TEST(PlanConsistency, CatchesUseBeforeDef)
{
    Fixture f;
    f.compiled.kernels[0].inputs.clear(); // y reads x with no input
    const auto defects =
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100);
    bool found = false;
    for (const auto &d : defects)
        found |= d.message.find("before it is available") !=
                 std::string::npos;
    EXPECT_TRUE(found);
}

TEST(PlanConsistency, CatchesUnscheduledClusterNode)
{
    Fixture f;
    f.compiled.kernels[0].ops.clear();
    f.compiled.kernels[0].outputs.clear();
    const auto defects =
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100);
    bool coverage = false, output = false;
    for (const auto &d : defects) {
        coverage |=
            d.message.find("not scheduled") != std::string::npos;
        output |=
            d.message.find("never materialized") != std::string::npos;
    }
    EXPECT_TRUE(coverage);
    EXPECT_TRUE(output);
}

TEST(PlanConsistency, CatchesSubUnitFactors)
{
    Fixture f;
    f.compiled.kernels[0].ops[0].recompute_factor = 0.5;
    f.compiled.kernels[0].inputs[0].load_factor = 0.0;
    const auto defects =
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100);
    EXPECT_EQ(defects.size(), 2u);
}

TEST(PlanConsistency, FindingsCarryStableCodes)
{
    Fixture f;
    f.compiled.kernels[0].launch.block = 2048;
    const auto defects =
        consistencyFindings(f.graph, f.cluster, f.compiled, kV100);
    ASSERT_FALSE(defects.empty());
    for (const auto &d : defects) {
        EXPECT_EQ(familyOf(d.code), "AS0");
        EXPECT_NE(findDiagnosticCode(d.code), nullptr);
    }
}

TEST(PlanConsistency, EveryBackendValidatesOnEveryWorkload)
{
    std::vector<std::function<std::unique_ptr<Backend>()>> backends = {
        [] { return std::make_unique<TfBackend>(); },
        [] { return std::make_unique<CudaGraphBackend>(); },
        [] { return std::make_unique<XlaBackend>(); },
        [] { return std::make_unique<TvmBackend>(); },
        [] { return std::make_unique<TvmBackend>(true); },
        [] { return std::make_unique<TrtBackend>(); },
        [] { return std::make_unique<AStitchBackend>(); },
        [] {
            return std::make_unique<AStitchBackend>(
                AStitchBackend::withoutMerging());
        },
    };
    for (const auto &spec : workloads::inferenceWorkloads()) {
        const Graph graph = spec.build();
        for (const auto &make : backends) {
            // Sessions fatal on any structural (AS0xx) defect.
            Session session(graph, make(), SessionOptions{});
            EXPECT_NO_THROW(session.compile()) << spec.name;
        }
    }
}

TEST(PlanConsistency, RandomGraphSweep)
{
    for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
        workloads::RandomGraphConfig config;
        config.num_nodes = 400;
        config.seed = seed;
        const Graph graph = workloads::buildRandomGraph(config);
        for (int which = 0; which < 2; ++which) {
            std::unique_ptr<Backend> backend;
            if (which == 0)
                backend = std::make_unique<XlaBackend>();
            else
                backend = std::make_unique<AStitchBackend>();
            Session session(graph, std::move(backend));
            session.compile();
            const auto &clusters = session.clusters();
            const auto &compiled = session.compiled();
            for (std::size_t i = 0; i < clusters.size(); ++i) {
                EXPECT_TRUE(consistencyFindings(graph, clusters[i],
                                                compiled[i], kV100)
                                .empty())
                    << "seed " << seed;
            }
        }
    }
}

} // namespace
} // namespace astitch
