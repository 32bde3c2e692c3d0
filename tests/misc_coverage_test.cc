/**
 * @file
 * Broad coverage tests for surfaces not exercised elsewhere: evaluator
 * op corners, graph printing, report summaries, GPU spec presets,
 * session options, CUDA emission over the new ops, disconnected
 * remote-stitched clusters, and work-descriptor accounting.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "core/cuda_emitter.h"
#include "runtime/jit_cache.h"
#include "runtime/session.h"
#include "support/logging.h"
#include "test_graphs.h"
#include "workloads/common.h"

namespace astitch {
namespace {

const GpuSpec kV100 = GpuSpec::v100();

// ---------------------------------------------------------------------
// Evaluator corners
// ---------------------------------------------------------------------

TEST(EvaluatorOps, SelectCompareMinimumErf)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({4});
    NodeId y = b.parameter({4});
    NodeId pred = b.compareGT(x, y);
    NodeId sel = b.select(pred, b.minimum(x, y), b.erf(x));
    g.markOutput(sel);

    Evaluator ev(g);
    TensorMap feeds{
        {x, Tensor(Shape{4}, {1.0f, -2.0f, 3.0f, 0.0f})},
        {y, Tensor(Shape{4}, {0.0f, 5.0f, 3.0f, -1.0f})},
    };
    const auto out = ev.run(feeds);
    // x>y ? min(x,y) : erf(x)
    EXPECT_FLOAT_EQ(out[0].at(0), 0.0f);                 // 1>0: min=0
    EXPECT_FLOAT_EQ(out[0].at(1), std::erf(-2.0f));      // 1<5: erf
    EXPECT_FLOAT_EQ(out[0].at(2), std::erf(3.0f));       // equal: erf
    EXPECT_FLOAT_EQ(out[0].at(3), -1.0f);                // 0>-1: min
}

TEST(EvaluatorOps, ConcatThroughBackends)
{
    Graph g;
    GraphBuilder b(g);
    NodeId a = b.parameter({2, 3});
    NodeId c = b.parameter({2, 3});
    NodeId cat = b.concat({b.tanh(a), b.sigmoid(c)}, 0);
    g.markOutput(cat);
    const TensorMap feeds = workloads::makeRandomFeeds(g);
    const auto expected = Evaluator(g).run(feeds);
    Session session(g, std::make_unique<AStitchBackend>());
    const auto report = session.run(feeds);
    EXPECT_TRUE(report.outputs[0].allClose(expected[0]));
    EXPECT_EQ(report.outputs[0].shape(), (Shape{4, 3}));
}

TEST(EvaluatorOps, SqrtLogAbsNeg)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({3});
    g.markOutput(b.sqrt(b.abs(b.neg(x))));
    g.markOutput(b.log(b.add(b.abs(x), b.constantScalar(1.0f))));
    Evaluator ev(g);
    TensorMap feeds{{x, Tensor(Shape{3}, {-4.0f, 9.0f, 0.0f})}};
    const auto out = ev.run(feeds);
    EXPECT_FLOAT_EQ(out[0].at(0), 2.0f);
    EXPECT_FLOAT_EQ(out[0].at(1), 3.0f);
    EXPECT_FLOAT_EQ(out[1].at(1), std::log(10.0f));
}

// ---------------------------------------------------------------------
// Printing / reporting
// ---------------------------------------------------------------------

TEST(GraphPrinting, ToStringListsOpsAndOutputs)
{
    Graph g("demo");
    GraphBuilder b(g);
    NodeId x = b.parameter({4});
    g.markOutput(b.tanh(x));
    const std::string text = g.toString();
    EXPECT_NE(text.find("graph demo"), std::string::npos);
    EXPECT_NE(text.find("tanh"), std::string::npos);
    EXPECT_NE(text.find("[output]"), std::string::npos);
}

TEST(RunReport, SummaryContainsKeyNumbers)
{
    Graph g = testing::buildSoftmax(64, 64);
    Session session(g, std::make_unique<XlaBackend>());
    const RunReport report = session.profile();
    const std::string summary = report.summary();
    EXPECT_NE(summary.find("xla"), std::string::npos);
    EXPECT_NE(summary.find("mem kernels"), std::string::npos);
    EXPECT_NE(summary.find("overhead"), std::string::npos);
}

TEST(LaunchDimsPrinting, TripleChevronFormat)
{
    EXPECT_EQ((LaunchDims{160, 1024}).toString(), "<<<160, 1024>>>");
}

TEST(GpuSpecs, PresetsDifferMeaningfully)
{
    const GpuSpec v100 = GpuSpec::v100();
    const GpuSpec t4 = GpuSpec::t4();
    const GpuSpec a100 = GpuSpec::a100();
    EXPECT_GT(v100.mem_bandwidth_gbps, t4.mem_bandwidth_gbps);
    EXPECT_GT(a100.mem_bandwidth_gbps, v100.mem_bandwidth_gbps);
    EXPECT_GT(a100.matmul_throughput_multiplier, 1.0);
    EXPECT_LT(t4.max_threads_per_sm, v100.max_threads_per_sm);
}

TEST(GpuSpecs, T4WaveIsSmallerThanV100)
{
    const Occupancy v = computeOccupancy(GpuSpec::v100(), 1024, 32, 0);
    const Occupancy t = computeOccupancy(GpuSpec::t4(), 1024, 32, 0);
    EXPECT_GT(v.blocksPerWave(GpuSpec::v100()),
              t.blocksPerWave(GpuSpec::t4()));
}

// ---------------------------------------------------------------------
// Session options
// ---------------------------------------------------------------------

TEST(SessionOptions, MaxClusterNodesBoundsRemoteStitching)
{
    Graph g;
    GraphBuilder b(g);
    for (int i = 0; i < 8; ++i)
        g.markOutput(b.tanh(b.parameter({32})));

    SessionOptions unbounded;
    Session all(g, std::make_unique<AStitchBackend>(), unbounded);
    EXPECT_EQ(all.profile().num_clusters, 1);

    SessionOptions bounded;
    bounded.max_cluster_nodes = 2;
    Session some(g, std::make_unique<AStitchBackend>(), bounded);
    EXPECT_EQ(some.profile().num_clusters, 4);
}

TEST(SessionOptions, MaxClusterNodesIsPartOfTheJitCacheKey)
{
    Graph g;
    GraphBuilder b(g);
    for (int i = 0; i < 8; ++i)
        g.markOutput(b.tanh(b.parameter({32})));

    JitCache::global().clear();
    SessionOptions unbounded;
    unbounded.use_jit_cache = true;
    Session all(g, std::make_unique<AStitchBackend>(), unbounded);
    EXPECT_EQ(all.profile().num_clusters, 1);
    // The unbounded key is the plain graph/backend/device key, so
    // artifacts written before the bound joined the key stay valid.
    EXPECT_NE(JitCache::global().lookup(
                  JitCache::makeKey(g, "astitch", unbounded.spec)),
              nullptr);

    // A bounded session must not be served the unbounded compile.
    SessionOptions bounded = unbounded;
    bounded.max_cluster_nodes = 2;
    Session some(g, std::make_unique<AStitchBackend>(), bounded);
    EXPECT_EQ(some.profile().num_clusters, 4);
    EXPECT_EQ(JitCache::global().size(), 2u);
    JitCache::global().clear();
}

TEST(SessionOptions, DifferentGpusChangeTimes)
{
    Graph g = testing::buildSoftmax(4096, 512);
    SessionOptions v100;
    SessionOptions t4;
    t4.spec = GpuSpec::t4();
    Session fast(g, std::make_unique<AStitchBackend>(), v100);
    Session slow(g, std::make_unique<AStitchBackend>(), t4);
    // T4 has ~1/3 the bandwidth: the same plan runs slower.
    EXPECT_GT(slow.profile().end_to_end_us,
              1.5 * fast.profile().end_to_end_us);
}

TEST(SessionOptions, OptimizerComposesWithJitCache)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({64});
    NodeId dup1 = b.exp(x);
    NodeId dup2 = b.exp(x);
    g.markOutput(b.add(dup1, dup2));

    SessionOptions options;
    options.enable_optimizer = true;
    options.use_jit_cache = true;
    Session s1(g, std::make_unique<AStitchBackend>(), options);
    Session s2(g, std::make_unique<AStitchBackend>(), options);
    const auto r1 = s1.profile();
    const auto r2 = s2.profile();
    EXPECT_DOUBLE_EQ(r1.end_to_end_us, r2.end_to_end_us);
    // CSE merged the duplicate exp before compilation.
    EXPECT_LT(s1.activeGraph().numNodes(), g.numNodes());
}

// ---------------------------------------------------------------------
// Remote-stitched disconnected clusters
// ---------------------------------------------------------------------

TEST(RemoteStitched, DisconnectedPiecesGetSeparateGroups)
{
    // Two independent softmaxes merge into one stitch op; its dominant
    // analysis must seed groups inside each disconnected piece.
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({64, 64});
    NodeId y = b.parameter({32, 128});
    b.output(b.softmax(x));
    b.output(b.softmax(y));
    auto clusters =
        remoteStitch(g, findMemoryIntensiveClusters(g));
    ASSERT_EQ(clusters.size(), 1u);
    const auto analysis = analyzeDominants(g, clusters[0], true);
    // Two reduce groups per softmax.
    int reduce_groups = 0;
    for (const auto &grp : analysis.groups)
        reduce_groups += isReduce(g.node(grp.dominant).kind());
    EXPECT_EQ(reduce_groups, 4);
    // Functional execution through the single stitched kernel.
    const TensorMap feeds = workloads::makeRandomFeeds(g);
    const auto expected = Evaluator(g).run(feeds);
    Session session(g, std::make_unique<AStitchBackend>());
    const auto report = session.run(feeds);
    EXPECT_EQ(report.memKernelCount(), 1);
    EXPECT_TRUE(report.outputs[0].allClose(expected[0], 1e-4, 1e-5));
    EXPECT_TRUE(report.outputs[1].allClose(expected[1], 1e-4, 1e-5));
}

// ---------------------------------------------------------------------
// Work-descriptor accounting
// ---------------------------------------------------------------------

TEST(WorkDesc, LoadFactorScalesReads)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({1024});
    NodeId y = b.tanh(x);
    g.markOutput(y);

    KernelPlan plan;
    plan.name = "k";
    plan.inputs.push_back(KernelInput{x, 3.0});
    plan.ops.push_back(ScheduledOp{y, 1.0, BufferSpace::Output, {}});
    plan.outputs.push_back(y);
    const KernelWorkDesc desc = workDescFor(g, plan);
    EXPECT_DOUBLE_EQ(desc.bytes_read, 3.0 * 1024 * 4);
    EXPECT_DOUBLE_EQ(desc.bytes_written, 1024 * 4);
}

TEST(WorkDesc, GlobalSpaceCountsWriteAndReadBack)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({1024});
    NodeId mid = b.tanh(x);
    NodeId out = b.exp(mid);
    g.markOutput(out);

    KernelPlan plan;
    plan.name = "k";
    plan.inputs.push_back(KernelInput{x, 1.0});
    plan.ops.push_back(ScheduledOp{mid, 1.0, BufferSpace::Global, {}});
    plan.ops.push_back(ScheduledOp{out, 1.0, BufferSpace::Output, {}});
    plan.outputs.push_back(out);
    const KernelWorkDesc desc = workDescFor(g, plan);
    // input + global read-back; output + global write.
    EXPECT_DOUBLE_EQ(desc.bytes_read, 2.0 * 1024 * 4);
    EXPECT_DOUBLE_EQ(desc.bytes_written, 2.0 * 1024 * 4);
}

TEST(WorkDesc, RecomputeScalesInstructionsNotTraffic)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({128});
    NodeId y = b.tanh(x);
    g.markOutput(y);

    KernelPlan plan;
    plan.name = "k";
    plan.inputs.push_back(KernelInput{x, 1.0});
    plan.ops.push_back(ScheduledOp{y, 8.0, BufferSpace::Output, {}});
    plan.outputs.push_back(y);
    const KernelWorkDesc one = workDescFor(g, plan);
    plan.ops[0].recompute_factor = 1.0;
    const KernelWorkDesc base = workDescFor(g, plan);
    EXPECT_DOUBLE_EQ(one.fp_instructions, 8.0 * base.fp_instructions);
    EXPECT_DOUBLE_EQ(one.bytes_written, base.bytes_written);
}

// ---------------------------------------------------------------------
// CUDA emission over the extended op set
// ---------------------------------------------------------------------

TEST(CudaEmission, HandlesGatherSliceAndPad)
{
    Graph g;
    GraphBuilder b(g);
    NodeId table = b.parameter({64, 8});
    NodeId ids = b.constant(Tensor::iota({16}));
    NodeId e = b.gather(table, ids);
    NodeId s = b.slice(b.sigmoid(e), 0, 8);
    g.markOutput(b.pad(s, {16, 8}));
    auto clusters = findMemoryIntensiveClusters(g);
    const CudaEmission emission =
        emitStitchKernelCuda(g, clusters[0], kV100);
    EXPECT_NE(emission.source.find("v_gather"), std::string::npos);
    EXPECT_NE(emission.source.find("v_slice"), std::string::npos);
    EXPECT_NE(emission.source.find("v_pad"), std::string::npos);
}

TEST(CudaEmission, EveryWorkloadClusterEmits)
{
    // The emitter must not choke on any production cluster.
    for (const auto &spec : workloads::inferenceWorkloads()) {
        const Graph graph = spec.build();
        auto clusters =
            remoteStitch(graph, findMemoryIntensiveClusters(graph));
        for (std::size_t i = 0; i < std::min<std::size_t>(3,
                                                          clusters.size());
             ++i) {
            const CudaEmission emission =
                emitStitchKernelCuda(graph, clusters[i], kV100);
            EXPECT_NE(emission.source.find("__global__"),
                      std::string::npos)
                << spec.name << " cluster " << i;
        }
    }
}

} // namespace
} // namespace astitch
