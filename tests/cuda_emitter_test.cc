/**
 * @file
 * Tests of the CUDA source emitter.
 *
 * Two layers:
 *  - Golden-file regression: the full emitted text of one small Fig. 5
 *    workload per stitching scheme (regional / global) is pinned under
 *    tests/golden/. Any emitter change that alters the text shows up
 *    as a reviewable diff; regenerate deliberately with
 *    `ASTITCH_UPDATE_GOLDEN=1 ctest -R CudaEmitterGolden`.
 *  - Plan-coupled structure: properties that must track *computed* plan
 *    values (arena size, barrier counts, signature arity, launch stub)
 *    and so cannot be frozen into a golden file.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/cuda_static.h"
#include "core/cuda_emitter.h"
#include "support/strings.h"
#include "test_graphs.h"

namespace astitch {
namespace {

const GpuSpec kV100 = GpuSpec::v100();

Cluster
soleCluster(const Graph &g)
{
    auto clusters = findMemoryIntensiveClusters(g);
    EXPECT_EQ(clusters.size(), 1u);
    return clusters[0];
}

int
countOccurrences(const std::string &text, const std::string &needle)
{
    int count = 0;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
        ++count;
        pos += needle.size();
    }
    return count;
}

// ---------------------------------------------------------------------
// Golden-file regression.
// ---------------------------------------------------------------------

/**
 * Compare @p text against tests/golden/@p name byte for byte. With
 * ASTITCH_UPDATE_GOLDEN set in the environment the file is rewritten
 * instead — the diff then goes through review like any code change.
 */
void
expectMatchesGolden(const std::string &name, const std::string &text)
{
    const std::string path =
        std::string(ASTITCH_SOURCE_DIR) + "/tests/golden/" + name;
    if (std::getenv("ASTITCH_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << text;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — regenerate with ASTITCH_UPDATE_GOLDEN=1";
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), text)
        << "emitted CUDA drifted from " << path
        << " — if intentional, regenerate with ASTITCH_UPDATE_GOLDEN=1";
}

/** Fig. 5 with a reduce tail whose split schedule forces the add onto
 * the global stitching scheme (grid barrier in the emitted text). */
Graph
buildFig5Global()
{
    auto f = testing::buildFig5(8, 2048);
    GraphBuilder b(f.graph);
    f.graph.markOutput(b.reduceSum(f.add, {1}));
    return std::move(f.graph);
}

TEST(CudaEmitterGolden, Fig5RegionalMatchesGolden)
{
    auto f = testing::buildFig5(2, 128);
    const CudaEmission emission =
        emitStitchKernelCuda(f.graph, soleCluster(f.graph), kV100);
    // Sanity before pinning: regional scheme only.
    EXPECT_GE(countOccurrences(emission.source, "__syncthreads();"), 1);
    EXPECT_EQ(emission.source.find("grid_barrier"), std::string::npos);
    expectMatchesGolden("fig5_regional.cu", emission.source);
}

TEST(CudaEmitterGolden, Fig5GlobalMatchesGolden)
{
    const Graph g = buildFig5Global();
    const CudaEmission emission =
        emitStitchKernelCuda(g, soleCluster(g), kV100);
    // Sanity before pinning: a global-scheme boundary and its helper.
    EXPECT_GE(countOccurrences(emission.source,
                               "grid_barrier(barrier_state"),
              1);
    EXPECT_EQ(countOccurrences(emission.source, "__device__ void"), 1);
    expectMatchesGolden("fig5_global.cu", emission.source);
}

/**
 * Every element-wise op kind, a three-way concat, a gather and the
 * three non-sum reduces, with node names that need mangling: the kinds
 * the zoo and Sec 6.4.1 corpora render rarely or never (Select, Erf)
 * are pinned here.
 */
Graph
buildEveryOpKind()
{
    Graph g("every.op");
    GraphBuilder b(g);
    const NodeId x = b.parameter({4, 64}, "x.in");
    const NodeId y = b.parameter({4, 64}, "y-in");
    const NodeId picked = b.select(b.compareGT(x, y), x, y);
    const NodeId unary = b.tanh(
        b.exp(b.log(b.abs(b.neg(b.erf(picked))))));
    const NodeId scaled = b.rsqrt(b.sigmoid(b.power(b.sqrt(unary), 2.5)));
    const NodeId mixed = b.maximum(b.minimum(scaled, x),
                                   b.div(b.sub(scaled, y), b.mul(x, y)));
    const NodeId joined = b.concat({mixed, x, y}, 0);
    const NodeId table = b.parameter({16, 64}, "table");
    const NodeId rows = b.parameter({12}, "rows");
    const NodeId looked_up = b.add(joined, b.gather(table, rows));
    g.markOutput(b.reduceMax(looked_up, {1}));
    g.markOutput(b.reduceMin(looked_up, {1}));
    g.markOutput(b.reduceMean(looked_up, {1}));
    return g;
}

TEST(CudaEmitterGolden, EveryOpKindMatchesGolden)
{
    const Graph g = buildEveryOpKind();
    std::string text;
    for (const Cluster &cluster : findMemoryIntensiveClusters(g)) {
        const CudaEmission emission = emitStitchKernelCuda(g, cluster, kV100);
        text += emission.launch_stub;
        text += '\n';
        text += emission.source;
    }
    for (const char *needle :
         {" != 0.0f) ? ", "erff(", "powf(", "(elem < ", "_idx = (long)",
          "fminf(acc, x)", "fmaxf(acc, x)", ".0f;", "v_x_in", "v_y_in"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
    expectMatchesGolden("every_op_kind.cu", text);
}

TEST(CudaEmitterGolden, GoldenWorkloadsPassEmittedAnalysis)
{
    // The pinned texts must also hold up under the AS9xx analyzer —
    // a golden file is not allowed to freeze a defect.
    for (const bool global : {false, true}) {
        Graph g = global ? buildFig5Global()
                         : std::move(testing::buildFig5(2, 128).graph);
        const Cluster cluster = soleCluster(g);
        StitchDiagnostics diag;
        const CompiledCluster compiled = compileStitchOp(
            g, cluster, kV100, AStitchOptions{}, &diag);
        DiagnosticEngine engine;
        for (const KernelPlan &plan : compiled.kernels) {
            EXPECT_FALSE(plan.cuda_source.empty());
            EXPECT_TRUE(
                analyzeEmittedCuda(g, plan, kV100, engine))
                << engine.renderText();
        }
    }
}

// ---------------------------------------------------------------------
// Plan-coupled structure (cannot be frozen into a golden file).
// ---------------------------------------------------------------------

TEST(CudaEmitter, SharedArenaMatchesMemoryPlanner)
{
    auto f = testing::buildFig7();
    const Cluster cluster = soleCluster(f.graph);
    StitchDiagnostics diag;
    compileStitchOp(f.graph, cluster, kV100, AStitchOptions{}, &diag);
    const CudaEmission emission =
        emitStitchKernelCuda(f.graph, cluster, kV100);
    EXPECT_NE(emission.source.find(
                  strCat("__shared__ float smem[",
                         (diag.memory.smem_per_block + 3) / 4, "]")),
              std::string::npos);
}

TEST(CudaEmitter, EveryClusterOpAppears)
{
    auto f = testing::buildFig7();
    const Cluster cluster = soleCluster(f.graph);
    const CudaEmission emission =
        emitStitchKernelCuda(f.graph, cluster, kV100);
    // Each non-source op produces a value definition or reduce comment.
    for (NodeId id : cluster.nodes) {
        const std::string name = f.graph.node(id).name();
        std::string mangled = name;
        for (char &c : mangled) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        EXPECT_NE(emission.source.find("v_" + mangled),
                  std::string::npos)
            << name << " missing from emission";
    }
}

TEST(CudaEmitter, GridBarrierCountMatchesPlan)
{
    // The <64,30000> softmax stitches with split reduces -> global
    // scheme boundaries -> grid barriers.
    Graph g = testing::buildSoftmax(64, 30000);
    const Cluster cluster = soleCluster(g);
    StitchDiagnostics diag;
    const auto compiled =
        compileStitchOp(g, cluster, kV100, AStitchOptions{}, &diag);
    const CudaEmission emission = emitStitchKernelCuda(g, cluster, kV100);
    const int barriers = compiled.kernels[0].num_global_barriers;
    ASSERT_GT(barriers, 0);
    EXPECT_EQ(countOccurrences(emission.source,
                               "grid_barrier(barrier_state"),
              barriers);
    // The helper is defined exactly once.
    EXPECT_EQ(countOccurrences(emission.source,
                               "__device__ void"),
              1);
}

TEST(CudaEmitter, SignatureListsInputsAndOutputs)
{
    auto f = testing::buildFig7();
    const Cluster cluster = soleCluster(f.graph);
    const CudaEmission emission =
        emitStitchKernelCuda(f.graph, cluster, kV100);
    EXPECT_EQ(countOccurrences(emission.source,
                               "const float *__restrict__"),
              static_cast<int>(cluster.inputs.size()));
    EXPECT_EQ(countOccurrences(emission.source, "_out"),
              2 * static_cast<int>(cluster.outputs.size()));
}

TEST(CudaEmitter, LaunchStubMatchesPlan)
{
    auto f = testing::buildFig7();
    const Cluster cluster = soleCluster(f.graph);
    StitchDiagnostics diag;
    const auto compiled =
        compileStitchOp(f.graph, cluster, kV100, AStitchOptions{}, &diag);
    const CudaEmission emission =
        emitStitchKernelCuda(f.graph, cluster, kV100);
    const KernelPlan &plan = compiled.kernels[0];
    EXPECT_NE(emission.launch_stub.find(strCat(
                  "<<<", plan.launch.grid, ", ", plan.launch.block)),
              std::string::npos);
    EXPECT_NE(emission.launch_stub.find(strCat(
                  "-maxrregcount=", plan.regs_per_thread)),
              std::string::npos);
}

} // namespace
} // namespace astitch
