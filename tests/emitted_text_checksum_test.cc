/**
 * @file
 * Pins the exact text stitch codegen emits over a fixed corpus: every
 * kernel of the eight zoo graphs (the five Table-2 models and the three
 * training graphs) on V100/T4/A100, and every kernel of the 5k-node
 * Sec 6.4.1 random graph (seed 17) on V100.
 *
 * One FNV-1a checksum covers, per kernel in compile order, the plan's
 * name, its cuda_source, and every access-summary entry's buffer name
 * and one-line rendering. The value was recorded from the
 * ostringstream-based emitter that preceded the single-buffer one; any
 * change to a byte of emitted text changes it. The fig5 goldens in
 * cuda_emitter_test show a reviewable diff for two small kernels; this
 * test covers the rest.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/clustering.h"
#include "core/astitch_backend.h"
#include "support/atomic_file.h"
#include "workloads/common.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

/** Appends every emitted kernel's text to one log. */
struct EmittedTextLog
{
    std::string text;
    int kernels = 0;
    std::size_t source_bytes = 0;

    void
    compile(const Graph &graph, const GpuSpec &spec)
    {
        const AStitchBackend backend;
        for (const Cluster &cluster :
             remoteStitch(graph, findMemoryIntensiveClusters(graph), 0)) {
            const CompiledCluster compiled =
                backend.compileCluster(graph, cluster, spec);
            for (const KernelPlan &plan : compiled.kernels)
                append(plan);
        }
    }

    void
    append(const KernelPlan &plan)
    {
        ++kernels;
        source_bytes += plan.cuda_source.size();
        text += plan.name;
        text += '\n';
        text += plan.cuda_source;
        for (const OpAccess &access : plan.accesses) {
            text += access.buffer;
            text += '|';
            text += access.toString();
            text += '\n';
        }
    }
};

TEST(EmittedTextChecksum, ZooOnEveryDeviceAndTheSec641Giant)
{
    EmittedTextLog log;
    std::vector<Graph> zoo;
    for (const workloads::WorkloadSpec &w : workloads::inferenceWorkloads())
        zoo.push_back(w.build());
    for (const workloads::WorkloadSpec &w : workloads::trainingWorkloads())
        zoo.push_back(w.build());
    for (const GpuSpec &spec :
         {GpuSpec::v100(), GpuSpec::t4(), GpuSpec::a100()}) {
        for (const Graph &graph : zoo)
            log.compile(graph, spec);
    }

    workloads::RandomGraphConfig random;
    random.num_nodes = 5000;
    random.seed = 17;
    log.compile(workloads::buildRandomGraph(random), GpuSpec::v100());

    // Recorded from the ostringstream-based emitter.
    EXPECT_EQ(log.kernels, 1025);
    EXPECT_EQ(log.source_bytes, 8857500u);
    EXPECT_EQ(checksum64(log.text), 0x7abed0d888c88aa9ULL);
}

} // namespace
} // namespace astitch
