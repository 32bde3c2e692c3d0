/**
 * @file
 * Tests of the emitted-CUDA static analyzer (AS9xx).
 *
 * Four layers:
 *  - Lexer/survey units: comment stripping, punct longest-match, and
 *    the structural survey the CLI's `analyze --emitted` listing uses.
 *  - Seeded emitter mutations: compile a real workload, corrupt the
 *    emitted text the way a specific emitter bug would, and assert the
 *    analyzer catches it with exactly one distinct AS9xx code — the
 *    detection bar of DESIGN.md §15.
 *  - Synthetic sources: hand-written kernels driven through
 *    analyzeEmittedCudaSource with one check group enabled at a time,
 *    pinning each code to its own trigger.
 *  - Integration: a zero-findings sweep with the analyzer default-on
 *    across devices, and the artifact-cache warm-load gate rejecting a
 *    tampered stored kernel source (AS624).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/cuda_lexer.h"
#include "analysis/cuda_static.h"
#include "core/astitch_backend.h"
#include "core/cuda_emitter.h"
#include "runtime/artifact_cache.h"
#include "runtime/plan_serde.h"
#include "runtime/session.h"
#include "support/atomic_file.h"
#include "support/strings.h"
#include "test_graphs.h"
#include "workloads/common.h"

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

/** Distinct codes in @p engine starting with @p prefix (default: the
 * whole AS9xx family; "AS90", "AS91", "AS92" select one check group). */
std::set<std::string>
as9Codes(const DiagnosticEngine &engine, const std::string &prefix = "AS9")
{
    std::set<std::string> codes;
    for (const Diagnostic &d : engine.withCodePrefix(prefix))
        codes.insert(d.code);
    return codes;
}

/** True when a finding starting with @p prefix is an Error: whether
 * that check group alone would fail the analysis. */
bool
failsIn(const DiagnosticEngine &engine, const std::string &prefix)
{
    const std::vector<Diagnostic> found = engine.withCodePrefix(prefix);
    return std::any_of(found.begin(), found.end(), [](const Diagnostic &d) {
        return d.severity == Severity::Error;
    });
}

// ---------------------------------------------------------------------
// Lexer units.
// ---------------------------------------------------------------------

TEST(CudaStaticLexer, StripsCommentsAndPreprocessor)
{
    const CudaTokenStream lexed =
        lexCudaSource("#include <cuda_runtime.h>\n"
                      "int a = 1; // trailing note\n"
                      "/* block\n comment */ b += 2;\n");
    std::vector<std::string_view> texts;
    for (const CudaToken &t : lexed.tokens) {
        if (t.kind != CudaTokenKind::End)
            texts.push_back(t.text);
    }
    const std::vector<std::string_view> expected = {
        "int", "a", "=", "1", ";", "b", "+=", "2", ";"};
    EXPECT_EQ(texts, expected);
}

TEST(CudaStaticLexer, PunctuationLexesLongestMatch)
{
    const CudaTokenStream lexed = lexCudaSource("a += b->c <<< d");
    std::vector<std::string_view> puncts;
    for (const CudaToken &t : lexed.tokens) {
        if (t.kind == CudaTokenKind::Punct)
            puncts.push_back(t.text);
    }
    // "+=" and "->" must not split into single characters.
    EXPECT_NE(std::find(puncts.begin(), puncts.end(), "+="),
              puncts.end());
    EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->"),
              puncts.end());
    EXPECT_EQ(std::find(puncts.begin(), puncts.end(), "+"),
              puncts.end());
}

TEST(CudaStaticLexer, TracksLinesAndIntegerValues)
{
    const std::vector<CudaToken> tokens = lexCudaSource("x\n  1024\n").tokens;
    ASSERT_GE(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_TRUE(tokens[1].is_integer);
    EXPECT_EQ(tokens[1].value, 1024);
}

/** Tokens view their source: an rvalue string must not be lexable. */
template <typename S>
concept Lexable = requires(S &&source) {
    lexCudaSource(std::forward<S>(source));
};
static_assert(Lexable<const std::string &>);
static_assert(Lexable<std::string_view>);
static_assert(Lexable<const char *>);
static_assert(!Lexable<std::string>);

TEST(CudaStaticLexer, ClassifiesSymbolsAndInternsIdentifiers)
{
    const CudaTokenStream lexed =
        lexCudaSource("for (x = threadIdx.x; x < y; x += 2) __syncthreads();");
    const std::vector<CudaToken> &t = lexed.tokens;
    ASSERT_EQ(t.size(), 21u);
    EXPECT_EQ(t[0].sym, CudaSym::For);
    EXPECT_EQ(t[1].sym, CudaSym::LParen);
    EXPECT_EQ(t[3].sym, CudaSym::Assign);
    EXPECT_EQ(t[4].sym, CudaSym::ThreadIdx);
    EXPECT_EQ(t[5].sym, CudaSym::Dot);
    EXPECT_EQ(t[9].sym, CudaSym::Less);
    EXPECT_EQ(t[13].sym, CudaSym::PlusAssign);
    EXPECT_EQ(t[16].sym, CudaSym::SyncThreads);
    EXPECT_EQ(t[2].sym, CudaSym::None); // x: a plain identifier
    // Every spelling of x shares one id; ids count up from 0.
    EXPECT_EQ(t[2].ident, t[8].ident);
    EXPECT_EQ(t[2].ident, t[12].ident);
    EXPECT_NE(t[2].ident, t[10].ident);
    EXPECT_EQ(t[0].ident, 0);
    EXPECT_EQ(lexed.identifiers.at(t[10].ident), "y");
    EXPECT_EQ(t[1].ident, -1);
    // Tokens view the source they were lexed from.
    const std::string source = "float *p_smem;";
    const CudaTokenStream viewed = lexCudaSource(source);
    EXPECT_EQ(viewed.tokens[2].text.data(), source.data() + 7);
}

// ---------------------------------------------------------------------
// Structural survey.
// ---------------------------------------------------------------------

TEST(CudaStaticSurvey, ReportsKernelStructure)
{
    const EmittedSourceSurvey survey = surveyEmittedCuda(
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(128, 2)\n"
        "k(float *a)\n"
        "{\n"
        "    __shared__ float smem[64];\n"
        "    for (long task = blockIdx.x; task < 8; task += gridDim.x) {\n"
        "        smem[threadIdx.x % 64] = 0.0f;\n"
        "        __syncthreads();\n"
        "        a[task] = smem[0];\n"
        "    }\n"
        "}\n");
    EXPECT_TRUE(survey.parsed);
    EXPECT_EQ(survey.functions, 1);
    EXPECT_EQ(survey.sync_statements, 1);
    EXPECT_EQ(survey.grid_barrier_calls, 0);
    EXPECT_EQ(survey.task_loops, 1);
    EXPECT_EQ(survey.arena_words, 64);
    EXPECT_EQ(survey.launch_bounds_block, 128);
}

TEST(CudaStaticSurvey, UnparsableTextSurveysAsUnparsed)
{
    const EmittedSourceSurvey survey =
        surveyEmittedCuda("this is not CUDA source at all }{");
    EXPECT_FALSE(survey.parsed);
}

// ---------------------------------------------------------------------
// Seeded emitter mutations. Each corruption of a real workload's
// emitted text must be caught by exactly one distinct AS9xx code.
// ---------------------------------------------------------------------

/**
 * Compile @p g, check every emitted kernel is clean as rendered, apply
 * @p mutate to each kernel source it matches, and return the distinct
 * AS9xx codes the analyzer reports for the mutated text.
 */
std::set<std::string>
mutationFindings(Graph g, const std::function<bool(std::string *)> &mutate)
{
    const Cluster cluster = soleCluster(g);
    StitchDiagnostics diag;
    const CompiledCluster compiled =
        compileStitchOp(g, cluster, kV100, AStitchOptions{}, &diag);
    std::set<std::string> codes;
    bool mutated_any = false;
    for (const KernelPlan &plan : compiled.kernels) {
        DiagnosticEngine clean;
        EXPECT_TRUE(analyzeEmittedCuda(g, plan, kV100, clean))
            << clean.renderText();
        EXPECT_TRUE(as9Codes(clean).empty()) << clean.renderText();

        std::string source = plan.cuda_source;
        if (!mutate(&source))
            continue;
        mutated_any = true;
        DiagnosticEngine engine;
        analyzeEmittedCudaSource(g, source, plan, kV100, engine);
        const std::set<std::string> found = as9Codes(engine);
        codes.insert(found.begin(), found.end());
    }
    EXPECT_TRUE(mutated_any) << "mutation matched no kernel source";
    return codes;
}

bool
eraseFirst(std::string *source, const std::string &needle)
{
    const std::size_t pos = source->find(needle);
    if (pos == std::string::npos)
        return false;
    source->erase(pos, needle.size());
    return true;
}

bool
replaceAll(std::string *source, const std::string &from,
           const std::string &to)
{
    bool any = false;
    std::size_t pos = 0;
    while ((pos = source->find(from, pos)) != std::string::npos) {
        source->replace(pos, from.size(), to);
        pos += to.size();
        any = true;
    }
    return any;
}

/** Find the first integer after @p anchor and add @p delta to it. */
bool
bumpIntegerAfter(std::string *source, const std::string &anchor,
                 std::int64_t delta)
{
    const std::size_t pos = source->find(anchor);
    if (pos == std::string::npos)
        return false;
    std::size_t start = pos + anchor.size();
    std::size_t end = start;
    while (end < source->size() &&
           std::isdigit(static_cast<unsigned char>((*source)[end]))) {
        ++end;
    }
    if (end == start)
        return false;
    const std::int64_t value =
        std::stoll(source->substr(start, end - start));
    source->replace(start, end - start, std::to_string(value + delta));
    return true;
}

TEST(CudaStaticMutation, DroppedBlockBarrierFiresAS911)
{
    // Drop the arena-reuse separator (not a boundary sync covering a
    // regional store, so AS922 stays silent): the text then implements
    // one fewer block barrier than the plan schedules.
    const auto codes = mutationFindings(
        testing::buildSoftmax(4096, 256), [](std::string *source) {
            return eraseFirst(source,
                              "__syncthreads(); // arena reuse "
                              "separator");
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS911"});
}

TEST(CudaStaticMutation, ShrunkSharedArenaFiresAS912)
{
    // Declare one word less than the planner sized: regional slots can
    // overflow the arena.
    const auto codes = mutationFindings(
        std::move(testing::buildFig5(2, 128).graph),
        [](std::string *source) {
            return bumpIntegerAfter(source, "__shared__ float smem[",
                                    -1);
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS912"});
}

TEST(CudaStaticMutation, StrippedVolatileFiresAS921)
{
    // The <64,30000> softmax stitches on the global scheme; stripping
    // volatile from the grid-barrier flags lets the spin loop hoist.
    const auto codes = mutationFindings(
        testing::buildSoftmax(64, 30000), [](std::string *source) {
            return replaceAll(source, "volatile int *", "int *");
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS921"});
}

TEST(CudaStaticMutation, OffByOneTaskLoopBoundFiresAS923)
{
    const auto codes = mutationFindings(
        std::move(testing::buildFig5(2, 128).graph),
        [](std::string *source) {
            return bumpIntegerAfter(
                source, "for (long task = blockIdx.x; task < ", 1);
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS923"});
}

TEST(CudaStaticMutation, WrongLaunchBoundsFiresAS913)
{
    const auto codes = mutationFindings(
        std::move(testing::buildFig5(2, 128).graph),
        [](std::string *source) {
            return bumpIntegerAfter(source, "__launch_bounds__(", -1);
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS913"});
}

// ---------------------------------------------------------------------
// Synthetic sources, judged one check group (code prefix) at a time.
// ---------------------------------------------------------------------

TEST(CudaStaticSynthetic, UnparsableSourceFiresAS900)
{
    Graph g;
    KernelPlan plan;
    plan.name = "broken";
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeEmittedCudaSource(
        g, "no kernel here, just text }{", plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS900"});
}

TEST(CudaStaticSynthetic, BarrierUnderThreadDivergenceFiresAS901)
{
    Graph g;
    KernelPlan plan;
    plan.name = "divergent";
    DiagnosticEngine engine;
    analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void k(float *a)\n"
        "{\n"
        "    if (threadIdx.x < 5) {\n"
        "        __syncthreads();\n"
        "    }\n"
        "}\n",
        plan, kV100, engine);
    EXPECT_TRUE(failsIn(engine, "AS90")) << engine.renderText();
    EXPECT_EQ(as9Codes(engine, "AS90"), std::set<std::string>{"AS901"});
}

TEST(CudaStaticSynthetic, GridBarrierUnderBlockDivergenceFiresAS901)
{
    Graph g;
    KernelPlan plan;
    plan.name = "divergent_grid";
    DiagnosticEngine engine;
    analyzeEmittedCudaSource(
        g,
        "__device__ void grid_barrier(volatile int *a,"
        " volatile int *d) { __syncthreads(); }\n"
        "extern \"C\" __global__ void k(int *barrier_state)\n"
        "{\n"
        "    if (blockIdx.x < 3) {\n"
        "        grid_barrier(barrier_state + 0, barrier_state + 1);\n"
        "    }\n"
        "}\n",
        plan, kV100, engine);
    EXPECT_TRUE(failsIn(engine, "AS90")) << engine.renderText();
    EXPECT_EQ(as9Codes(engine, "AS90"), std::set<std::string>{"AS901"});
}

TEST(CudaStaticSynthetic, BarrierInDeadCodeFiresAS902)
{
    Graph g;
    KernelPlan plan;
    plan.name = "dead";
    DiagnosticEngine engine;
    // AS902 is Warning severity: on its own it fails nothing.
    analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void k(float *a)\n"
        "{\n"
        "    if (0) {\n"
        "        __syncthreads();\n"
        "    }\n"
        "}\n",
        plan, kV100, engine);
    EXPECT_FALSE(failsIn(engine, "AS90")) << engine.renderText();
    EXPECT_EQ(as9Codes(engine, "AS90"), std::set<std::string>{"AS902"});
}

TEST(CudaStaticSynthetic, UndeclaredBufferAccessFiresAS914)
{
    Graph g;
    KernelPlan plan;
    plan.name = "ghost";
    // A non-empty summary arms the access cross-check; the declared
    // buffer is not nameable from an empty plan, so only the text's
    // unknown buffers can be flagged.
    OpAccess access;
    access.buffer = "input:%0";
    access.kind = AccessKind::Read;
    plan.accesses.push_back(access);
    DiagnosticEngine engine;
    analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(float *out)\n"
        "{\n"
        "    const long elem = threadIdx.x;\n"
        "    out[elem] = v_ghost[elem];\n"
        "}\n",
        plan, kV100, engine);
    EXPECT_TRUE(failsIn(engine, "AS91")) << engine.renderText();
    EXPECT_EQ(as9Codes(engine, "AS91"), std::set<std::string>{"AS914"});
}

TEST(CudaStaticSynthetic, NonVolatileBarrierFlagsFireAS921)
{
    Graph g;
    KernelPlan plan;
    plan.name = "hoistable";
    DiagnosticEngine engine;
    analyzeEmittedCudaSource(
        g,
        "__device__ void grid_barrier(int *arrive, int *depart)\n"
        "{\n"
        "    __syncthreads();\n"
        "}\n"
        "extern \"C\" __global__ void k(int *barrier_state)\n"
        "{\n"
        "    grid_barrier(barrier_state + 0, barrier_state + 1);\n"
        "}\n",
        plan, kV100, engine);
    EXPECT_TRUE(failsIn(engine, "AS92")) << engine.renderText();
    EXPECT_EQ(as9Codes(engine, "AS92"), std::set<std::string>{"AS921"});
}

TEST(CudaStaticSynthetic, UnbarrieredSmemWriteFiresAS922)
{
    Graph g;
    KernelPlan plan;
    plan.name = "racy";
    DiagnosticEngine engine;
    // AS922 is Warning severity: on its own it fails nothing.
    analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void k(float *out)\n"
        "{\n"
        "    __shared__ float smem[32];\n"
        "    smem[threadIdx.x % 32] = 1.0f;\n"
        "    out[threadIdx.x] = smem[0];\n"
        "}\n",
        plan, kV100, engine);
    EXPECT_FALSE(failsIn(engine, "AS92")) << engine.renderText();
    EXPECT_EQ(as9Codes(engine, "AS92"), std::set<std::string>{"AS922"});
}

// ---------------------------------------------------------------------
// Integration: default-on sweep and the artifact warm-load gate.
// ---------------------------------------------------------------------

TEST(CudaStaticSweep, DefaultOnSessionsReportNoAS9xxAcrossDevices)
{
    const auto build = [](int which) -> Graph {
        switch (which) {
          case 0:
            return std::move(testing::buildFig7().graph);
          case 1:
            return std::move(testing::buildFig5(2, 128).graph);
          case 2:
            return testing::buildSoftmax(64, 512);
          default:
            return testing::buildSoftmax(64, 30000);
        }
    };
    for (const GpuSpec &spec :
         {GpuSpec::v100(), GpuSpec::t4(), GpuSpec::a100()}) {
        for (int which = 0; which < 4; ++which) {
            const Graph graph = build(which);
            SessionOptions options;
            options.spec = spec;
            Session session(graph, std::make_unique<AStitchBackend>(),
                            options);
            session.compile();
            EXPECT_TRUE(as9Codes(session.diagnostics()).empty())
                << "workload " << which << " on " << spec.name << ": "
                << session.diagnostics().renderText();
        }
    }
}

int
codeCount(const DiagnosticEngine &engine, const std::string &code)
{
    int n = 0;
    for (const Diagnostic &d : engine.diagnostics())
        n += d.code == code;
    return n;
}

TEST(CudaStaticArtifact, TamperedStoredKernelSourceIsRejected)
{
    const std::string dir =
        ::testing::TempDir() + "astitch_artifact_cuda_static";
    ArtifactCache(dir).clear();
    SessionOptions options;
    options.artifact_cache_dir = dir;
    const Graph graph = testing::buildFig7().graph;
    const TensorMap feeds = workloads::makeRandomFeeds(graph, 7);

    const auto run = [&](bool *from_artifact, DiagnosticEngine *diags) {
        Session session(graph, std::make_unique<AStitchBackend>(),
                        options);
        session.compile();
        if (from_artifact)
            *from_artifact = session.passTimings().fromArtifact();
        if (diags) {
            diags->clear();
            diags->merge(session.diagnostics());
        }
        return session.run(feeds).outputs;
    };

    const auto reference = run(nullptr, nullptr);

    // Warm load of the untampered artifact passes the emitted gate.
    bool from_artifact = false;
    auto warm = run(&from_artifact, nullptr);
    EXPECT_TRUE(from_artifact);

    // Tamper the stored kernel text only: drop one block barrier from
    // the persisted cuda_source, leaving every other plan field (and
    // the envelope checksum, which we recompute) intact.
    std::string compile_key;
    for (const ArtifactFileInfo &info : ArtifactCache(dir).scan()) {
        if (info.quarantined)
            continue;
        const std::size_t cut = info.key.rfind("|serde-pass-v");
        compile_key = cut == std::string::npos ? info.key
                                               : info.key.substr(0, cut);
    }
    ASSERT_FALSE(compile_key.empty());
    const std::string path = ArtifactCache(dir).filePathFor(compile_key);
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);
    std::string key, payload;
    ASSERT_EQ(inspectArtifact(good, &key, &payload), ArtifactStatus::Ok);
    JitCacheEntry entry;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(payload, &entry, &error)) << error;

    bool tampered = false;
    for (CompiledCluster &compiled : entry.compiled) {
        for (KernelPlan &plan : compiled.kernels) {
            const std::size_t pos =
                plan.cuda_source.find("__syncthreads();");
            if (pos == std::string::npos)
                continue;
            plan.cuda_source.erase(pos, 16);
            tampered = true;
        }
    }
    ASSERT_TRUE(tampered) << "no stored kernel source to tamper";
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(file.good());
        const std::string bytes =
            wrapArtifact(key, serializePlanPayload(entry));
        file.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
    }

    // The warm-load gate re-runs the AS9xx pass over the stored text,
    // rejects the artifact (AS624) and recompiles cleanly.
    DiagnosticEngine diags;
    const auto outputs = run(&from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS624"), 1) << diags.renderText();
    ASSERT_EQ(outputs.size(), reference.size());
    for (std::size_t i = 0; i < outputs.size(); ++i)
        EXPECT_TRUE(outputs[i].allClose(reference[i], 1e-6, 1e-7));
}

} // namespace
} // namespace astitch
