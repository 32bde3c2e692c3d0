/**
 * @file
 * Tests of the kernel-access verifier (AS7xx): the access-model
 * arithmetic, seeded mutations of real compiled plans that must each
 * fire exactly their diagnostic code, the zero-findings sweep over the
 * seed workloads on every shipped device, and the cost-model
 * transaction cross-check on the Fig. 5 / Fig. 7 paper graphs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "analysis/kernel_verifier.h"
#include "core/astitch_backend.h"
#include "graph/graph_builder.h"
#include "runtime/session.h"
#include "sim/cost_model.h"
#include "workloads/common.h"

namespace astitch {
namespace {

const GpuSpec kV100 = GpuSpec::v100();

/** One seed workload compiled once with the AStitch backend on V100. */
struct CompiledWorkload
{
    std::string name;
    Graph graph;
    std::vector<CompiledCluster> compiled;
};

const std::deque<CompiledWorkload> &
compiledWorkloads()
{
    static const std::deque<CompiledWorkload> *cache = [] {
        auto *all = new std::deque<CompiledWorkload>;
        for (const auto &spec : workloads::inferenceWorkloads()) {
            all->push_back(CompiledWorkload{spec.name, spec.build(), {}});
            CompiledWorkload &wl = all->back();
            Session session(wl.graph,
                            std::make_unique<AStitchBackend>(),
                            SessionOptions{});
            session.compile();
            wl.compiled = session.compiled();
        }
        return all;
    }();
    return *cache;
}

/**
 * Verify @p plan and return the codes of its findings whose code starts
 * with @p prefix ("AS70" bounds, "AS71" races, "AS72" coalescing, ...),
 * so a seeded mutation is judged only within its own check family.
 */
std::vector<std::string>
verify(const Graph &graph, const KernelPlan &plan, const std::string &prefix,
       DiagnosticEngine &engine)
{
    verifyKernelPlan(graph, plan, kV100, engine);
    std::vector<std::string> codes;
    for (const Diagnostic &d : engine.withCodePrefix(prefix))
        codes.push_back(d.code);
    return codes;
}

/** Off-chip races are only ordered by device-scope barriers. */
bool
orderedByDeviceBarrier(const KernelPlan &plan, int p, int q)
{
    const int lo = std::min(p, q);
    const int hi = std::max(p, q);
    return std::any_of(plan.barriers.begin(), plan.barriers.end(),
                       [&](const BarrierPoint &b) {
                           return b.after_op >= lo && b.after_op < hi &&
                                  b.scope == BarrierScope::Device;
                       });
}

/** Run @p mutate on every seed kernel until it reports it applied. */
template <typename Fn>
void
forFirstMatchingKernel(Fn &&mutate)
{
    for (const CompiledWorkload &wl : compiledWorkloads()) {
        for (const CompiledCluster &compiled : wl.compiled) {
            for (const KernelPlan &plan : compiled.kernels) {
                if (plan.accesses.empty())
                    continue;
                if (mutate(wl.graph, plan))
                    return;
            }
        }
    }
    FAIL() << "no seed kernel matched the mutation's precondition";
}

// ---------------------------------------------------------------------
// Access-model arithmetic.
// ---------------------------------------------------------------------

TEST(AccessModel, LinearEnumerationCoversTheExtent)
{
    const AffineIndex idx = linearEnumeration(1000, 4, 2, 128);
    EXPECT_EQ(idx.coeff_thread, 1);
    EXPECT_EQ(idx.coeff_iter, 128);
    EXPECT_EQ(idx.num_iters, 1); // 4*2*128 = 1024 >= 1000
    EXPECT_EQ(idx.coeff_task, 128);
    EXPECT_EQ(idx.coeff_block, 256);
    EXPECT_EQ(idx.minIndex(), 0);
    EXPECT_EQ(idx.maxIndex(), 1023);
    EXPECT_GE(idx.instances(), 1000);
}

TEST(AccessModel, LinearEnumerationAddsIterationsForLargeExtents)
{
    const AffineIndex idx = linearEnumeration(10000, 2, 1, 256);
    EXPECT_EQ(idx.num_iters, 20); // ceil(10000 / 512)
    EXPECT_GE(idx.maxIndex() + 1, 10000);
    // The enumeration visits each index at most once.
    EXPECT_EQ(idx.instances(), idx.maxIndex() - idx.minIndex() + 1);
}

TEST(AccessModel, GuardClampsTheEffectiveRange)
{
    OpAccess access;
    access.extent = 1000;
    access.index = linearEnumeration(1000, 4, 2, 128);
    EXPECT_GE(access.index.maxIndex(), access.extent); // overshoots
    access.guard = 1000;
    EXPECT_EQ(access.effectiveMax(), 999);
    EXPECT_EQ(access.touchedElements(), 1000);
}

TEST(AccessModel, SectorCountingMatchesWarpGeometry)
{
    EXPECT_EQ(sectorsPerWarp(0, 4), 1);  // broadcast
    EXPECT_EQ(sectorsPerWarp(1, 4), 4);  // 128B contiguous
    EXPECT_EQ(sectorsPerWarp(2, 4), 8);  // stride-2 column walk
    EXPECT_EQ(sectorsPerWarp(32, 4), 32); // capped at one per lane
    EXPECT_EQ(sectorsPerWarp(1, 8), 8);  // fp64 doubles the span
}

TEST(AccessModel, BankConflictDegreeFollowsWordStride)
{
    EXPECT_EQ(bankConflictDegree(0, 4), 1); // broadcast
    EXPECT_EQ(bankConflictDegree(1, 4), 1); // conflict-free
    EXPECT_EQ(bankConflictDegree(2, 4), 2);
    EXPECT_EQ(bankConflictDegree(32, 4), 32);
    EXPECT_EQ(bankConflictDegree(1, 8), 2); // 8B elements span 2 banks
}

TEST(AccessModel, TransactionsScaleWithStrideAndRepeat)
{
    OpAccess access;
    access.elem_bytes = 4;
    access.extent = 1024;
    access.index = linearEnumeration(1024, 1, 1, 1024);
    const double ideal = accessTransactions(access);
    EXPECT_DOUBLE_EQ(ideal, 1024.0 * 4 / 32);
    access.warp_stride = 2;
    EXPECT_DOUBLE_EQ(accessTransactions(access), 2 * ideal);
    access.warp_stride = 1;
    access.repeat = 3.0;
    EXPECT_DOUBLE_EQ(accessTransactions(access), 3 * ideal);
    access.counts_traffic = false;
    EXPECT_DOUBLE_EQ(accessTransactions(access), 0.0);
}

// The exact renderings below reach the emitted CUDA access summary,
// AS7xx messages and the SARIF golden.

TEST(AccessModel, AffineIndexRendersTermsByCoefficient)
{
    AffineIndex idx;
    EXPECT_EQ(idx.toString(), "0  (b<1,t<1,i<1,th<1)");

    // Coefficient 0 drops the term, 1 drops the factor, anything else
    // (negative included) prints as "+ c*var".
    idx.offset = -3;
    idx.coeff_block = -256;
    idx.coeff_task = -1;
    idx.coeff_iter = 0;
    idx.coeff_thread = 1;
    idx.num_blocks = 4;
    idx.num_tasks = 2;
    idx.num_iters = 3;
    idx.num_threads = 128;
    EXPECT_EQ(idx.toString(),
              "-3 + -256*b + -1*t + th  (b<4,t<2,i<3,th<128)");

    idx = AffineIndex{};
    idx.offset = 7;
    idx.coeff_iter = 1;
    idx.coeff_thread = 32;
    EXPECT_EQ(idx.toString(), "7 + i + 32*th  (b<1,t<1,i<1,th<1)");
}

TEST(AccessModel, AffineIndexRendersInt64Extremes)
{
    AffineIndex idx;
    idx.offset = std::numeric_limits<std::int64_t>::min();
    idx.coeff_block = std::numeric_limits<std::int64_t>::max();
    idx.coeff_thread = std::numeric_limits<std::int64_t>::min();
    idx.num_blocks = std::numeric_limits<std::int64_t>::max();
    idx.num_threads = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(idx.toString(),
              "-9223372036854775808 + 9223372036854775807*b"
              " + -9223372036854775808*th"
              "  (b<9223372036854775807,t<1,i<1,th<-9223372036854775808)");
}

TEST(AccessModel, OpAccessRendersGuardRepeatAndTraffic)
{
    OpAccess access;
    access.buffer = "input:%3";
    access.extent = 1000;
    access.index = linearEnumeration(1000, 4, 2, 128);
    EXPECT_EQ(access.toString(),
              "read global input:%3[0 + 256*b + 128*t + 128*i + th"
              "  (b<4,t<2,i<1,th<128)] extent=1000 elem=4B stride=1");

    access.guard = 1000;
    access.repeat = 1.5;
    EXPECT_EQ(access.toString(),
              "read global input:%3[0 + 256*b + 128*t + 128*i + th"
              "  (b<4,t<2,i<1,th<128)] extent=1000 elem=4B stride=1"
              " if<1000 x1.5");

    access.repeat = 1.0 / 3.0;
    access.guard = 0;
    EXPECT_EQ(access.toString(),
              "read global input:%3[0 + 256*b + 128*t + 128*i + th"
              "  (b<4,t<2,i<1,th<128)] extent=1000 elem=4B stride=1"
              " if<0 x0.333333");

    OpAccess smem;
    smem.kind = AccessKind::Write;
    smem.space = AccessSpace::Shared;
    smem.buffer = "smem";
    smem.elem_bytes = 8;
    smem.extent = 64;
    smem.index.offset = 16;
    smem.index.coeff_thread = 1;
    smem.index.num_threads = 32;
    smem.warp_stride = 0;
    smem.repeat = 1.0;
    smem.counts_traffic = false;
    EXPECT_EQ(smem.toString(),
              "write shared smem[16 + th  (b<1,t<1,i<1,th<32)] extent=64"
              " elem=8B stride=0 (no-traffic)");

    smem.space = AccessSpace::Scratch;
    smem.buffer = "scratch:%12";
    smem.warp_stride = -2;
    smem.guard = std::numeric_limits<std::int64_t>::max();
    smem.repeat = 2.0;
    EXPECT_EQ(smem.toString(),
              "write scratch scratch:%12[16 + th  (b<1,t<1,i<1,th<32)]"
              " extent=64 elem=8B stride=-2 if<9223372036854775807 x2"
              " (no-traffic)");
}

TEST(AccessModel, OpAccessRendersRepeatAsStreamGeneralFormat)
{
    // A stream's default %g text: six significant digits, exponent
    // form from 1e6 up, signed zero kept.
    const std::pair<double, const char *> cases[] = {
        {2.0, " x2"},           {100.0, " x100"},
        {999999.0, " x999999"}, {1e6, " x1e+06"},
        {1234567.0, " x1.23457e+06"}, {0.5, " x0.5"},
        {0.0, " x0"},           {-0.0, " x-0"},
        {-2.0, " x-2"},
    };
    for (const auto &[repeat, text] : cases) {
        OpAccess access;
        access.buffer = "remat:%1";
        access.extent = 4;
        access.repeat = repeat;
        EXPECT_EQ(access.toString(),
                  std::string("read global remat:%1[0  (b<1,t<1,i<1,th<1)]"
                              " extent=4 elem=4B stride=1") +
                      text)
            << repeat;
    }
}

// ---------------------------------------------------------------------
// Diagnostic-code families.
// ---------------------------------------------------------------------

TEST(Diagnostics, FamilyOfNormalizesCodesAndFamilies)
{
    EXPECT_EQ(familyOf("AS701"), "AS7");
    EXPECT_EQ(familyOf("AS7"), "AS7");
    EXPECT_EQ(familyOf("as712"), "AS7");
    EXPECT_EQ(familyOf("AS101"), "AS1");
    EXPECT_EQ(familyOf(""), "");
    EXPECT_EQ(familyOf("AS"), "");
    EXPECT_EQ(familyOf("ASX01"), "");
    EXPECT_EQ(familyOf("XS701"), "");
}

TEST(Diagnostics, WithFamilySelectsOneFamily)
{
    DiagnosticEngine engine;
    engine.report("AS101", "k", "race");
    engine.report("AS701", "k", "oob");
    engine.report("AS751", "k", "mismatch");
    EXPECT_EQ(engine.withFamily("AS7").size(), 2u);
    EXPECT_EQ(engine.withFamily("as701").size(), 2u);
    EXPECT_EQ(engine.withFamily("AS1").size(), 1u);
    EXPECT_EQ(engine.withFamily("bogus").size(), 0u);
}

TEST(Diagnostics, EveryVerifierCodeIsRegistered)
{
    for (const char *code : {"AS701", "AS702", "AS703", "AS704", "AS711",
                             "AS712", "AS721", "AS731", "AS741", "AS751"}) {
        const DiagnosticCode *entry = findDiagnosticCode(code);
        ASSERT_NE(entry, nullptr) << code;
        EXPECT_EQ(familyOf(entry->code), "AS7");
    }
}

// ---------------------------------------------------------------------
// Baseline: the verifier proves every seed plan clean on every device.
// ---------------------------------------------------------------------

TEST(KernelVerifier, SeedWorkloadsVerifyCleanOnEveryDevice)
{
    for (const GpuSpec &spec :
         {GpuSpec::v100(), GpuSpec::t4(), GpuSpec::a100()}) {
        for (const auto &wlspec : workloads::inferenceWorkloads()) {
            const Graph graph = wlspec.build();
            SessionOptions options;
            options.spec = spec;
            Session session(graph, std::make_unique<AStitchBackend>(),
                            options);
            session.compile();
            DiagnosticEngine engine;
            for (const CompiledCluster &compiled : session.compiled())
                verifyCompiledCluster(session.activeGraph(), compiled,
                                      spec, engine);
            EXPECT_TRUE(engine.empty())
                << wlspec.name << " on " << spec.name << ":\n"
                << engine.renderText();
        }
    }
}

TEST(KernelVerifier, StitchedKernelsRecordAccessSummaries)
{
    bool any = false;
    for (const CompiledWorkload &wl : compiledWorkloads()) {
        for (const CompiledCluster &compiled : wl.compiled) {
            for (const KernelPlan &plan : compiled.kernels)
                any = any || !plan.accesses.empty();
        }
    }
    EXPECT_TRUE(any) << "no stitched kernel recorded access summaries";
}

// ---------------------------------------------------------------------
// Seeded mutations: each corruption fires exactly its AS7xx code.
// ---------------------------------------------------------------------

TEST(KernelVerifier, DroppedGuardIsAS701)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space == AccessSpace::Shared ||
                a.kind != AccessKind::Read || a.guard < 0)
                continue;
            KernelPlan mutated = seed;
            mutated.accesses[i].guard = -1; // lost bounds predicate
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, "AS70", engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS701"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, MisalignedArenaOffsetIsAS702)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space != AccessSpace::Shared)
                continue;
            KernelPlan mutated = seed;
            // Slide the slot past the end of the arena.
            mutated.accesses[i].index.offset += a.extent;
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, "AS70", engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS702"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, NegativeIndexIsAS703)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            // A guarded read: the guard keeps the top in range while the
            // shifted base dips below zero.
            if (a.space == AccessSpace::Shared ||
                a.kind != AccessKind::Read || a.guard < 0 ||
                a.index.offset != 0)
                continue;
            KernelPlan mutated = seed;
            mutated.accesses[i].index.offset = -1;
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, "AS70", engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS703"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, ShrunkenTaskLoopIsAS704)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space == AccessSpace::Shared ||
                a.kind != AccessKind::Write)
                continue;
            if (a.index.num_blocks * a.index.num_tasks <= 1)
                continue;
            // Collapse the block/task dimensions: only the first block's
            // first task's slice gets written.
            AffineIndex shrunk = a.index;
            shrunk.num_blocks = 1;
            shrunk.num_tasks = 1;
            if (shrunk.maxIndex() >= a.extent - 1)
                continue; // would still cover the buffer
            KernelPlan mutated = seed;
            mutated.accesses[i].index = shrunk;
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, "AS70", engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS704"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, UnorderedOverlappingWritesAreAS711)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            // Output buffers are written once and never read in-kernel,
            // so a forged second writer races with exactly one partner.
            if (a.space != AccessSpace::Global ||
                a.kind != AccessKind::Write)
                continue;
            for (std::size_t q = 0; q < seed.ops.size(); ++q) {
                const int other = static_cast<int>(q);
                if (other == a.op_index ||
                    orderedByDeviceBarrier(seed, a.op_index, other))
                    continue;
                KernelPlan mutated = seed;
                OpAccess forged = a;
                forged.op_index = other;
                forged.index.offset += 1; // different mapping, overlaps
                mutated.accesses.push_back(forged);
                DiagnosticEngine engine;
                const auto codes = verify(graph, mutated, "AS71", engine);
                EXPECT_EQ(codes, std::vector<std::string>{"AS711"})
                    << engine.renderText();
                return true;
            }
        }
        return false;
    });
}

TEST(KernelVerifier, RemovedBarrierIsAS712)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (const OpAccess &w : seed.accesses) {
            if (w.kind != AccessKind::Write ||
                (w.space != AccessSpace::Shared &&
                 w.space != AccessSpace::Scratch))
                continue;
            for (const OpAccess &r : seed.accesses) {
                if (r.kind != AccessKind::Read ||
                    r.op_index == w.op_index ||
                    !rangesOverlap(w, r))
                    continue;
                // Remove every barrier ordering the pair.
                const int lo = std::min(w.op_index, r.op_index);
                const int hi = std::max(w.op_index, r.op_index);
                KernelPlan mutated = seed;
                const auto removed = std::remove_if(
                    mutated.barriers.begin(), mutated.barriers.end(),
                    [&](const BarrierPoint &b) {
                        return b.after_op >= lo && b.after_op < hi;
                    });
                if (removed == mutated.barriers.end())
                    continue; // pair was never barrier-ordered
                mutated.barriers.erase(removed, mutated.barriers.end());
                DiagnosticEngine engine;
                const auto codes = verify(graph, mutated, "AS71", engine);
                EXPECT_FALSE(codes.empty());
                for (const std::string &code : codes)
                    EXPECT_EQ(code, "AS712") << engine.renderText();
                return true;
            }
        }
        return false;
    });
}

TEST(KernelVerifier, CorruptedStrideIsAS721)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space == AccessSpace::Shared || !a.counts_traffic)
                continue;
            KernelPlan mutated = seed;
            mutated.accesses[i].warp_stride = 32; // fully scattered warp
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, "AS72", engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS721"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, StridedArenaAccessIsAS731)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            if (seed.accesses[i].space != AccessSpace::Shared)
                continue;
            KernelPlan mutated = seed;
            mutated.accesses[i].warp_stride = 32; // all lanes on bank 0
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, "AS73", engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS731"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, RecomputeBlowupIsAS741)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        if (seed.ops.empty())
            return false;
        KernelPlan mutated = seed;
        mutated.ops[0].recompute_factor = 64.0; // Fig. 5 style inlining
        DiagnosticEngine engine;
        const auto codes = verify(graph, mutated, "AS74", engine);
        EXPECT_EQ(codes, std::vector<std::string>{"AS741"})
            << engine.renderText();
        return true;
    });
}

TEST(KernelVerifier, CorruptedLoadFactorIsAS751)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        std::size_t best = seed.accesses.size();
        double best_txn = 0.0;
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.kind != AccessKind::Read)
                continue;
            const double txn = accessTransactions(a);
            if (txn > best_txn) {
                best = i;
                best_txn = txn;
            }
        }
        if (best == seed.accesses.size() || best_txn < 1000.0)
            return false; // too small to clear the tolerance floor
        KernelPlan mutated = seed;
        mutated.accesses[best].repeat *= 8.0;
        DiagnosticEngine engine;
        const auto codes = verify(graph, mutated, "AS75", engine);
        EXPECT_EQ(codes, std::vector<std::string>{"AS751"})
            << engine.renderText();
        return true;
    });
}

// ---------------------------------------------------------------------
// Lint thresholds: each fires exactly at its documented boundary.
// ---------------------------------------------------------------------

TEST(KernelVerifier, CoalescingLintFiresAtFourTimesTheIdealSectors)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space == AccessSpace::Shared || !a.counts_traffic)
                continue;
            // The smallest stride whose warp needs exactly 4x the
            // sectors of a stride-1 warp; one less stays below 4x.
            const std::int64_t ideal = sectorsPerWarp(1, a.elem_bytes);
            std::int64_t stride = 1;
            while (sectorsPerWarp(stride, a.elem_bytes) < 4 * ideal)
                ++stride;
            if (sectorsPerWarp(stride, a.elem_bytes) != 4 * ideal)
                continue;
            for (const std::int64_t s : {stride - 1, stride}) {
                KernelPlan mutated = seed;
                mutated.accesses[i].warp_stride = s;
                DiagnosticEngine engine;
                const auto codes = verify(graph, mutated, "AS72", engine);
                if (s == stride) {
                    EXPECT_EQ(codes, std::vector<std::string>{"AS721"})
                        << "stride " << s << "\n" << engine.renderText();
                } else {
                    EXPECT_TRUE(codes.empty())
                        << "stride " << s << "\n" << engine.renderText();
                }
            }
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, RecomputeLintFiresAboveSixteen)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        if (seed.ops.empty())
            return false;
        KernelPlan mutated = seed;
        mutated.ops[0].recompute_factor = 16.0;
        DiagnosticEngine at_threshold;
        EXPECT_TRUE(verify(graph, mutated, "AS74", at_threshold).empty())
            << at_threshold.renderText();

        mutated.ops[0].recompute_factor = std::nextafter(16.0, 17.0);
        DiagnosticEngine above;
        EXPECT_EQ(verify(graph, mutated, "AS74", above),
                  std::vector<std::string>{"AS741"})
            << above.renderText();
        return true;
    });
}

/** A read the verifier counts as DRAM traffic. */
bool
isCountedRead(const OpAccess &a)
{
    return a.kind == AccessKind::Read && a.space != AccessSpace::Shared &&
           a.counts_traffic;
}

/**
 * Rewrite @p seed (which has a counted read) so the verifier derives
 * exactly @p reads read transactions: every read stops counting
 * traffic except one forged single-element read whose repeat factor
 * carries the whole count.
 */
KernelPlan
withReadTransactions(const KernelPlan &seed, double reads)
{
    KernelPlan plan = seed;
    OpAccess forged = *std::find_if(plan.accesses.begin(),
                                    plan.accesses.end(), isCountedRead);
    for (OpAccess &a : plan.accesses) {
        if (a.kind == AccessKind::Read)
            a.counts_traffic = false;
    }
    forged.index.offset = 0;
    forged.guard = 1; // one element, coalesced: one sector
    forged.warp_stride = 1;
    forged.repeat = reads;
    plan.accesses.push_back(forged);
    EXPECT_DOUBLE_EQ(staticTransactionCounts(plan).read_transactions,
                     reads);
    return plan;
}

/**
 * AS751 on the first seed kernel whose modeled read transactions
 * satisfy @p pick: silent when the verifier's count sits exactly at
 * the tolerance max(5% of the model, 16 transactions) above the
 * model, firing half a transaction further out.
 */
template <typename Pick>
void
expectCostToleranceEdge(Pick &&pick)
{
    forFirstMatchingKernel([&](const Graph &graph, const KernelPlan &seed) {
        if (std::none_of(seed.accesses.begin(), seed.accesses.end(),
                         isCountedRead))
            return false;
        const double model = static_cast<double>(
            CostModel(kV100)
                .priceKernel(workDescFor(graph, seed))
                .dram_read_transactions);
        if (!pick(model))
            return false;
        const double allowed = std::max(0.05 * model, 16.0);
        // The largest count still within tolerance (model + allowed,
        // stepped down if that sum rounded past the edge).
        double edge = model + allowed;
        while (edge - model > allowed)
            edge = std::nextafter(edge, 0.0);

        DiagnosticEngine at_edge;
        EXPECT_TRUE(verify(graph, withReadTransactions(seed, edge), "AS75",
                           at_edge)
                        .empty())
            << "model " << model << "\n" << at_edge.renderText();

        DiagnosticEngine outside;
        EXPECT_EQ(verify(graph, withReadTransactions(seed, edge + 0.5),
                         "AS75", outside),
                  std::vector<std::string>{"AS751"})
            << "model " << model << "\n" << outside.renderText();
        return true;
    });
}

TEST(KernelVerifier, CostCheckToleranceFloorIsSixteenTransactions)
{
    // 5% of a model count below 320 is under the 16-transaction floor.
    expectCostToleranceEdge([](double model) { return model < 300.0; });
}

TEST(KernelVerifier, CostCheckToleranceIsFivePercentOfTheModel)
{
    // Far enough above 320 that 5% clears the floor by a margin.
    expectCostToleranceEdge([](double model) { return model > 2000.0; });
}

// ---------------------------------------------------------------------
// Cost-model cross-check on the paper's Fig. 5 / Fig. 7 graphs.
// ---------------------------------------------------------------------

Graph
buildFig5Graph(std::int64_t rows, std::int64_t cols)
{
    Graph graph("fig5");
    GraphBuilder b(graph);
    NodeId vec = b.parameter({rows, 1}, "vec");
    NodeId wide = b.parameter({rows, cols}, "wide");
    NodeId pw = b.power(vec, 2.0);
    NodeId out = b.add(b.broadcastTo(pw, {rows, cols}), wide);
    graph.markOutput(out);
    return graph;
}

Graph
buildFig7Graph()
{
    Graph graph("fig7");
    GraphBuilder b(graph);
    const Shape wide{64, 128};
    NodeId p1 = b.parameter(wide, "param1");
    NodeId p2 = b.parameter({64, 1}, "param2");
    NodeId add1 = b.add(p1, p1);
    NodeId r1 = b.reduceSum(add1, {1});
    NodeId d1 = b.div(add1, b.broadcastTo(b.reshape(r1, {64, 1}), wide));
    NodeId pw = b.power(p2, 2.0);
    NodeId add2 = b.add(d1, b.broadcastTo(pw, wide));
    NodeId r2 = b.reduceSum(add2, {1});
    NodeId m1 = b.mul(r2, b.reshape(pw, {64}));
    graph.markOutput(m1);
    return graph;
}

void
expectTransactionAgreement(const Graph &graph)
{
    Session session(graph, std::make_unique<AStitchBackend>(),
                    SessionOptions{});
    session.compile();
    EXPECT_TRUE(session.diagnostics().empty())
        << session.diagnostics().renderText();
    const CostModel model(kV100);
    bool any = false;
    for (const CompiledCluster &compiled : session.compiled()) {
        for (const KernelPlan &plan : compiled.kernels) {
            if (plan.accesses.empty())
                continue;
            any = true;
            const TransactionEstimate est = staticTransactionCounts(plan);
            const KernelRecord record = model.priceKernel(
                workDescFor(session.activeGraph(), plan));
            const auto close = [](double verifier, double priced) {
                const double allowed = std::max(0.05 * priced, 16.0);
                EXPECT_NEAR(verifier, priced, allowed);
            };
            close(est.read_transactions,
                  static_cast<double>(record.dram_read_transactions));
            close(est.write_transactions,
                  static_cast<double>(record.dram_write_transactions));
        }
    }
    EXPECT_TRUE(any) << "no stitched kernel to cross-check";
}

TEST(KernelVerifier, TransactionCountsMatchCostModelOnFig5)
{
    expectTransactionAgreement(buildFig5Graph(512, 128));
}

TEST(KernelVerifier, TransactionCountsMatchCostModelOnFig7)
{
    expectTransactionAgreement(buildFig7Graph());
}

} // namespace
} // namespace astitch
