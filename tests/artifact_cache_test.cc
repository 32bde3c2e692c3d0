/**
 * @file
 * Tests of the persistent kernel-artifact cache: serde round-trips,
 * envelope integrity classification, every disk-corruption scenario
 * (truncation, bit-flips, version skew, foreign keys, tampered plans,
 * crash orphans), the injected disk faults, and concurrent compilers
 * sharing one cache directory. The invariant under test throughout:
 * no disk state may ever crash a compile or serve an unverified plan —
 * the worst case is an AS62x diagnostic plus a clean in-memory
 * recompile.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "core/astitch_backend.h"
#include "runtime/artifact_cache.h"
#include "runtime/plan_serde.h"
#include "runtime/session.h"
#include "support/atomic_file.h"
#include "test_graphs.h"
#include "workloads/common.h"

namespace astitch {
namespace {

/** A per-test cache directory, cleared of previous runs' files. */
std::string
freshDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "astitch_artifact_" + name;
    ArtifactCache(dir).clear();
    return dir;
}

SessionOptions
cacheOptions(const std::string &dir)
{
    SessionOptions options;
    options.artifact_cache_dir = dir;
    return options;
}

int
codeCount(const DiagnosticEngine &engine, const std::string &code)
{
    int n = 0;
    for (const Diagnostic &d : engine.diagnostics())
        n += d.code == code;
    return n;
}

/** Overwrite @p path with raw @p bytes (normal, non-atomic write — the
 * tests play the role of the hostile disk). */
void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.good());
    file.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size()));
}

/** Compile-key of the single artifact in @p dir (strips the serde
 * pass-version suffix the cache appends). */
std::string
soleCompileKey(const std::string &dir)
{
    const auto files = ArtifactCache(dir).scan();
    for (const ArtifactFileInfo &info : files) {
        if (info.quarantined)
            continue;
        const std::size_t cut = info.key.rfind("|serde-pass-v");
        return cut == std::string::npos ? info.key
                                        : info.key.substr(0, cut);
    }
    return {};
}

/** Count live (non-quarantined) artifacts / `*.bad` sidecars. */
std::pair<int, int>
countArtifacts(const std::string &dir)
{
    int live = 0, bad = 0;
    for (const ArtifactFileInfo &info : ArtifactCache(dir).scan())
        (info.quarantined ? bad : live) += 1;
    return {live, bad};
}

/** Run one cached session over fig7; returns its outputs. */
std::vector<Tensor>
runSession(const Graph &graph, const SessionOptions &options,
           bool *from_artifact = nullptr,
           DiagnosticEngine *diags = nullptr)
{
    const TensorMap feeds = workloads::makeRandomFeeds(graph, 7);
    Session session(graph, std::make_unique<AStitchBackend>(), options);
    session.compile();
    if (from_artifact)
        *from_artifact = session.passTimings().fromArtifact();
    if (diags) {
        diags->clear();
        diags->merge(session.diagnostics());
    }
    EXPECT_FALSE(session.degradation().degraded());
    return session.run(feeds).outputs;
}

void
expectSameOutputs(const std::vector<Tensor> &got,
                  const std::vector<Tensor> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i].allClose(want[i], 1e-6, 1e-7))
            << "output " << i << " diverged";
}

/** Little-endian appenders matching the wire format, for hand-crafted
 * envelopes. */
void
appendU32(std::string *out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
appendU64(std::string *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Frame @p payload under @p key like wrapArtifact, but with an
 * arbitrary wire version. */
std::string
wrapWithVersion(const std::string &key, const std::string &payload,
                std::uint32_t version)
{
    std::string header = "ASTC";
    appendU32(&header, version);
    appendU32(&header, static_cast<std::uint32_t>(key.size()));
    header += key;
    appendU64(&header, payload.size());
    appendU64(&header, checksum64(payload));
    appendU64(&header, checksum64(header));
    return header + payload;
}

TEST(ArtifactCacheCodes, AS62xFamilyRegistered)
{
    for (const char *code : {"AS620", "AS621", "AS622", "AS623",
                             "AS624", "AS625", "AS626"})
        EXPECT_NE(findDiagnosticCode(code), nullptr) << code;
}

TEST(PlanSerde, EnvelopeClassifiesEveryLie)
{
    const std::string key = "some/key";
    const std::string payload = "payload bytes with entropy 123";
    const std::string good = wrapArtifact(key, payload);

    std::string out;
    EXPECT_EQ(unwrapArtifact(good, key, &out), ArtifactStatus::Ok);
    EXPECT_EQ(out, payload);

    EXPECT_EQ(unwrapArtifact("", key, &out), ArtifactStatus::Truncated);
    EXPECT_EQ(unwrapArtifact(good.substr(0, good.size() - 1), key, &out),
              ArtifactStatus::Truncated);
    EXPECT_EQ(unwrapArtifact(good.substr(0, 10), key, &out),
              ArtifactStatus::Truncated);

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    EXPECT_EQ(unwrapArtifact(bad_magic, key, &out),
              ArtifactStatus::BadMagic);

    std::string bad_header = good; // flip inside the embedded key
    bad_header[12] = static_cast<char>(bad_header[12] ^ 0xff);
    EXPECT_EQ(unwrapArtifact(bad_header, key, &out),
              ArtifactStatus::BadHeaderChecksum);

    std::string bad_payload = good; // flip the final payload byte
    bad_payload.back() = static_cast<char>(bad_payload.back() ^ 0x01);
    EXPECT_EQ(unwrapArtifact(bad_payload, key, &out),
              ArtifactStatus::BadPayloadChecksum);

    EXPECT_EQ(unwrapArtifact(good, "another/key", &out),
              ArtifactStatus::KeyMismatch);

    EXPECT_EQ(unwrapArtifact(
                  wrapWithVersion(key, payload,
                                  kArtifactFormatVersion + 1),
                  key, &out),
              ArtifactStatus::VersionSkew);

    std::string embedded;
    EXPECT_EQ(inspectArtifact(good, &embedded, &out), ArtifactStatus::Ok);
    EXPECT_EQ(embedded, key);
}

TEST(ArtifactCache, ColdStoresWarmServesIdenticalPlans)
{
    const std::string dir = freshDir("cold_warm");
    const Graph graph = testing::buildFig7().graph;

    bool from_artifact = true;
    DiagnosticEngine diags;
    const auto cold =
        runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_EQ(codeCount(diags, "AS620"), 0);
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    EXPECT_EQ(ArtifactCache(dir).scan()[0].status,
              artifactStatusName(ArtifactStatus::Ok));

    const auto warm =
        runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_TRUE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS620"), 1);
    expectSameOutputs(warm, cold);
}

TEST(ArtifactCache, WarmHitReportsOnlyArtifactSpans)
{
    const std::string dir = freshDir("timings");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));

    Session session(graph, std::make_unique<AStitchBackend>(),
                    cacheOptions(dir));
    session.compile();
    const CompilePassTimings &t = session.passTimings();
    ASSERT_TRUE(t.fromArtifact());
    // The proof a warm start skipped the compiler: every compile-pass
    // span is exactly zero (scheduling is session-side and may not be).
    EXPECT_EQ(t.clustering_ms, 0.0);
    EXPECT_EQ(t.remote_stitch_ms, 0.0);
    EXPECT_EQ(t.backend_compile_ms, 0.0);
    EXPECT_EQ(t.analysis_ms, 0.0);
    EXPECT_EQ(t.autotune_ms, 0.0);
    EXPECT_EQ(t.parallel_section_ms, 0.0);
    EXPECT_GT(t.artifact_load_ms + t.artifact_verify_ms, 0.0);
}

TEST(PlanSerde, RoundTripIsLosslessAndDeterministic)
{
    const std::string dir = freshDir("roundtrip");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));

    ArtifactCache cache(dir);
    auto lease = cache.acquire(soleCompileKey(dir), graph,
                               GpuSpec::v100(), AnalysisOptions{},
                               nullptr);
    ASSERT_NE(lease.entry, nullptr);
    EXPECT_EQ(cache.stats().disk_hits, 1);

    const std::string once = serializePlanPayload(*lease.entry);
    JitCacheEntry back;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(once, &back, &error)) << error;
    EXPECT_EQ(serializePlanPayload(back), once);
}

/**
 * A hand-built cache entry, no codegen involved, with every serialized
 * field set to a non-default value: one cluster, one kernel plan with
 * one element in each of its sequences, one diagnostic with
 * provenance, a degraded cluster, nonzero timings and a tuning
 * decision with several map entries (inserted out of key order).
 */
JitCacheEntry
goldenEntry()
{
    JitCacheEntry entry;
    entry.clusters.push_back(Cluster{{3, 4, 5}, {1, 2}, {5}});

    KernelPlan plan;
    plan.name = "stitch_k0";
    ScheduledOp op;
    op.node = 4;
    op.recompute_factor = 2.5;
    op.out_space = BufferSpace::Shared;
    op.partition = OpPartition{LaunchDims{80, 128}, 2, 3};
    plan.ops = {op};
    plan.inputs = {KernelInput{1, 1.5}};
    plan.outputs = {5};
    plan.launch = LaunchDims{160, 512};
    plan.regs_per_thread = 48;
    plan.smem_per_block = 4096;
    plan.num_block_barriers = 2;
    plan.num_global_barriers = 1;
    plan.barriers = {BarrierPoint{0, BarrierScope::Device, 7}};
    plan.shared_slots = {SharedSlot{4, 256, 1024}};
    OpAccess access;
    access.node = 4;
    access.op_index = 0;
    access.kind = AccessKind::Write;
    access.space = AccessSpace::Shared;
    access.buffer = "smem";
    access.elem_bytes = 4;
    access.extent = 1024;
    access.index = AffineIndex{64, 1024, 512, 128, 1, 80, 2, 4, 128};
    access.guard = 1000;
    access.warp_stride = 2;
    access.repeat = 0.5;
    access.counts_traffic = false;
    plan.accesses = {access};
    SymbolicAccess sym;
    sym.access_index = 0;
    sym.extent = LinExpr::dim(0, 64, 128);
    sym.offset = LinExpr::dim(0, 4, 8);
    sym.value_extent = LinExpr::dim(0, 32);
    plan.sym_accesses = {sym};
    plan.certificate.verdict = ShapeCertificate::Verdict::Fallback;
    plan.certificate.dims = {ShapeDim{"batch", 200, 101, 200, 4}};
    plan.certificate.assumptions = {"batch % 4 == 0"};
    plan.certificate.obligations_proven = 5;
    plan.certificate.obligations_fallback = 1;
    plan.cuda_source = "__global__ void stitch_k0() {}\n";
    plan.atomic_operations = 12.0;
    plan.read_coalescing = 0.75;
    plan.write_coalescing = 0.5;
    plan.extra_launch_overhead_us = 3.25;
    plan.extra_bytes_read = 2048.0;

    CompiledCluster compiled;
    compiled.kernels = {plan};
    compiled.num_memcpy = 2;
    compiled.memcpy_bytes = 512.0;
    compiled.global_scratch_bytes = 8192;
    entry.compiled = {compiled};

    Diagnostic d;
    d.code = "AS831";
    d.severity = Severity::Warning;
    d.kernel = "stitch_k0";
    d.message = "obligation fell back";
    d.node = 4;
    d.provenance = {"bucket:b=128", "bucket:b=256"};
    DiagnosticEngine engine;
    engine.add(d);
    entry.cluster_diagnostics = {engine};

    ClusterDegradation degradation;
    degradation.level = LadderLevel::LocalOnly;
    degradation.retries = 1;
    degradation.causes = {"full-stitch: injected"};
    entry.degradation.clusters = {degradation};
    entry.degradation.clustering_fallback = true;
    entry.degradation.serial_fallback = true;
    entry.degradation.cache_bypassed = true;
    entry.degradation.session_retries = 3;

    entry.timings.clustering_ms = 1.5;
    entry.timings.remote_stitch_ms = 2.5;
    entry.timings.backend_compile_ms = 3.5;
    entry.timings.analysis_ms = 4.5;
    entry.timings.autotune_ms = 5.5;
    entry.timings.parallel_section_ms = 6.5;
    entry.timings.scheduling_ms = 7.5;

    ClusterTuningResult tuned;
    tuned.fingerprint = 0x0123456789abcdefULL;
    tuned.heuristic_cost_us = 10.25;
    tuned.tuned_cost_us = 8.5;
    tuned.candidates_evaluated = 9;
    tuned.candidates_rejected = 2;
    tuned.improved = true;
    tuned.db_hit = true;
    tuned.search_ms = 1.25;
    tuned.decision.schemes = {{5, StitchScheme::Global},
                              {3, StitchScheme::Regional},
                              {4, StitchScheme::Local}};
    tuned.decision.mappings = {{5, MappingOverride{256, 2}},
                               {3, MappingOverride{128, 0}}};
    entry.tuning.enabled = true;
    entry.tuning.clusters = {tuned};
    return entry;
}

TEST(PlanSerde, GoldenPayloadPinsTheWireFormat)
{
    const std::string payload = serializePlanPayload(goldenEntry());
    // Recorded from the mirrored put*/get* serializer that preceded the
    // per-structure walks; any change to the wire layout changes it,
    // and must bump kArtifactFormatVersion.
    EXPECT_EQ(checksum64(payload), 0x671fa440ab7881b4ULL);
    EXPECT_EQ(kArtifactFormatVersion, 2u);

    JitCacheEntry back;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(payload, &back, &error)) << error;
    EXPECT_EQ(serializePlanPayload(back), payload);

    // What a symmetric round trip cannot prove: the fields land where
    // they belong.
    const TuningOverrides &decision = back.tuning.clusters.at(0).decision;
    EXPECT_EQ(decision.schemes.size(), 3u);
    EXPECT_EQ(decision.schemes.at(3), StitchScheme::Regional);
    EXPECT_EQ(decision.schemes.at(5), StitchScheme::Global);
    EXPECT_EQ(decision.mappings.at(5), (MappingOverride{256, 2}));
    EXPECT_EQ(decision.mappings.at(3), (MappingOverride{128, 0}));
    const KernelPlan &plan = back.compiled.at(0).kernels.at(0);
    ASSERT_EQ(plan.certificate.dims.size(), 1u);
    const ShapeDim &dim = plan.certificate.dims[0];
    EXPECT_EQ(dim.name, "batch");
    EXPECT_EQ(dim.value, 200);
    EXPECT_EQ(dim.lo, 101);
    EXPECT_EQ(dim.hi, 200);
    EXPECT_EQ(dim.divisor, 4);
    EXPECT_EQ(plan.cuda_source, "__global__ void stitch_k0() {}\n");
    const Diagnostic &d = back.cluster_diagnostics.at(0).diagnostics().at(0);
    EXPECT_EQ(d.severity, Severity::Warning);
    EXPECT_EQ(d.provenance,
              (std::vector<std::string>{"bucket:b=128", "bucket:b=256"}));
}

TEST(PlanSerde, DecoderRejectsMalformedPayloads)
{
    const JitCacheEntry entry = goldenEntry();
    const std::string good = serializePlanPayload(entry);
    const auto decodeError = [](const std::string &bytes) {
        JitCacheEntry back;
        std::string error;
        EXPECT_FALSE(deserializePlanPayload(bytes, &back, &error));
        return error;
    };
    const auto at = [&](std::size_t offset, std::size_t size) {
        return " at byte " + std::to_string(offset) + " of " +
               std::to_string(size);
    };

    for (std::size_t keep = 0; keep < good.size(); ++keep) {
        SCOPED_TRACE("prefix of " + std::to_string(keep) + " bytes");
        EXPECT_FALSE(decodeError(good.substr(0, keep)).empty());
    }

    EXPECT_EQ(decodeError(good + '\0'),
              "trailing bytes after payload" +
                  at(good.size(), good.size() + 1));

    std::string huge_count = good; // the leading cluster count
    huge_count.replace(0, 4, "\xff\xff\xff\xff");
    EXPECT_EQ(decodeError(huge_count),
              "sequence count exceeds buffer" + at(4, good.size()));

    // The diagnostic record: code, severity byte, kernel, message,
    // node, provenance list.
    const Diagnostic &d = entry.cluster_diagnostics[0].diagnostics()[0];
    const std::size_t code_at = good.find("AS831");
    ASSERT_NE(code_at, std::string::npos);
    std::size_t diagnostic_end = code_at + d.code.size() + 1 + 4 +
                                 d.kernel.size() + 4 + d.message.size() +
                                 4 + 4;
    for (const std::string &p : d.provenance)
        diagnostic_end += 4 + p.size();
    std::string unknown_code = good;
    unknown_code.replace(code_at, 5, "AS999");
    EXPECT_EQ(decodeError(unknown_code),
              "unknown diagnostic code 'AS999'" +
                  at(diagnostic_end, good.size()));

    // The first op's out_space: after the plan name, the op count, the
    // op's node and its recompute factor.
    const std::size_t name_at = good.find("stitch_k0");
    ASSERT_NE(name_at, std::string::npos);
    const std::size_t space_at = name_at + 9 + 4 + 4 + 8;
    ASSERT_EQ(good[space_at], static_cast<char>(BufferSpace::Shared));
    std::string bad_enum = good;
    bad_enum[space_at] = static_cast<char>(BufferSpace::Output) + 1;
    EXPECT_EQ(decodeError(bad_enum),
              "enum value out of range" + at(space_at + 1, good.size()));
}

TEST(ArtifactCache, TruncationAlwaysRecompiles)
{
    const std::string dir = freshDir("truncate");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{17},
          good.size() / 2, good.size() - 1}) {
        SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
        writeRaw(path, good.substr(0, keep));
        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        EXPECT_GE(codeCount(diags, "AS621"), 1);
        expectSameOutputs(outputs, reference);
        // The recompile republished a good artifact over the wreck.
        EXPECT_EQ(ArtifactCache(dir).scan()[0].status,
                  artifactStatusName(ArtifactStatus::Ok));
    }
    EXPECT_EQ(countArtifacts(dir).second, 1); // evidence quarantined
}

TEST(ArtifactCache, BitFlipSweepNeverCrashesNorServes)
{
    const std::string dir = freshDir("bitflip");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);

    // Flip one byte at a spread of offsets: header fields, the key,
    // the checksums and payload regions all get hit.
    for (std::size_t offset = 0; offset < good.size();
         offset += good.size() / 13 + 1) {
        SCOPED_TRACE("bit flip at offset " + std::to_string(offset));
        std::string evil = good;
        evil[offset] = static_cast<char>(evil[offset] ^ 0x40);
        writeRaw(path, evil);

        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        // Classification depends on which field the flip hit, but it
        // must always land in the corruption family: integrity (621),
        // version/key skew (622) or decode failure (623).
        EXPECT_GE(codeCount(diags, "AS621") + codeCount(diags, "AS622") +
                      codeCount(diags, "AS623"),
                  1);
        expectSameOutputs(outputs, reference);
    }
}

TEST(ArtifactCache, StaleWireVersionIsACleanMiss)
{
    const std::string dir = freshDir("version_skew");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);
    std::string key, payload;
    ASSERT_EQ(inspectArtifact(good, &key, &payload), ArtifactStatus::Ok);

    writeRaw(path,
             wrapWithVersion(key, payload, kArtifactFormatVersion + 7));
    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS622"), 1);
    // Version skew is expected across builds — no quarantine, the
    // recompile just overwrites the foreign file.
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    EXPECT_EQ(ArtifactCache(dir).scan()[0].status,
              artifactStatusName(ArtifactStatus::Ok));
}

TEST(ArtifactCache, ForeignArtifactUnderOurNameMissesCleanly)
{
    const std::string dir = freshDir("foreign_key");
    const Graph fig7 = testing::buildFig7().graph;
    const Graph softmax = testing::buildSoftmax(32, 64);
    const auto reference = runSession(fig7, cacheOptions(dir));
    const std::string fig7_path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));

    const std::string dir2 = freshDir("foreign_key_src");
    runSession(softmax, cacheOptions(dir2));
    std::string foreign;
    ASSERT_EQ(readFileBytes(ArtifactCache(dir2).filePathFor(
                                soleCompileKey(dir2)),
                            &foreign),
              FileReadStatus::Ok);

    // A rename/copy gone wrong: another compilation's (intact) artifact
    // sits under our file name. The embedded key defends it.
    writeRaw(fig7_path, foreign);
    bool from_artifact = true;
    DiagnosticEngine diags;
    const auto outputs =
        runSession(fig7, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS622"), 1);
    expectSameOutputs(outputs, reference);
}

TEST(ArtifactCache, TamperedPlanIsRejectedBeforeServing)
{
    const std::string dir = freshDir("tamper");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));
    const std::string compile_key = soleCompileKey(dir);
    const std::string path = ArtifactCache(dir).filePathFor(compile_key);
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);
    std::string key, payload;
    ASSERT_EQ(inspectArtifact(good, &key, &payload), ArtifactStatus::Ok);

    JitCacheEntry entry;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(payload, &entry, &error)) << error;
    ASSERT_FALSE(entry.clusters.empty());

    // Tamper 1: a node reference beyond the graph — structural
    // validation must reject the decode (AS623).
    {
        JitCacheEntry evil = entry;
        evil.clusters[0].nodes[0] = 1000000;
        writeRaw(path,
                 wrapArtifact(key, serializePlanPayload(evil)));
        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        EXPECT_GE(codeCount(diags, "AS623"), 1);
        expectSameOutputs(outputs, reference);
        EXPECT_GE(countArtifacts(dir).second, 1); // quarantined
    }

    // Tamper 2: structurally valid but semantically wrong — a
    // checksum-correct artifact claiming a degraded compilation. The
    // serving gate must refuse it (AS624): degraded plans are never
    // served from disk.
    {
        JitCacheEntry evil = entry;
        ASSERT_FALSE(evil.degradation.clusters.empty());
        evil.degradation.clusters[0].level = LadderLevel::KernelPerOp;
        writeRaw(path,
                 wrapArtifact(key, serializePlanPayload(evil)));
        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        EXPECT_GE(codeCount(diags, "AS624"), 1);
        expectSameOutputs(outputs, reference);
    }

    // Tamper 3: a plan op re-pointed at a graph node outside its
    // cluster — passes range checks, so only the analyzer's
    // re-verification can catch it (AS624; AS623 acceptable if the
    // structural net tightens later).
    {
        JitCacheEntry evil = entry;
        ASSERT_FALSE(evil.compiled.empty());
        bool mutated = false;
        for (KernelPlan &plan : evil.compiled[0].kernels) {
            if (plan.ops.empty())
                continue;
            plan.ops[0].node = evil.clusters[0].inputs.empty()
                                   ? 0
                                   : evil.clusters[0].inputs[0];
            mutated = true;
            break;
        }
        ASSERT_TRUE(mutated);
        writeRaw(path,
                 wrapArtifact(key, serializePlanPayload(evil)));
        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        EXPECT_GE(codeCount(diags, "AS623") + codeCount(diags, "AS624"),
                  1);
        expectSameOutputs(outputs, reference);
    }
}

TEST(ArtifactCache, CrashOrphanTempIsInvisible)
{
    const std::string dir = freshDir("crash_orphan");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));

    // Simulate a writer that died between temp-write and rename: the
    // bytes sit under the temp name, nothing at the real path.
    std::string bytes;
    ASSERT_EQ(readFileBytes(path, &bytes), FileReadStatus::Ok);
    ASSERT_EQ(::rename(path.c_str(), (path + ".tmp.424242").c_str()), 0);

    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact); // clean miss, no AS62x warnings
    EXPECT_EQ(codeCount(diags, "AS621") + codeCount(diags, "AS623") +
                  codeCount(diags, "AS624"),
              0);
    // scan() never lists orphan temps; clear() sweeps them.
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    EXPECT_GE(ArtifactCache(dir).clear(), 2);
}

TEST(ArtifactCache, DegradedCompilationsAreNeverStored)
{
    const std::string dir = freshDir("degraded_store");
    const Graph graph = testing::buildFig7().graph;
    SessionOptions options = cacheOptions(dir);
    options.fault_plan = "backend-compile"; // permanent: forces demotion
    Session session(graph, std::make_unique<AStitchBackend>(), options);
    ASSERT_NO_THROW(session.compile());
    EXPECT_TRUE(session.degradation().degraded());
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{0, 0}));
}

TEST(ArtifactCache, InjectedWriteFailureKeepsTheCompilation)
{
    const std::string dir = freshDir("fault_write");
    const Graph graph = testing::buildFig7().graph;
    SessionOptions options = cacheOptions(dir);
    options.fault_plan = "cache-write-fail";
    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, options, &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS626"), 1);
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{0, 0}));

    // Without the fault the next compile stores normally.
    runSession(graph, cacheOptions(dir));
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
}

TEST(ArtifactCache, InjectedLockTimeoutSkipsTheDiskTier)
{
    const std::string dir = freshDir("fault_lock");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir)); // warm artifact available

    SessionOptions options = cacheOptions(dir);
    options.fault_plan = "cache-lock-timeout";
    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, options, &from_artifact, &diags);
    EXPECT_FALSE(from_artifact); // tier skipped despite a good artifact
    EXPECT_GE(codeCount(diags, "AS625"), 1);
}

TEST(ArtifactCache, InjectedReadCorruptionQuarantinesAndRecovers)
{
    const std::string dir = freshDir("fault_read");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));

    SessionOptions options = cacheOptions(dir);
    options.fault_plan = "cache-read-corrupt";
    bool from_artifact = true;
    DiagnosticEngine diags;
    const auto outputs =
        runSession(graph, options, &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS621"), 1);
    expectSameOutputs(outputs, reference);
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 1}));

    // The recompile republished: the next session warm-hits again.
    runSession(graph, cacheOptions(dir), &from_artifact);
    EXPECT_TRUE(from_artifact);
}

TEST(ArtifactCache, ConcurrentCompilersShareOneArtifact)
{
    const std::string dir = freshDir("concurrent");
    const Graph graph = testing::buildFig7().graph;
    const TensorMap feeds = workloads::makeRandomFeeds(graph, 7);
    std::vector<Tensor> reference;
    {
        Session ref(graph, std::make_unique<AStitchBackend>());
        reference = ref.run(feeds).outputs;
    }

    // Several sessions race on a cold directory. The per-key file lock
    // gives single-flight; whoever loses the race either waits and
    // warm-hits or recompiles — all must succeed with equal outputs.
    constexpr int kThreads = 4;
    std::vector<std::vector<Tensor>> outputs(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            Session session(graph, std::make_unique<AStitchBackend>(),
                            cacheOptions(dir));
            session.compile();
            outputs[i] = session.run(feeds).outputs;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i) {
        SCOPED_TRACE("thread " + std::to_string(i));
        expectSameOutputs(outputs[i], reference);
    }
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    EXPECT_EQ(ArtifactCache(dir).scan()[0].status,
              artifactStatusName(ArtifactStatus::Ok));
}

TEST(ArtifactCache, DirectAcquirePublishCountsStats)
{
    const std::string dir = freshDir("stats");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));
    const std::string compile_key = soleCompileKey(dir);

    ArtifactCache cache(dir);
    auto hit = cache.acquire(compile_key, graph, GpuSpec::v100(),
                             AnalysisOptions{}, nullptr);
    ASSERT_NE(hit.entry, nullptr);
    EXPECT_EQ(cache.stats().disk_hits, 1);

    auto miss = cache.acquire(compile_key + "/other", graph,
                              GpuSpec::v100(), AnalysisOptions{},
                              nullptr);
    EXPECT_EQ(miss.entry, nullptr);
    ASSERT_NE(miss.lock, nullptr);
    ASSERT_TRUE(miss.lock->locked());
    EXPECT_EQ(cache.stats().disk_misses, 1);

    EXPECT_TRUE(cache.publish(miss, compile_key + "/other", *hit.entry,
                              nullptr));
    EXPECT_EQ(cache.stats().stores, 1);
    EXPECT_EQ(countArtifacts(dir).first, 2);
}

} // namespace
} // namespace astitch
