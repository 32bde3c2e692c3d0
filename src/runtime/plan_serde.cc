#include "runtime/plan_serde.h"

#include <algorithm>
#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/atomic_file.h"
#include "support/strings.h"

namespace astitch {

namespace {

// ---------------------------------------------------------------------
// Byte-level encoding: fixed-width little-endian, no padding, no
// host-endianness dependence. ByteWriter and ByteReader share one call
// surface — the writer takes values, the reader fills references — so
// each structure's layout is written once, as a walk() both run.
// ---------------------------------------------------------------------

class ByteWriter
{
  public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v) { le(v); }
    void u64(std::uint64_t v) { le(v); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof v, "f64 must be 64-bit");
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        out_.append(s);
    }

    template <class E>
    void enumeration(E v, E /*max*/)
    {
        u8(static_cast<std::uint8_t>(v));
    }

    /** Count-prefixed sequence; @p fn writes one element. */
    template <class T, class Fn>
    void seq(const std::vector<T> &items, std::size_t /*min_elem_bytes*/,
             const Fn &fn)
    {
        u32(static_cast<std::uint32_t>(items.size()));
        for (const T &item : items)
            fn(item);
    }

    /**
     * Count-prefixed map sorted by key, so equal maps produce
     * bit-identical payloads whatever their hash order; @p fn writes
     * one (key, value) entry.
     */
    template <class Map, class Fn>
    void sortedMap(const Map &map, std::size_t /*min_elem_bytes*/,
                   const Fn &fn)
    {
        std::vector<std::pair<typename Map::key_type,
                              typename Map::mapped_type>>
            sorted(map.begin(), map.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        u32(static_cast<std::uint32_t>(sorted.size()));
        for (const auto &[key, value] : sorted)
            fn(key, value);
    }

    std::string take() { return std::move(out_); }

  private:
    template <class U>
    void le(U v)
    {
        for (std::size_t i = 0; i < sizeof v; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::string out_;
};

/**
 * Hardened sequential reader: every length/count is capped by the
 * bytes actually remaining, so corrupt size fields fail cleanly
 * instead of driving allocations or out-of-bounds reads. The first
 * failure latches; subsequent reads yield zero values.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &bytes) : bytes_(bytes) {}

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool atEnd() const { return pos_ == bytes_.size(); }

    void fail(const std::string &why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = strCat(why, " at byte ", pos_, " of ", bytes_.size());
        }
    }

    void u32(std::uint32_t &v) { v = le<std::uint32_t>(); }
    void u64(std::uint64_t &v) { v = le<std::uint64_t>(); }
    void i32(std::int32_t &v)
    {
        v = static_cast<std::int32_t>(le<std::uint32_t>());
    }
    void i64(std::int64_t &v)
    {
        v = static_cast<std::int64_t>(le<std::uint64_t>());
    }

    void f64(double &v)
    {
        const auto bits = le<std::uint64_t>();
        std::memcpy(&v, &bits, sizeof v);
    }

    void boolean(bool &v)
    {
        const auto b = le<std::uint8_t>();
        if (b > 1)
            fail("boolean out of range");
        v = b == 1;
    }

    void str(std::string &s)
    {
        const auto n = le<std::uint32_t>();
        if (failed_ || n > remaining()) {
            fail("string length exceeds buffer");
            s.clear();
            return;
        }
        s = bytes_.substr(pos_, n);
        pos_ += n;
    }

    /** Enum byte constrained to [0, @p max]. */
    template <class E>
    void enumeration(E &v, E max)
    {
        const auto b = le<std::uint8_t>();
        if (b > static_cast<std::uint8_t>(max))
            fail("enum value out of range");
        v = static_cast<E>(b);
    }

    /**
     * Count-prefixed sequence whose elements occupy at least
     * @p min_elem_bytes each: a corrupt count larger than the
     * remaining bytes could ever hold is rejected before any element
     * decodes. @p fn fills one default-constructed element.
     */
    template <class T, class Fn>
    void seq(std::vector<T> &items, std::size_t min_elem_bytes,
             const Fn &fn)
    {
        const std::size_t n = count(min_elem_bytes);
        items.reserve(n);
        for (std::size_t i = 0; i < n && !failed_; ++i)
            fn(items.emplace_back());
    }

    /** Map counterpart of seq(); @p fn fills one (key, value) entry. */
    template <class Map, class Fn>
    void sortedMap(Map &map, std::size_t min_elem_bytes, const Fn &fn)
    {
        const std::size_t n = count(min_elem_bytes);
        for (std::size_t i = 0; i < n && !failed_; ++i) {
            typename Map::key_type key{};
            typename Map::mapped_type value{};
            fn(key, value);
            map[key] = value;
        }
    }

  private:
    /** Little-endian unsigned of sizeof(U) bytes; zero once failed. */
    template <class U>
    U le()
    {
        if (failed_ || remaining() < sizeof(U)) {
            fail(strCat("short read (u", 8 * sizeof(U), ")"));
            return 0;
        }
        U v = 0;
        for (std::size_t i = 0; i < sizeof(U); ++i) {
            const auto byte = static_cast<unsigned char>(bytes_[pos_ + i]);
            v |= static_cast<U>(static_cast<U>(byte) << (8 * i));
        }
        pos_ += sizeof(U);
        return v;
    }

    std::size_t count(std::size_t min_elem_bytes)
    {
        const auto n = le<std::uint32_t>();
        if (failed_)
            return 0;
        if (n > remaining() / min_elem_bytes) {
            fail("sequence count exceeds buffer");
            return 0;
        }
        return n;
    }

    const std::string &bytes_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

// ---------------------------------------------------------------------
// Payload layout: one walk() per structure, in dependency order. IO is
// ByteWriter (T const) or ByteReader (T mutable); the field order in
// each walk is the wire format.
// ---------------------------------------------------------------------

/** T is U, or const U when encoding. */
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

template <class IO, Is<std::vector<NodeId>> T>
void
walk(IO &io, T &nodes)
{
    io.seq(nodes, 4, [&](auto &n) { io.i32(n); });
}

template <class IO, Is<std::vector<std::string>> T>
void
walk(IO &io, T &strings)
{
    io.seq(strings, 4, [&](auto &s) { io.str(s); });
}

template <class IO, Is<Cluster> T>
void
walk(IO &io, T &c)
{
    walk(io, c.nodes);
    walk(io, c.inputs);
    walk(io, c.outputs);
}

template <class IO, Is<LaunchDims> T>
void
walk(IO &io, T &launch)
{
    io.i64(launch.grid);
    io.i32(launch.block);
}

template <class IO, Is<OpPartition> T>
void
walk(IO &io, T &p)
{
    walk(io, p.launch);
    io.i64(p.rows_per_block);
    io.i64(p.tasks_per_block);
}

template <class IO, Is<AffineIndex> T>
void
walk(IO &io, T &ix)
{
    io.i64(ix.offset);
    io.i64(ix.coeff_block);
    io.i64(ix.coeff_task);
    io.i64(ix.coeff_iter);
    io.i64(ix.coeff_thread);
    io.i64(ix.num_blocks);
    io.i64(ix.num_tasks);
    io.i64(ix.num_iters);
    io.i64(ix.num_threads);
}

template <class IO, Is<OpAccess> T>
void
walk(IO &io, T &a)
{
    io.i32(a.node);
    io.i32(a.op_index);
    io.enumeration(a.kind, AccessKind::Write);
    io.enumeration(a.space, AccessSpace::Shared);
    io.str(a.buffer);
    io.i64(a.elem_bytes);
    io.i64(a.extent);
    walk(io, a.index);
    io.i64(a.guard);
    io.i64(a.warp_stride);
    io.f64(a.repeat);
    io.boolean(a.counts_traffic);
}

template <class IO, Is<LinExpr> T>
void
walk(IO &io, T &e)
{
    io.i64(e.c0);
    io.seq(e.terms, 12, [&](auto &term) {
        io.i32(term.first);
        io.i64(term.second);
    });
}

template <class IO, Is<ShapeCertificate> T>
void
walk(IO &io, T &cert)
{
    io.enumeration(cert.verdict, ShapeCertificate::Verdict::Refuted);
    io.seq(cert.dims, 4, [&](auto &d) {
        io.str(d.name);
        io.i64(d.value);
        io.i64(d.lo);
        io.i64(d.hi);
        io.i64(d.divisor);
    });
    walk(io, cert.assumptions);
    io.i32(cert.obligations_proven);
    io.i32(cert.obligations_fallback);
}

template <class IO, Is<KernelPlan> T>
void
walk(IO &io, T &plan)
{
    io.str(plan.name);
    io.seq(plan.ops, 4, [&](auto &op) {
        io.i32(op.node);
        io.f64(op.recompute_factor);
        io.enumeration(op.out_space, BufferSpace::Output);
        walk(io, op.partition);
    });
    io.seq(plan.inputs, 4, [&](auto &in) {
        io.i32(in.node);
        io.f64(in.load_factor);
    });
    walk(io, plan.outputs);
    walk(io, plan.launch);
    io.i32(plan.regs_per_thread);
    io.i64(plan.smem_per_block);
    io.i32(plan.num_block_barriers);
    io.i32(plan.num_global_barriers);
    io.seq(plan.barriers, 4, [&](auto &b) {
        io.i32(b.after_op);
        io.enumeration(b.scope, BarrierScope::Device);
        io.i64(b.trip_count);
    });
    io.seq(plan.shared_slots, 4, [&](auto &s) {
        io.i32(s.node);
        io.i64(s.offset_bytes);
        io.i64(s.size_bytes);
    });
    io.seq(plan.accesses, 8, [&](auto &a) { walk(io, a); });
    io.seq(plan.sym_accesses, 8, [&](auto &s) {
        io.i32(s.access_index);
        walk(io, s.extent);
        walk(io, s.offset);
        walk(io, s.value_extent);
    });
    walk(io, plan.certificate);
    io.f64(plan.atomic_operations);
    io.f64(plan.read_coalescing);
    io.f64(plan.write_coalescing);
    io.f64(plan.extra_launch_overhead_us);
    io.f64(plan.extra_bytes_read);
    io.str(plan.cuda_source);
}

template <class IO, Is<CompiledCluster> T>
void
walk(IO &io, T &cc)
{
    io.seq(cc.kernels, 4, [&](auto &plan) { walk(io, plan); });
    io.i32(cc.num_memcpy);
    io.f64(cc.memcpy_bytes);
    io.i64(cc.global_scratch_bytes);
}

template <class IO, Is<Diagnostic> T>
void
walk(IO &io, T &d)
{
    io.str(d.code);
    io.enumeration(d.severity, Severity::Error);
    io.str(d.kernel);
    io.str(d.message);
    io.i32(d.node);
    walk(io, d.provenance);
}

void
walk(ByteWriter &w, const DiagnosticEngine &engine)
{
    w.seq(engine.diagnostics(), 8, [&](const Diagnostic &d) { walk(w, d); });
}

void
walk(ByteReader &r, DiagnosticEngine &engine)
{
    std::vector<Diagnostic> found;
    r.seq(found, 8, [&](Diagnostic &d) {
        walk(r, d);
        // A code this build does not register would panic in add():
        // reject the artifact instead (it came from a different build).
        if (!r.failed() && !findDiagnosticCode(d.code))
            r.fail(strCat("unknown diagnostic code '", d.code, "'"));
    });
    if (r.failed())
        return;
    for (Diagnostic &d : found)
        engine.add(std::move(d));
}

template <class IO, Is<DegradationReport> T>
void
walk(IO &io, T &report)
{
    io.seq(report.clusters, 4, [&](auto &c) {
        io.enumeration(c.level, LadderLevel::KernelPerOp);
        io.i32(c.retries);
        walk(io, c.causes);
    });
    io.boolean(report.clustering_fallback);
    io.boolean(report.serial_fallback);
    io.boolean(report.cache_bypassed);
    io.i32(report.session_retries);
}

template <class IO, Is<CompilePassTimings> T>
void
walk(IO &io, T &t)
{
    // Only the compile-pass spans persist; the artifact_* fields are
    // load-time measurements the warm path fills fresh.
    io.f64(t.clustering_ms);
    io.f64(t.remote_stitch_ms);
    io.f64(t.backend_compile_ms);
    io.f64(t.analysis_ms);
    io.f64(t.autotune_ms);
    io.f64(t.parallel_section_ms);
    io.f64(t.scheduling_ms);
}

template <class IO, Is<TuningReport> T>
void
walk(IO &io, T &report)
{
    io.boolean(report.enabled);
    io.seq(report.clusters, 8, [&](auto &r) {
        io.u64(r.fingerprint);
        io.f64(r.heuristic_cost_us);
        io.f64(r.tuned_cost_us);
        io.i32(r.candidates_evaluated);
        io.i32(r.candidates_rejected);
        io.boolean(r.improved);
        io.boolean(r.db_hit);
        io.f64(r.search_ms);
        io.sortedMap(r.decision.schemes, 5, [&](auto &node, auto &scheme) {
            io.i32(node);
            io.enumeration(scheme, StitchScheme::Global);
        });
        io.sortedMap(r.decision.mappings, 12, [&](auto &node, auto &m) {
            io.i32(node);
            io.i32(m.block);
            io.i32(m.split);
        });
    });
}

template <class IO, Is<JitCacheEntry> T>
void
walk(IO &io, T &entry)
{
    io.seq(entry.clusters, 4, [&](auto &c) { walk(io, c); });
    io.seq(entry.compiled, 4, [&](auto &cc) { walk(io, cc); });
    io.seq(entry.cluster_diagnostics, 4,
           [&](auto &engine) { walk(io, engine); });
    walk(io, entry.degradation);
    walk(io, entry.timings);
    walk(io, entry.tuning);
}

// ---------------------------------------------------------------------
// Envelope framing.
// ---------------------------------------------------------------------

constexpr char kMagic[4] = {'A', 'S', 'T', 'C'};

} // namespace

std::string
serializePlanPayload(const JitCacheEntry &entry)
{
    ByteWriter w;
    walk(w, entry);
    return w.take();
}

bool
deserializePlanPayload(const std::string &payload, JitCacheEntry *entry,
                       std::string *error)
{
    *entry = JitCacheEntry{};
    ByteReader r(payload);
    walk(r, *entry);
    if (!r.failed() && !r.atEnd())
        r.fail("trailing bytes after payload");
    if (r.failed()) {
        if (error)
            *error = r.error();
        return false;
    }
    return true;
}

std::string
artifactStatusName(ArtifactStatus status)
{
    switch (status) {
    case ArtifactStatus::Ok:
        return "ok";
    case ArtifactStatus::Truncated:
        return "truncated";
    case ArtifactStatus::BadMagic:
        return "bad-magic";
    case ArtifactStatus::BadHeaderChecksum:
        return "bad-header-checksum";
    case ArtifactStatus::BadPayloadChecksum:
        return "bad-payload-checksum";
    case ArtifactStatus::KeyMismatch:
        return "key-mismatch";
    case ArtifactStatus::VersionSkew:
        return "version-skew";
    }
    return "unknown";
}

std::string
wrapArtifact(const std::string &key, const std::string &payload)
{
    ByteWriter w;
    for (char c : kMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kArtifactFormatVersion);
    w.str(key);
    w.u64(payload.size());
    w.u64(checksum64(payload));
    std::string header = w.take();
    ByteWriter tail;
    tail.u64(checksum64(header));
    header += tail.take();
    header += payload;
    return header;
}

ArtifactStatus
inspectArtifact(const std::string &bytes, std::string *key,
                std::string *payload)
{
    key->clear();
    if (bytes.size() >= sizeof kMagic &&
        std::memcmp(bytes.data(), kMagic, sizeof kMagic) == 0) {
        ByteReader r(bytes);
        std::uint32_t skipped = 0;
        r.u32(skipped); // magic, matched above
        r.u32(skipped); // version
        std::string embedded;
        r.str(embedded);
        if (!r.failed())
            *key = embedded;
    }
    return unwrapArtifact(bytes, *key, payload);
}

ArtifactStatus
unwrapArtifact(const std::string &bytes, const std::string &expected_key,
               std::string *payload)
{
    payload->clear();
    if (bytes.size() < sizeof kMagic)
        return ArtifactStatus::Truncated;
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
        return ArtifactStatus::BadMagic;

    ByteReader r(bytes);
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::string key;
    std::uint64_t payload_size = 0;
    std::uint64_t payload_checksum = 0;
    std::uint64_t header_checksum = 0;
    r.u32(magic); // matched above
    r.u32(version);
    r.str(key);
    r.u64(payload_size);
    r.u64(payload_checksum);
    const std::size_t header_end = bytes.size() - r.remaining();
    r.u64(header_checksum);
    if (r.failed()) {
        // A header we cannot even parse: either rot (same format) or a
        // layout from another format version.
        return version != kArtifactFormatVersion ? ArtifactStatus::VersionSkew
                                                 : ArtifactStatus::Truncated;
    }
    if (checksum64(bytes.data(), header_end) != header_checksum) {
        return version != kArtifactFormatVersion
                   ? ArtifactStatus::VersionSkew
                   : ArtifactStatus::BadHeaderChecksum;
    }
    // Header is intact — its claims are now trustworthy.
    if (version != kArtifactFormatVersion)
        return ArtifactStatus::VersionSkew;
    if (key != expected_key)
        return ArtifactStatus::KeyMismatch;
    if (r.remaining() != payload_size)
        return ArtifactStatus::Truncated;
    const std::size_t payload_at = bytes.size() - r.remaining();
    if (checksum64(bytes.data() + payload_at, payload_size) !=
        payload_checksum) {
        return ArtifactStatus::BadPayloadChecksum;
    }
    *payload = bytes.substr(payload_at);
    return ArtifactStatus::Ok;
}

} // namespace astitch
