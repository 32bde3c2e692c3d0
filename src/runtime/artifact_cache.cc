#include "runtime/artifact_cache.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "runtime/plan_serde.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
msSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
        .count();
}

/** mkdir -p: create every missing component; EEXIST is success. */
void
ensureDir(const std::string &dir)
{
    std::string prefix = strStartsWith(dir, "/") ? "/" : "";
    for (const std::string &part : strSplit(dir, '/')) {
        if (part.empty())
            continue;
        if (!prefix.empty() && prefix.back() != '/')
            prefix += '/';
        prefix += part;
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
            warn("artifact cache: cannot create ", prefix, ": ",
                 std::strerror(errno));
            return;
        }
    }
}

void
reportTo(DiagnosticEngine *events, const std::string &code,
         const std::string &message)
{
    if (events)
        events->report(code, "<graph>", message);
}

bool
nodeInRange(NodeId node, const Graph &graph)
{
    return node >= 0 && node < graph.numNodes();
}

bool
allNodesInRange(const std::vector<NodeId> &nodes, const Graph &graph)
{
    return std::all_of(nodes.begin(), nodes.end(), [&](NodeId n) {
        return nodeInRange(n, graph);
    });
}

bool
affineSane(const AffineIndex &ix)
{
    return ix.num_blocks >= 1 && ix.num_tasks >= 1 && ix.num_iters >= 1 &&
           ix.num_threads >= 1;
}

/**
 * Graph-aware structural validation of a decoded entry. The hardened
 * reader guarantees well-formed bytes; this guarantees well-formed
 * *references* — a tampered artifact whose checksums were re-wrapped
 * must still be unable to drive the analyzer or the executor out of
 * bounds (node ids, op indexes, access cross-references).
 */
bool
validateEntry(const JitCacheEntry &entry, const Graph &graph,
              std::string *why)
{
    const auto fail = [&](const std::string &reason) {
        *why = reason;
        return false;
    };
    const std::size_t n = entry.clusters.size();
    if (entry.compiled.size() != n ||
        entry.cluster_diagnostics.size() != n ||
        entry.degradation.clusters.size() != n ||
        entry.tuning.clusters.size() != n) {
        return fail("per-cluster vectors disagree on cluster count");
    }
    for (const Cluster &cluster : entry.clusters) {
        if (!allNodesInRange(cluster.nodes, graph) ||
            !allNodesInRange(cluster.inputs, graph) ||
            !allNodesInRange(cluster.outputs, graph)) {
            return fail("cluster references a node outside the graph");
        }
    }
    for (const CompiledCluster &compiled : entry.compiled) {
        if (compiled.num_memcpy < 0 || compiled.global_scratch_bytes < 0)
            return fail("negative compiled-cluster resource count");
        for (const KernelPlan &plan : compiled.kernels) {
            const auto ops = static_cast<int>(plan.ops.size());
            if (plan.launch.grid < 1 || plan.launch.block < 1)
                return fail(strCat("kernel '", plan.name,
                                   "' has a degenerate launch"));
            if (plan.regs_per_thread < 0 || plan.smem_per_block < 0 ||
                plan.num_block_barriers < 0 ||
                plan.num_global_barriers < 0) {
                return fail(strCat("kernel '", plan.name,
                                   "' has a negative resource count"));
            }
            for (const ScheduledOp &op : plan.ops) {
                if (!nodeInRange(op.node, graph))
                    return fail(strCat("kernel '", plan.name,
                                       "' schedules an unknown node"));
            }
            for (const KernelInput &in : plan.inputs) {
                if (!nodeInRange(in.node, graph))
                    return fail(strCat("kernel '", plan.name,
                                       "' reads an unknown node"));
            }
            if (!allNodesInRange(plan.outputs, graph))
                return fail(strCat("kernel '", plan.name,
                                   "' writes an unknown node"));
            for (const BarrierPoint &b : plan.barriers) {
                if (b.after_op < -1 || b.after_op >= ops ||
                    b.trip_count < 0) {
                    return fail(strCat("kernel '", plan.name,
                                       "' places a barrier outside its "
                                       "schedule"));
                }
            }
            for (const SharedSlot &slot : plan.shared_slots) {
                if (!nodeInRange(slot.node, graph) ||
                    slot.offset_bytes < 0 || slot.size_bytes < 0) {
                    return fail(strCat("kernel '", plan.name,
                                       "' has an invalid shared slot"));
                }
            }
            for (const OpAccess &access : plan.accesses) {
                if (!nodeInRange(access.node, graph) ||
                    access.op_index < -1 || access.op_index >= ops ||
                    access.elem_bytes < 1 || access.extent < 0 ||
                    !affineSane(access.index)) {
                    return fail(strCat("kernel '", plan.name,
                                       "' has an invalid access summary"));
                }
            }
            const auto num_accesses =
                static_cast<int>(plan.accesses.size());
            const auto num_dims =
                static_cast<int>(plan.certificate.dims.size());
            for (const SymbolicAccess &sym : plan.sym_accesses) {
                if (sym.access_index < 0 ||
                    sym.access_index >= num_accesses) {
                    return fail(strCat("kernel '", plan.name,
                                       "' has a dangling symbolic "
                                       "access"));
                }
                for (const LinExpr *e :
                     {&sym.extent, &sym.offset, &sym.value_extent}) {
                    for (const auto &[dim, coeff] : e->terms) {
                        (void)coeff;
                        if (dim < 0 || dim >= num_dims)
                            return fail(strCat(
                                "kernel '", plan.name,
                                "' references an undeclared shape dim"));
                    }
                }
            }
        }
    }
    return true;
}

} // namespace

ArtifactCache::ArtifactCache(std::string dir, double lock_timeout_ms)
    : dir_(std::move(dir)), lock_timeout_ms_(lock_timeout_ms)
{
    fatalIf(dir_.empty(), "artifact cache requires a directory");
    ensureDir(dir_);
}

std::string
ArtifactCache::artifactKey(const std::string &compile_key)
{
    return strCat(compile_key, "|serde-pass-v", kArtifactPassVersion);
}

std::string
ArtifactCache::filePathFor(const std::string &compile_key) const
{
    // The key itself contains '/' and '|'; the file is named by its
    // hash. A collision (or a renamed file) is caught by the embedded
    // key on load and treated as a clean miss.
    return strCat(dir_, "/plan-", std::hex,
                  checksum64(artifactKey(compile_key)), std::dec, ".astc");
}

ArtifactCache::Lease
ArtifactCache::acquire(const std::string &compile_key, const Graph &graph,
                       const GpuSpec &spec,
                       const AnalysisOptions &, // the gate takes none
                       DiagnosticEngine *events)
{
    Lease lease;
    const std::string file = filePathFor(compile_key);
    const std::string full_key = artifactKey(compile_key);

    const auto lockTimedOut = [&] {
        ++stats_.lock_timeouts;
        reportTo(events, "AS625",
                 strCat("artifact-cache lock on ", file,
                        " not acquired within ", lock_timeout_ms_,
                        "ms; compiling in memory without the disk tier"));
        lease.lock.reset();
        lease.lock_timed_out = true;
        return std::move(lease);
    };

    try {
        faultPoint("cache-lock-timeout");
    } catch (const InjectedFault &) {
        return lockTimedOut();
    }
    auto lock =
        std::make_unique<FileLock>(file + ".lock", lock_timeout_ms_);
    if (!lock->locked())
        return lockTimedOut();
    lease.lock = std::move(lock);

    // Reject-and-recompile helpers. The lock stays with the lease in
    // every non-hit outcome, so the caller's recompile publishes under
    // the same single-flight.
    const auto corrupt = [&](const std::string &what) {
        ++stats_.corrupt;
        const std::string bad = quarantineFile(file);
        reportTo(events, "AS621",
                 strCat("artifact ", file, " failed integrity checks (",
                        what, "); ",
                        bad.empty() ? "it could not be quarantined"
                                    : strCat("quarantined to ", bad),
                        "; recompiling"));
        return std::move(lease);
    };
    const auto decodeFailed = [&](const std::string &what) {
        ++stats_.decode_failed;
        const std::string bad = quarantineFile(file);
        reportTo(events, "AS623",
                 strCat("artifact ", file,
                        " passed its checksums but did not decode (",
                        what, "); ",
                        bad.empty() ? "it could not be quarantined"
                                    : strCat("quarantined to ", bad),
                        "; recompiling"));
        return std::move(lease);
    };
    const auto verifyRejected = [&](const std::string &what) {
        ++stats_.verify_rejected;
        const std::string bad = quarantineFile(file);
        reportTo(events, "AS624",
                 strCat("artifact ", file,
                        " was rejected by re-verification (", what,
                        "); ",
                        bad.empty() ? "it could not be quarantined"
                                    : strCat("quarantined to ", bad),
                        "; recompiling"));
        return std::move(lease);
    };

    const auto load_t0 = SteadyClock::now();
    std::string bytes;
    const FileReadStatus read = readFileBytes(file, &bytes);
    if (read == FileReadStatus::Absent) {
        ++stats_.disk_misses;
        return lease; // clean cold miss: compile under the held lock
    }
    if (read == FileReadStatus::Error)
        return corrupt("file exists but cannot be read");
    try {
        faultPoint("cache-read-corrupt");
    } catch (const InjectedFault &fault) {
        return corrupt(strCat("injected: ", fault.what()));
    }

    std::string payload;
    const ArtifactStatus status = unwrapArtifact(bytes, full_key, &payload);
    switch (status) {
    case ArtifactStatus::Ok:
        break;
    case ArtifactStatus::KeyMismatch:
    case ArtifactStatus::VersionSkew:
        // Not rot: a different build or a different compilation wrote
        // this file. The recompile overwrites it with a current one.
        ++stats_.version_skew;
        reportTo(events, "AS622",
                 strCat("artifact ", file, " is from an incompatible ",
                        status == ArtifactStatus::VersionSkew
                            ? "format/pipeline version"
                            : "compilation (key mismatch)",
                        "; treating as a miss and recompiling"));
        return lease;
    case ArtifactStatus::Truncated:
    case ArtifactStatus::BadMagic:
    case ArtifactStatus::BadHeaderChecksum:
    case ArtifactStatus::BadPayloadChecksum:
        return corrupt(artifactStatusName(status));
    }

    auto entry = std::make_shared<JitCacheEntry>();
    std::string error;
    if (!deserializePlanPayload(payload, entry.get(), &error))
        return decodeFailed(error);
    if (!validateEntry(*entry, graph, &error))
        return decodeFailed(error);
    if (entry->degradation.degraded())
        return verifyRejected("stored compilation is degraded; degraded "
                              "plans are never served from disk");
    const double load_ms = msSince(load_t0);

    // The gate: a stored plan is only served after the live analyzer
    // re-proves it against the live graph. Analyzer findings of Error
    // severity — or the analyzer itself choking on a hostile plan —
    // reject the artifact.
    const auto verify_t0 = SteadyClock::now();
    for (std::size_t i = 0; i < entry->clusters.size(); ++i) {
        DiagnosticEngine gate;
        bool clean = false;
        try {
            clean = analyzeCompiledCluster(
                graph, entry->clusters[i],
                static_cast<const CompiledCluster &>(entry->compiled[i]),
                spec, gate);
        } catch (const std::exception &e) {
            return verifyRejected(
                strCat("analyzer failed on cluster ", i, ": ", e.what()));
        }
        if (!clean) {
            std::string first;
            for (const Diagnostic &d : gate.diagnostics()) {
                if (d.severity == Severity::Error) {
                    first = d.toString();
                    break;
                }
            }
            return verifyRejected(
                strCat("cluster ", i, ": ", first));
        }
    }
    const double verify_ms = msSince(verify_t0);

    // Served: the compile-pass timings are deliberately zero — nothing
    // ran — which is how callers (and CI) prove the backend compiler
    // was skipped.
    entry->timings = CompilePassTimings{};
    entry->timings.artifact_load_ms = load_ms;
    entry->timings.artifact_verify_ms = verify_ms;
    ++stats_.disk_hits;
    reportTo(events, "AS620",
             strCat("compilation restored from artifact ", file, " (",
                    entry->clusters.size(), " cluster(s), load ",
                    strFixed(load_ms, 2), "ms, re-verify ",
                    strFixed(verify_ms, 2), "ms)"));
    lease.lock.reset();
    lease.entry = std::move(entry);
    return lease;
}

bool
ArtifactCache::publish(const Lease &lease, const std::string &compile_key,
                       const JitCacheEntry &entry, DiagnosticEngine *events)
{
    if (!lease.lock || !lease.lock->locked())
        return false;
    // A degraded compilation is a fault's snapshot, not a reusable
    // artifact: the next process should retry the full pipeline.
    if (entry.degradation.degraded())
        return false;

    const std::string file = filePathFor(compile_key);
    const auto storeFailed = [&](const std::string &what) {
        ++stats_.store_failures;
        reportTo(events, "AS626",
                 strCat("cannot persist artifact ", file, " (", what,
                        "); compilation stays usable but uncached"));
        return false;
    };
    try {
        faultPoint("cache-write-fail");
    } catch (const InjectedFault &fault) {
        return storeFailed(strCat("injected: ", fault.what()));
    }
    const std::string payload = serializePlanPayload(entry);
    const std::string bytes =
        wrapArtifact(artifactKey(compile_key), payload);
    if (!atomicWriteFile(file, bytes))
        return storeFailed("atomic write failed");
    ++stats_.stores;
    return true;
}

std::vector<ArtifactFileInfo>
ArtifactCache::scan() const
{
    std::vector<ArtifactFileInfo> infos;
    DIR *dp = ::opendir(dir_.c_str());
    if (!dp)
        return infos;
    while (const dirent *ent = ::readdir(dp)) {
        const std::string name = ent->d_name;
        const bool live = strEndsWith(name, ".astc");
        const bool bad = strEndsWith(name, ".astc.bad");
        if (!live && !bad)
            continue;
        ArtifactFileInfo info;
        info.file = name;
        info.quarantined = bad;
        std::string bytes;
        const std::string path = strCat(dir_, "/", name);
        if (readFileBytes(path, &bytes) != FileReadStatus::Ok) {
            info.status = "unreadable";
        } else {
            info.bytes = bytes.size();
            std::string payload;
            info.status = artifactStatusName(
                inspectArtifact(bytes, &info.key, &payload));
        }
        infos.push_back(std::move(info));
    }
    ::closedir(dp);
    std::sort(infos.begin(), infos.end(),
              [](const ArtifactFileInfo &a, const ArtifactFileInfo &b) {
                  return a.file < b.file;
              });
    return infos;
}

int
ArtifactCache::clear()
{
    std::vector<std::string> doomed;
    DIR *dp = ::opendir(dir_.c_str());
    if (!dp)
        return 0;
    while (const dirent *ent = ::readdir(dp)) {
        const std::string name = ent->d_name;
        if (strEndsWith(name, ".astc") || strEndsWith(name, ".astc.bad") ||
            strEndsWith(name, ".astc.lock") ||
            name.find(".astc.tmp.") != std::string::npos) {
            doomed.push_back(name);
        }
    }
    ::closedir(dp);
    int removed = 0;
    for (const std::string &name : doomed) {
        if (::unlink(strCat(dir_, "/", name).c_str()) == 0)
            ++removed;
    }
    return removed;
}

} // namespace astitch
