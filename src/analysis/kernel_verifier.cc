#include "analysis/kernel_verifier.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "analysis/shape_symbolic.h"
#include "sim/cost_model.h"
#include "support/strings.h"

namespace astitch {

namespace {

std::atomic<std::int64_t> g_plan_runs{0};
std::atomic<std::int64_t> g_symbolic_certifications{0};

/**
 * AS721 fires when a warp needs at least this many times the sectors
 * of an ideal stride-1 access. 4x keeps the legitimate stride-2
 * transpose/column classes (priced by the cost model at 0.5
 * coalescing) below the lint.
 */
constexpr double kCoalescingSlack = 4.0;

/** AS741 fires above this per-element recompute factor. */
constexpr double kRecomputeBlowup = 16.0;

/** AS751 relative tolerance against the cost model. */
constexpr double kCostTolerance = 0.05;

/**
 * AS751 absolute slack (transactions): per-access sector rounding
 * legitimately diverges from the model's aggregate rounding by up to
 * one transaction per access, so tiny kernels need a floor.
 */
constexpr double kCostMinSlack = 16.0;

/** Coverage accumulator for one written off-chip buffer. */
struct WriteCoverage
{
    std::int64_t lo = 0;
    std::int64_t hi = -1;
    std::int64_t extent = 0;
    bool any = false;
};

/**
 * True when a barrier of sufficient scope orders schedule positions
 * @p p and @p q: shared-arena exchanges are satisfied by any barrier
 * (block or device), off-chip staging needs a device-wide one.
 */
bool
orderedByBarrier(const BarrierIndex &barriers, int p, int q,
                 bool needs_device)
{
    return barriers.inRange(std::min(p, q), std::max(p, q), needs_device);
}

/** Accesses grouped by buffer, each group in ascending access index. */
std::unordered_map<std::string_view, std::vector<std::size_t>>
accessesByBuffer(const std::vector<OpAccess> &accesses)
{
    std::unordered_map<std::string_view, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < accesses.size(); ++i)
        buckets[accesses[i].buffer].push_back(i);
    return buckets;
}

void
checkBounds(const KernelPlan &plan, DiagnosticEngine &engine)
{
    std::map<std::string, WriteCoverage> covered;
    for (const OpAccess &a : plan.accesses) {
        const std::int64_t lo = a.index.minIndex();
        const std::int64_t hi = a.effectiveMax();
        if (lo < 0) {
            engine.report("AS703", plan.name,
                          strCat("access reaches negative index ", lo,
                                 ": ", a.toString()),
                          a.node);
        }
        if (hi >= a.extent) {
            engine.report(a.space == AccessSpace::Shared ? "AS702"
                                                         : "AS701",
                          plan.name,
                          strCat("access reaches index ", hi,
                                 " past extent ", a.extent, ": ",
                                 a.toString()),
                          a.node);
        }
        if (a.kind == AccessKind::Write &&
            a.space != AccessSpace::Shared) {
            WriteCoverage &cov = covered[a.buffer];
            if (!cov.any) {
                cov.lo = lo;
                cov.hi = hi;
            } else {
                cov.lo = std::min(cov.lo, lo);
                cov.hi = std::max(cov.hi, hi);
            }
            cov.extent = a.extent;
            cov.any = true;
        }
    }
    // An off-chip buffer the kernel writes must be written *fully*: a
    // shrunken task-loop or launch bound leaves a stale tail behind.
    for (const auto &[buffer, cov] : covered) {
        if (cov.lo <= 0 && cov.hi >= cov.extent - 1)
            continue;
        engine.report("AS704", plan.name,
                      strCat("writes to ", buffer, " cover only [",
                             cov.lo, ", ", cov.hi, "] of extent ",
                             cov.extent));
    }
}

/**
 * AS711/AS712. Only two accesses to one buffer whose element ranges
 * overlap and whose ops no barrier separates can race. So each buffer's
 * accesses are grouped by barrier epoch (ops with no barrier between
 * them share one), each group is swept in ascending minIndex order, and
 * each access is paired only with the accesses that start inside its
 * range. Findings are reported in ascending (i, j) access order, the
 * order of a plain all-pairs scan.
 */
void
checkRaces(const KernelPlan &plan, DiagnosticEngine &engine)
{
    const auto &accesses = plan.accesses;
    const BarrierIndex barriers(plan.barriers);
    struct Span
    {
        std::size_t epoch;
        std::int64_t lo;
        std::int64_t hi;
        std::size_t index;
    };
    struct Finding
    {
        std::size_t i;
        std::size_t j;
        bool write_write;
    };
    std::vector<Finding> findings;
    // Pair (i, j), i < j, whose element ranges are known to overlap.
    const auto checkPair = [&](std::size_t i, std::size_t j) {
        const OpAccess &a = accesses[i];
        const OpAccess &b = accesses[j];
        if (a.op_index == b.op_index)
            return; // program order within one op's emission
        if (a.kind == AccessKind::Read && b.kind == AccessKind::Read)
            return;
        const bool needs_device = a.space != AccessSpace::Shared;
        if (a.kind == AccessKind::Write && b.kind == AccessKind::Write) {
            // Identical mappings keep both writes inside one thread,
            // ordered by that thread's program order.
            if (!sameMapping(a, b) &&
                !orderedByBarrier(barriers, a.op_index, b.op_index,
                                  needs_device)) {
                findings.push_back({i, j, true});
            }
            return;
        }
        // Write-read (either order) on a staging buffer: the value
        // crosses threads by design, so a barrier of the buffer's scope
        // must separate the two schedule positions.
        if (a.space != AccessSpace::Shared &&
            a.space != AccessSpace::Scratch) {
            return; // inputs/outputs have no in-kernel pairing
        }
        if (!orderedByBarrier(barriers, a.op_index, b.op_index,
                              needs_device)) {
            findings.push_back({i, j, false});
        }
    };

    for (const auto &[buffer, members] : accessesByBuffer(accesses)) {
        // Device-scope epochs are coarser, so they are sound for any
        // mix of spaces; an all-shared buffer needs only block scope.
        const bool device_epochs =
            std::any_of(members.begin(), members.end(), [&](std::size_t i) {
                return accesses[i].space != AccessSpace::Shared;
            });
        std::vector<Span> spans;
        spans.reserve(members.size());
        for (std::size_t i : members) {
            const std::int64_t lo = accesses[i].index.minIndex();
            const std::int64_t hi = accesses[i].effectiveMax();
            if (hi >= lo) { // empty ranges never overlap
                spans.push_back(
                    {barriers.epoch(accesses[i].op_index, device_epochs), lo,
                     hi, i});
            }
        }
        std::sort(spans.begin(), spans.end(),
                  [](const Span &x, const Span &y) {
                      return std::tie(x.epoch, x.lo, x.index) <
                             std::tie(y.epoch, y.lo, y.index);
                  });
        for (std::size_t k = 0; k < spans.size(); ++k) {
            for (std::size_t m = k + 1;
                 m < spans.size() && spans[m].epoch == spans[k].epoch &&
                 spans[m].lo <= spans[k].hi;
                 ++m) {
                checkPair(std::min(spans[k].index, spans[m].index),
                          std::max(spans[k].index, spans[m].index));
            }
        }
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &x, const Finding &y) {
                  return std::tie(x.i, x.j) < std::tie(y.i, y.j);
              });
    for (const Finding &f : findings) {
        const OpAccess &a = accesses[f.i];
        const OpAccess &b = accesses[f.j];
        if (f.write_write) {
            engine.report("AS711", plan.name,
                          strCat("unordered overlapping writes to ",
                                 a.buffer, " by ops ", a.op_index, " and ",
                                 b.op_index),
                          a.node);
            continue;
        }
        const bool needs_device = a.space != AccessSpace::Shared;
        const OpAccess &w = a.kind == AccessKind::Write ? a : b;
        const OpAccess &r = a.kind == AccessKind::Write ? b : a;
        engine.report("AS712", plan.name,
                      strCat("write of ", w.buffer, " by op ", w.op_index,
                             " and read by op ", r.op_index,
                             " are not separated by a ",
                             needs_device ? "device" : "block",
                             "-scope barrier"),
                      w.node);
    }
}

void
checkCoalescing(const KernelPlan &plan, DiagnosticEngine &engine)
{
    for (const OpAccess &a : plan.accesses) {
        if (a.space == AccessSpace::Shared || !a.counts_traffic)
            continue;
        const std::int64_t ideal = sectorsPerWarp(1, a.elem_bytes);
        const std::int64_t actual =
            sectorsPerWarp(a.warp_stride, a.elem_bytes);
        if (static_cast<double>(actual) >=
            kCoalescingSlack * static_cast<double>(ideal)) {
            engine.report(
                "AS721", plan.name,
                strCat("warp needs ", actual, " sectors (ideal ", ideal,
                       ") at stride ", a.warp_stride, ": ",
                       a.toString()),
                a.node);
        }
    }
}

void
checkBankConflicts(const KernelPlan &plan, DiagnosticEngine &engine)
{
    for (const OpAccess &a : plan.accesses) {
        if (a.space != AccessSpace::Shared)
            continue;
        const int degree = bankConflictDegree(a.warp_stride, a.elem_bytes);
        if (degree >= 2) {
            engine.report("AS731", plan.name,
                          strCat(degree, "-way bank conflict at stride ",
                                 a.warp_stride, ": ", a.toString()),
                          a.node);
        }
    }
}

void
checkRecompute(const KernelPlan &plan, DiagnosticEngine &engine)
{
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        const ScheduledOp &op = plan.ops[i];
        if (op.recompute_factor > kRecomputeBlowup) {
            engine.report(
                "AS741", plan.name,
                strCat("op ", i, " recomputes every element ",
                       strFixed(op.recompute_factor, 1),
                       "x (broadcast blowup threshold ",
                       strFixed(kRecomputeBlowup, 1), ")"),
                op.node);
        }
    }
}

void
checkCostModel(const Graph &graph, const KernelPlan &plan,
               const GpuSpec &spec, DiagnosticEngine &engine)
{
    const TransactionEstimate est = staticTransactionCounts(plan);
    KernelRecord record;
    try {
        record = CostModel(spec).priceKernel(workDescFor(graph, plan));
    } catch (const FatalError &) {
        // An unpriceable configuration is the consistency family's
        // finding (AS005..AS008), not a model disagreement.
        return;
    }
    auto compare = [&](const char *what, double verifier, double model) {
        const double allowed =
            std::max(kCostTolerance * model, kCostMinSlack);
        if (std::abs(verifier - model) > allowed) {
            engine.report(
                "AS751", plan.name,
                strCat("verifier derives ", strFixed(verifier, 0), " ",
                       what, " transactions but the cost model prices ",
                       strFixed(model, 0), " (tolerance ",
                       strFixed(allowed, 0), ")"));
        }
    };
    compare("read",
            est.read_transactions,
            static_cast<double>(record.dram_read_transactions));
    compare("write",
            est.write_transactions,
            static_cast<double>(record.dram_write_transactions));
}

} // namespace

TransactionEstimate
staticTransactionCounts(const KernelPlan &plan)
{
    TransactionEstimate est;
    for (const OpAccess &a : plan.accesses) {
        const double txn = accessTransactions(a);
        if (a.kind == AccessKind::Read)
            est.read_transactions += txn;
        else
            est.write_transactions += txn;
    }
    return est;
}

void
verifyKernelPlan(const Graph &graph, const KernelPlan &plan,
                 const GpuSpec &spec, DiagnosticEngine &engine)
{
    if (plan.accesses.empty())
        return; // no summaries recorded (non-stitch backend / fallback)
    g_plan_runs.fetch_add(1, std::memory_order_relaxed);
    checkBounds(plan, engine);
    checkRaces(plan, engine);
    checkCoalescing(plan, engine);
    checkBankConflicts(plan, engine);
    checkRecompute(plan, engine);
    checkCostModel(graph, plan, spec, engine);
}

void
verifyCompiledCluster(const Graph &graph, const CompiledCluster &compiled,
                      const GpuSpec &spec, DiagnosticEngine &engine)
{
    for (const KernelPlan &plan : compiled.kernels)
        verifyKernelPlan(graph, plan, spec, engine);
}

std::int64_t
verifierPlanRuns()
{
    return g_plan_runs.load(std::memory_order_relaxed);
}

std::int64_t
symbolicPlanCertifications()
{
    return g_symbolic_certifications.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Shape-parametric proof mode (AS8xx)
// ---------------------------------------------------------------------

namespace {

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return b > 0 ? (a + b - 1) / b : a;
}

/** Smallest admissible value of a dim, or lo-1 when the set is empty. */
std::int64_t
admissibleLo(const ShapeDim &d)
{
    const std::int64_t div = std::max<std::int64_t>(1, d.divisor);
    const std::int64_t v = ceilDiv(d.lo, div) * div;
    return v <= d.hi ? v : d.lo - 1;
}

/** Largest admissible value of a dim (callers check non-emptiness). */
std::int64_t
admissibleHi(const ShapeDim &d)
{
    const std::int64_t div = std::max<std::int64_t>(1, d.divisor);
    return (d.hi / div) * div;
}

/** "batch=33, rows=128" rendering of one candidate shape. */
std::string
witnessString(const std::vector<ShapeDim> &dims,
              const std::vector<std::int64_t> &values)
{
    std::string out;
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (i)
            out += ", ";
        out += strCat(dims[i].name, "=", values[i]);
    }
    return out;
}

/**
 * Candidate witness shapes: the admissible corners of the range box
 * plus the compile point. Interval reasoning proves the "for all"
 * direction; these points only serve refutations, and for linear
 * expressions every interval extreme is attained at a corner, so a
 * violated interval bound always has a corner witness.
 */
std::vector<std::vector<std::int64_t>>
witnessCandidates(const std::vector<ShapeDim> &dims)
{
    std::vector<std::vector<std::int64_t>> corners{{}};
    constexpr std::size_t kMaxCorners = 256;
    for (const ShapeDim &d : dims) {
        std::vector<std::int64_t> choices{admissibleLo(d), admissibleHi(d)};
        if (d.admits(d.value))
            choices.push_back(d.value);
        std::sort(choices.begin(), choices.end());
        choices.erase(std::unique(choices.begin(), choices.end()),
                      choices.end());
        std::vector<std::vector<std::int64_t>> next;
        for (const auto &base : corners) {
            for (std::int64_t c : choices) {
                if (next.size() >= kMaxCorners)
                    break;
                std::vector<std::int64_t> v = base;
                v.push_back(c);
                next.push_back(std::move(v));
            }
        }
        corners = std::move(next);
    }
    return corners;
}

} // namespace

ShapeCertificate
verifyKernelPlanSymbolic(const KernelPlan &plan,
                         const std::vector<ShapeDim> &dims,
                         DiagnosticEngine &engine)
{
    ShapeCertificate cert;
    cert.dims = dims;
    if (plan.accesses.empty())
        return cert; // nothing recorded: no claim to certify
    g_symbolic_certifications.fetch_add(1, std::memory_order_relaxed);

    for (const ShapeDim &d : dims) {
        if (admissibleLo(d) < d.lo) {
            // The declared range admits no shape at all; the claim is
            // vacuously true.
            cert.verdict = ShapeCertificate::Verdict::Proven;
            cert.assumptions.push_back(
                strCat("range of ", d.name, " admits no shapes"));
            return cert;
        }
    }

    cert.assumptions.push_back(
        "serial trip counts and extent guards are recomputed from the "
        "runtime extent; launch dimensions, task packing and the shared "
        "arena stay fixed at their compile-point values");
    cert.assumptions.push_back(
        "framework input/output buffers are allocated per served shape; "
        "only scratch and shared-arena capacities are fixed at compile "
        "time");

    int refutations = 0;
    std::vector<std::string> open;
    const auto prove = [&cert] { ++cert.obligations_proven; };
    const auto leaveOpen = [&cert, &open](std::string reason) {
        ++cert.obligations_fallback;
        if (open.size() < 6)
            open.push_back(std::move(reason));
    };
    const auto refute = [&](const std::string &code,
                            const std::vector<std::int64_t> &witness,
                            const std::string &what, NodeId node) {
        ++refutations;
        engine.report(code, plan.name,
                      strCat(what, " at ", witnessString(dims, witness)),
                      node);
    };

    // Twin lookup: accesses without a symbolic form fall back.
    std::map<int, const SymbolicAccess *> twins;
    for (const SymbolicAccess &s : plan.sym_accesses)
        twins.emplace(s.access_index, &s);
    const auto twinOf = [&twins](std::size_t i) -> const SymbolicAccess * {
        const auto it = twins.find(static_cast<int>(i));
        return it == twins.end() ? nullptr : it->second;
    };

    const std::vector<std::vector<std::int64_t>> candidates =
        witnessCandidates(dims);
    // First candidate shape where pred(values) holds, or nullptr.
    const auto findWitness =
        [&candidates](const auto &pred) -> const std::vector<std::int64_t> * {
        for (const auto &values : candidates) {
            if (pred(values))
                return &values;
        }
        return nullptr;
    };

    // Grid*tasks of the partition enumerating an op's elements (the
    // per-"row" parallelism a shared-arena slot's footprint divides by).
    const auto partitionSpread = [&plan](int op_index) -> std::int64_t {
        if (op_index >= 0 && op_index < static_cast<int>(plan.ops.size())) {
            const OpPartition &p = plan.ops[op_index].partition;
            if (p.known())
                return std::max<std::int64_t>(1, p.launch.grid *
                                                     p.tasks_per_block);
        }
        return std::max<std::int64_t>(1, plan.launch.grid);
    };

    std::vector<std::string> regrow_guards;

    // Bounds, coverage and arena obligations (AS801-AS804, AS821).
    // Writers per off-chip buffer: parametric coverage refutation
    // is only sound for single-writer buffers (several writers can
    // jointly cover what none covers alone).
    std::map<std::string, int> writers;
    for (const OpAccess &a : plan.accesses) {
        if (a.kind == AccessKind::Write &&
            a.space != AccessSpace::Shared)
            ++writers[a.buffer];
    }

    for (std::size_t i = 0; i < plan.accesses.size(); ++i) {
        const OpAccess &a = plan.accesses[i];
        const SymbolicAccess *twin = twinOf(i);
        if (!twin) {
            leaveOpen(strCat("no symbolic form for ", a.buffer,
                             " (access ", i, ")"));
            continue;
        }
        const SymInterval off = twin->offset.interval(dims);
        const SymInterval ext = twin->extent.interval(dims);

        // AS803: negative offset or empty extent anywhere in range.
        if (off.lo < 0 || ext.lo < 1) {
            const auto *w = findWitness([&](const auto &v) {
                return twin->offset.evalAt(v) < 0 ||
                       twin->extent.evalAt(v) < 1;
            });
            if (w) {
                refute("AS803", *w,
                       strCat("access ", i, " on ", a.buffer,
                              " has offset ",
                              twin->offset.evalAt(*w), " / extent ",
                              twin->extent.evalAt(*w)),
                       a.node);
                continue;
            }
            leaveOpen(strCat("offset/extent sign of ", a.buffer,
                             " undecided"));
            continue;
        }
        prove();

        if (a.space == AccessSpace::Shared) {
            // AS802: the slot span must stay inside the arena for
            // every shape (offset and arena are usually constant;
            // mutations make the offset shape-dependent).
            const std::int64_t width = a.index.num_threads;
            if (off.hi + width - 1 <= ext.lo - 1) {
                prove();
            } else {
                const auto *w = findWitness([&](const auto &v) {
                    return twin->offset.evalAt(v) + width - 1 >=
                           twin->extent.evalAt(v);
                });
                if (w) {
                    refute("AS802", *w,
                           strCat("arena access ", i, " spans [",
                                  twin->offset.evalAt(*w), ", ",
                                  twin->offset.evalAt(*w) + width - 1,
                                  "] past arena of ",
                                  twin->extent.evalAt(*w), " words"),
                           a.node);
                } else {
                    leaveOpen(strCat("arena span of access ", i,
                                     " undecided"));
                }
            }
            // AS821: the staged value's footprint must fit its
            // fixed-capacity slot at every shape. Writes only: the
            // producer stages the value, readers reuse the slot.
            if (a.kind == AccessKind::Write) {
                const std::int64_t spread =
                    partitionSpread(a.op_index);
                const SymInterval value =
                    twin->value_extent.interval(dims);
                if (ceilDiv(value.hi, spread) <= width) {
                    prove();
                } else {
                    const auto *w = findWitness([&](const auto &v) {
                        return ceilDiv(twin->value_extent.evalAt(v),
                                       spread) > width;
                    });
                    if (w) {
                        refute(
                            "AS821", *w,
                            strCat("staged value of access ", i,
                                   " needs ",
                                   ceilDiv(twin->value_extent.evalAt(
                                               *w),
                                           spread),
                                   " arena words but its slot holds ",
                                   width),
                            a.node);
                    } else {
                        leaveOpen(strCat("arena footprint of access ",
                                         i, " undecided"));
                    }
                }
            }
            continue;
        }

        // Off-chip access. The canonical enumeration recomputes its
        // serial trip count and guard from the runtime extent (the
        // standing assumption), so in-bounds holds by construction;
        // what remains provable is capacity, reach and coverage.
        const AffineIndex canonical = linearEnumeration(
            a.extent, a.index.num_blocks, a.index.num_tasks,
            a.index.num_threads);
        if (a.index != canonical) {
            leaveOpen(strCat("non-canonical enumeration for ",
                             a.buffer, " (access ", i, ")"));
            continue;
        }
        prove(); // in-bounds under the recomputed guard

        // AS801: a scratch buffer's capacity is fixed by the
        // compile-time memory plan; its symbolic extent must not
        // outgrow it anywhere in the range.
        if (strStartsWith(a.buffer, "scratch:")) {
            if (ext.hi <= a.extent) {
                prove();
            } else {
                const auto *w = findWitness([&](const auto &v) {
                    return twin->extent.evalAt(v) > a.extent;
                });
                if (w) {
                    refute("AS801", *w,
                           strCat(a.buffer, " needs ",
                                  twin->extent.evalAt(*w),
                                  " elements but was allocated for ",
                                  a.extent),
                           a.node);
                } else {
                    leaveOpen(strCat("capacity of ", a.buffer,
                                     " undecided"));
                }
            }
        }

        // Elided guards are a compile-point optimization: they stay
        // valid across the range only when the enumeration stride
        // divides every admissible extent.
        const std::int64_t stride = a.index.num_blocks *
                                    a.index.num_tasks *
                                    a.index.num_threads;
        if (a.guard < 0 && !twin->extent.isConstant()) {
            const std::int64_t div = twin->extent.divisibility(dims);
            if (!(div > 0 && stride > 0 && div % stride == 0) &&
                std::find(regrow_guards.begin(), regrow_guards.end(),
                          a.buffer) == regrow_guards.end())
                regrow_guards.push_back(a.buffer);
        }

        // AS804: a (single) writer must be able to reach the whole
        // buffer at every shape — its raw enumeration span, fixed
        // at compile time, bounds what the guard can reveal.
        if (a.kind == AccessKind::Write) {
            const std::int64_t raw_span = stride * a.index.num_iters;
            if (twin->offset.isConstant() && twin->offset.c0 > 0 &&
                writers[a.buffer] == 1) {
                refute("AS804", candidates.front(),
                       strCat("writes to ", a.buffer, " start at ",
                              twin->offset.c0,
                              ", leaving the head unwritten"),
                       a.node);
            } else if (ext.hi <= raw_span) {
                prove();
            } else if (writers[a.buffer] == 1) {
                const auto *w = findWitness([&](const auto &v) {
                    return twin->extent.evalAt(v) > raw_span;
                });
                if (w) {
                    refute("AS804", *w,
                           strCat("writes to ", a.buffer, " reach ",
                                  raw_span, " elements but extent is ",
                                  twin->extent.evalAt(*w)),
                           a.node);
                } else {
                    leaveOpen(strCat("coverage of ", a.buffer,
                                     " undecided"));
                }
            } else {
                leaveOpen(strCat("multi-writer coverage of ",
                                 a.buffer, " not provable"));
            }
        }
    }

    // Race obligations (AS811, AS812). Same-buffer pairs (i, j),
    // i < j, visited in the same (i, j) order as an all-pairs scan,
    // without touching other buffers.
    const auto &accesses = plan.accesses;
    const BarrierIndex barriers(plan.barriers);
    const auto buckets = accessesByBuffer(accesses);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        const std::vector<std::size_t> &same =
            buckets.at(accesses[i].buffer);
        for (auto it = std::upper_bound(same.begin(), same.end(), i);
             it != same.end(); ++it) {
            const std::size_t j = *it;
            const OpAccess &a = accesses[i];
            const OpAccess &b = accesses[j];
            if (a.op_index == b.op_index)
                continue;
            if (a.kind == AccessKind::Read &&
                b.kind == AccessKind::Read)
                continue;
            const bool needs_device = a.space != AccessSpace::Shared;
            const SymbolicAccess *ta = twinOf(i);
            const SymbolicAccess *tb = twinOf(j);

            if (a.kind == AccessKind::Write &&
                b.kind == AccessKind::Write) {
                if (sameMapping(a, b)) {
                    // Same-thread at the compile shape; stays
                    // same-thread for every shape iff the symbolic
                    // forms agree too.
                    if (!ta || !tb) {
                        leaveOpen(strCat(
                            "write-write mapping on ", a.buffer,
                            " lacks a symbolic form"));
                        continue;
                    }
                    if (ta->extent == tb->extent &&
                        ta->offset == tb->offset) {
                        prove();
                        continue;
                    }
                    const auto *w = findWitness([&](const auto &v) {
                        return ta->extent.evalAt(v) !=
                                   tb->extent.evalAt(v) ||
                               ta->offset.evalAt(v) !=
                                   tb->offset.evalAt(v);
                    });
                    if (w) {
                        refute("AS811", *w,
                               strCat("writes to ", a.buffer,
                                      " by ops ", a.op_index, " and ",
                                      b.op_index,
                                      " share a mapping at the "
                                      "compile shape but diverge"),
                               a.node);
                    } else {
                        leaveOpen(strCat("write-write mapping on ",
                                         a.buffer, " undecided"));
                    }
                    continue;
                }
                if (orderedByBarrier(barriers, a.op_index, b.op_index,
                                     needs_device)) {
                    prove(); // barrier placement is shape-independent
                    continue;
                }
                if (rangesOverlap(a, b)) {
                    // The concrete verifier already reports AS711
                    // for this pair; nothing parametric to add.
                    leaveOpen(strCat("concrete write-write finding "
                                     "on ",
                                     a.buffer, " governs"));
                    continue;
                }
                // Disjoint at the compile shape: prove it stays so.
                if (!ta || !tb) {
                    leaveOpen(strCat("write-write spans on ",
                                     a.buffer,
                                     " lack a symbolic form"));
                    continue;
                }
            }

            if (a.kind != b.kind &&
                a.space != AccessSpace::Shared &&
                a.space != AccessSpace::Scratch)
                continue; // inputs/outputs have no in-kernel pairing

            if (a.kind != b.kind) {
                if (orderedByBarrier(barriers, a.op_index, b.op_index,
                                     needs_device)) {
                    prove();
                    continue;
                }
                if (rangesOverlap(a, b)) {
                    leaveOpen(strCat("concrete read-write finding "
                                     "on ",
                                     a.buffer, " governs"));
                    continue;
                }
                if (!ta || !tb) {
                    leaveOpen(strCat("read-write spans on ", a.buffer,
                                     " lack a symbolic form"));
                    continue;
                }
            }

            // Both accesses are disjoint at the compile shape and
            // unordered by any barrier: they must stay disjoint at
            // every shape in the range.
            const auto spanAt = [&](const OpAccess &acc,
                                    const SymbolicAccess &twin,
                                    const std::vector<std::int64_t>
                                        &v) -> SymInterval {
                const std::int64_t lo = twin.offset.evalAt(v);
                const std::int64_t width =
                    acc.space == AccessSpace::Shared
                        ? acc.index.num_threads
                        : twin.value_extent.evalAt(v);
                return SymInterval{lo, lo + std::max<std::int64_t>(
                                                width, 1) -
                                           1};
            };
            const auto spanInterval =
                [&](const OpAccess &acc,
                    const SymbolicAccess &twin) -> SymInterval {
                const SymInterval off = twin.offset.interval(dims);
                const std::int64_t width_hi =
                    acc.space == AccessSpace::Shared
                        ? acc.index.num_threads
                        : twin.value_extent.interval(dims).hi;
                return SymInterval{off.lo,
                                   off.hi +
                                       std::max<std::int64_t>(
                                           width_hi, 1) -
                                       1};
            };
            const SymInterval sa = spanInterval(a, *ta);
            const SymInterval sb = spanInterval(b, *tb);
            if (sa.hi < sb.lo || sb.hi < sa.lo) {
                prove(); // interval-disjoint across the whole range
                continue;
            }
            const auto *w = findWitness([&](const auto &v) {
                const SymInterval va = spanAt(a, *ta, v);
                const SymInterval vb = spanAt(b, *tb, v);
                return va.lo <= vb.hi && vb.lo <= va.hi;
            });
            if (w) {
                const char *code =
                    a.kind == b.kind ? "AS811" : "AS812";
                refute(code, *w,
                       strCat("accesses ", i, " and ", j, " on ",
                              a.buffer,
                              " are disjoint at the compile shape "
                              "but overlap"),
                       a.node);
            } else {
                leaveOpen(strCat("span separation on ", a.buffer,
                                 " undecided"));
            }
        }
    }

    if (!regrow_guards.empty()) {
        cert.assumptions.push_back(
            strCat("extent guards elided at the compile shape must be "
                   "re-enabled when serving other shapes for: ",
                   strJoin(regrow_guards, ", ")));
    }

    if (refutations > 0) {
        cert.verdict = ShapeCertificate::Verdict::Refuted;
    } else if (open.empty()) {
        cert.verdict = ShapeCertificate::Verdict::Proven;
    } else {
        cert.verdict = ShapeCertificate::Verdict::Fallback;
        engine.report(
            "AS831", plan.name,
            strCat(cert.obligations_fallback,
                   " parametric proof obligation(s) did not close (",
                   strJoin(open, "; "),
                   "); concrete per-shape verification remains in "
                   "effect"));
    }
    return cert;
}

void
certifyCompiledCluster(const Graph &graph, CompiledCluster &compiled,
                       const std::vector<ShapeDim> &dims,
                       DiagnosticEngine &engine)
{
    for (KernelPlan &plan : compiled.kernels) {
        if (plan.certificate.verdict != ShapeCertificate::Verdict::None)
            continue; // certified at most once
        if (plan.accesses.empty())
            continue;
        if (plan.sym_accesses.empty())
            attachSymbolicAccesses(graph, plan, dims);
        plan.certificate =
            verifyKernelPlanSymbolic(plan, dims, engine);
    }
}

} // namespace astitch
