#include "analysis/access_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

std::string accessSpaceName(AccessSpace space)
{
    switch (space) {
    case AccessSpace::Global: return "global";
    case AccessSpace::Scratch: return "scratch";
    case AccessSpace::Shared: return "shared";
    }
    return "?";
}

std::string accessKindName(AccessKind kind)
{
    return kind == AccessKind::Read ? "read" : "write";
}

namespace {

// Contribution of one variable to the expression's extremum: a
// negative coefficient reaches its extreme at the top of the range,
// a positive one at zero (for min) or the top (for max).
std::int64_t minTerm(std::int64_t coeff, std::int64_t range)
{
    return coeff < 0 ? coeff * (range - 1) : 0;
}

std::int64_t maxTerm(std::int64_t coeff, std::int64_t range)
{
    return coeff > 0 ? coeff * (range - 1) : 0;
}

} // namespace

std::int64_t AffineIndex::minIndex() const
{
    return offset + minTerm(coeff_block, num_blocks) +
           minTerm(coeff_task, num_tasks) + minTerm(coeff_iter, num_iters) +
           minTerm(coeff_thread, num_threads);
}

std::int64_t AffineIndex::maxIndex() const
{
    return offset + maxTerm(coeff_block, num_blocks) +
           maxTerm(coeff_task, num_tasks) + maxTerm(coeff_iter, num_iters) +
           maxTerm(coeff_thread, num_threads);
}

bool AffineIndex::operator==(const AffineIndex &other) const
{
    return offset == other.offset && coeff_block == other.coeff_block &&
           coeff_task == other.coeff_task && coeff_iter == other.coeff_iter &&
           coeff_thread == other.coeff_thread &&
           num_blocks == other.num_blocks && num_tasks == other.num_tasks &&
           num_iters == other.num_iters && num_threads == other.num_threads;
}

std::string AffineIndex::toString() const
{
    std::string out;
    appendTo(out);
    return out;
}

void AffineIndex::appendTo(std::string &out) const
{
    strAppend(out, offset);
    auto term = [&out](std::int64_t coeff, const char *var) {
        if (coeff == 0) {
            return;
        }
        if (coeff == 1) {
            strAppend(out, " + ", var);
        } else {
            strAppend(out, " + ", coeff, '*', var);
        }
    };
    term(coeff_block, "b");
    term(coeff_task, "t");
    term(coeff_iter, "i");
    term(coeff_thread, "th");
    strAppend(out, "  (b<", num_blocks, ",t<", num_tasks, ",i<", num_iters,
              ",th<", num_threads, ')');
}

std::int64_t OpAccess::effectiveMax() const
{
    const std::int64_t raw = index.maxIndex();
    if (guard < 0) {
        return raw;
    }
    return std::min(raw, guard - 1);
}

std::int64_t OpAccess::touchedElements() const
{
    // The canonical enumerations touch a contiguous (or broadcast)
    // index interval; the distinct-element count is its width clipped
    // by the guard, never more than one per instance.
    const std::int64_t lo = index.minIndex();
    const std::int64_t hi = effectiveMax();
    if (hi < lo) {
        return 0;
    }
    return std::min(hi - lo + 1, index.instances());
}

std::string OpAccess::toString() const
{
    std::string out;
    appendTo(out);
    return out;
}

void OpAccess::appendTo(std::string &out) const
{
    strAppend(out, accessKindName(kind), ' ', accessSpaceName(space), ' ',
              buffer, '[');
    index.appendTo(out);
    strAppend(out, "] extent=", extent, " elem=", elem_bytes,
              "B stride=", warp_stride);
    if (guard >= 0) {
        strAppend(out, " if<", guard);
    }
    if (repeat != 1.0) {
        // Whole repeats below 1e6 print as a stream's %g would;
        // fractional (and huge) ones take the stream itself.
        const bool whole = repeat >= 1.0 && repeat < 1e6 &&
                           repeat == std::floor(repeat);
        if (whole) {
            strAppend(out, " x", static_cast<std::int64_t>(repeat));
        } else {
            std::ostringstream text;
            text << " x" << repeat;
            out += text.str();
        }
    }
    if (!counts_traffic) {
        out += " (no-traffic)";
    }
}

AffineIndex linearEnumeration(std::int64_t extent, std::int64_t num_blocks,
                              std::int64_t num_tasks,
                              std::int64_t num_threads)
{
    panicIf(extent <= 0, "linearEnumeration: non-positive extent ",
            extent);
    num_blocks = std::max<std::int64_t>(1, num_blocks);
    num_tasks = std::max<std::int64_t>(1, num_tasks);
    num_threads = std::max<std::int64_t>(1, num_threads);

    const std::int64_t stride = num_blocks * num_tasks * num_threads;
    const std::int64_t iters = (extent + stride - 1) / stride;

    AffineIndex idx;
    idx.num_blocks = num_blocks;
    idx.num_tasks = num_tasks;
    idx.num_iters = iters;
    idx.num_threads = num_threads;
    idx.coeff_thread = 1;
    idx.coeff_iter = num_threads;
    idx.coeff_task = iters * num_threads;
    idx.coeff_block = num_tasks * iters * num_threads;
    return idx;
}

std::int64_t sectorsPerWarp(std::int64_t warp_stride, std::int64_t elem_bytes)
{
    if (warp_stride == 0) {
        return 1; // broadcast: one sector serves every lane
    }
    const std::int64_t stride = warp_stride < 0 ? -warp_stride : warp_stride;
    const std::int64_t span = stride * elem_bytes * kWarpLanes;
    const std::int64_t sectors = (span + kDramSectorBytes - 1) / kDramSectorBytes;
    return std::min<std::int64_t>(sectors, kWarpLanes);
}

double accessTransactions(const OpAccess &access)
{
    if (!access.counts_traffic || access.space == AccessSpace::Shared) {
        return 0.0;
    }
    const std::int64_t elems = access.touchedElements();
    if (elems <= 0) {
        return 0.0;
    }
    // Sectors an ideal stride-1 warp would need vs what this stride
    // class actually needs: the ratio inflates the byte count before
    // sector-quantizing, matching the cost model's coalescing divisor.
    const std::int64_t ideal =
        sectorsPerWarp(1, access.elem_bytes);
    const std::int64_t actual =
        sectorsPerWarp(access.warp_stride, access.elem_bytes);
    const double inflation =
        static_cast<double>(actual) / static_cast<double>(ideal);
    const double bytes =
        static_cast<double>(elems * access.elem_bytes) * inflation;
    const double sectors = bytes / static_cast<double>(kDramSectorBytes);
    const double whole = std::max(1.0, std::ceil(sectors));
    return whole * access.repeat;
}

int bankConflictDegree(std::int64_t warp_stride, std::int64_t elem_bytes)
{
    if (warp_stride == 0) {
        return 1; // hardware broadcast path
    }
    // Convert the element stride into a 4-byte word stride; lanes
    // land on bank (lane * word_stride) % 32, and the conflict degree
    // for a power-of-two bank count is gcd(word_stride, 32) when the
    // stride is word aligned.
    const std::int64_t stride = warp_stride < 0 ? -warp_stride : warp_stride;
    const std::int64_t word_stride =
        std::max<std::int64_t>(1, stride * elem_bytes / kSmemBankBytes);
    const std::int64_t degree = std::gcd(word_stride,
                                         static_cast<std::int64_t>(kSmemBanks));
    return static_cast<int>(degree);
}

bool sameMapping(const OpAccess &a, const OpAccess &b)
{
    return a.index == b.index && a.guard == b.guard;
}

bool rangesOverlap(const OpAccess &a, const OpAccess &b)
{
    if (a.buffer != b.buffer) {
        return false;
    }
    const std::int64_t a_lo = a.index.minIndex();
    const std::int64_t a_hi = a.effectiveMax();
    const std::int64_t b_lo = b.index.minIndex();
    const std::int64_t b_hi = b.effectiveMax();
    if (a_hi < a_lo || b_hi < b_lo) {
        return false;
    }
    return a_lo <= b_hi && b_lo <= a_hi;
}

// ---------------------------------------------------------------------
// Shape-parametric extensions
// ---------------------------------------------------------------------

std::string ShapeDim::toString() const
{
    std::ostringstream out;
    out << name << "=" << value << " in [" << lo << "," << hi << "]";
    if (divisor > 1) {
        out << "/" << divisor;
    }
    return out.str();
}

LinExpr LinExpr::constant(std::int64_t c)
{
    LinExpr e;
    e.c0 = c;
    return e;
}

LinExpr LinExpr::dim(int dim_index, std::int64_t coeff, std::int64_t c0)
{
    LinExpr e;
    e.c0 = c0;
    if (coeff != 0) {
        e.terms.emplace_back(dim_index, coeff);
    }
    return e;
}

std::int64_t LinExpr::evalAt(const std::vector<std::int64_t> &values) const
{
    std::int64_t v = c0;
    for (const auto &[dim_index, coeff] : terms) {
        panicIf(dim_index < 0 ||
                    dim_index >= static_cast<int>(values.size()),
                "LinExpr::evalAt: dim index ", dim_index,
                " outside the bound value vector");
        v += coeff * values[static_cast<std::size_t>(dim_index)];
    }
    return v;
}

std::int64_t LinExpr::atCompilePoint(const std::vector<ShapeDim> &dims) const
{
    std::int64_t v = c0;
    for (const auto &[dim_index, coeff] : terms) {
        panicIf(dim_index < 0 || dim_index >= static_cast<int>(dims.size()),
                "LinExpr::atCompilePoint: dim index ", dim_index,
                " outside the declared dims");
        v += coeff * dims[static_cast<std::size_t>(dim_index)].value;
    }
    return v;
}

SymInterval LinExpr::interval(const std::vector<ShapeDim> &dims) const
{
    SymInterval range{c0, c0};
    for (const auto &[dim_index, coeff] : terms) {
        panicIf(dim_index < 0 || dim_index >= static_cast<int>(dims.size()),
                "LinExpr::interval: dim index ", dim_index,
                " outside the declared dims");
        const ShapeDim &d = dims[static_cast<std::size_t>(dim_index)];
        if (coeff >= 0) {
            range.lo += coeff * d.lo;
            range.hi += coeff * d.hi;
        } else {
            range.lo += coeff * d.hi;
            range.hi += coeff * d.lo;
        }
    }
    return range;
}

std::int64_t LinExpr::divisibility(const std::vector<ShapeDim> &dims) const
{
    std::int64_t g = c0 < 0 ? -c0 : c0;
    for (const auto &[dim_index, coeff] : terms) {
        panicIf(dim_index < 0 || dim_index >= static_cast<int>(dims.size()),
                "LinExpr::divisibility: dim index ", dim_index,
                " outside the declared dims");
        const ShapeDim &d = dims[static_cast<std::size_t>(dim_index)];
        const std::int64_t step = coeff * std::max<std::int64_t>(1, d.divisor);
        g = std::gcd(g, step < 0 ? -step : step);
    }
    return g;
}

std::string LinExpr::toString(const std::vector<ShapeDim> &dims) const
{
    std::ostringstream out;
    bool first = true;
    for (const auto &[dim_index, coeff] : terms) {
        const std::string name =
            dim_index >= 0 && dim_index < static_cast<int>(dims.size())
                ? dims[static_cast<std::size_t>(dim_index)].name
                : "d?";
        if (!first) {
            out << " + ";
        }
        if (coeff != 1) {
            out << coeff << "*";
        }
        out << name;
        first = false;
    }
    if (c0 != 0 || first) {
        if (!first) {
            out << " + ";
        }
        out << c0;
    }
    return out.str();
}

std::string SymbolicAccess::toString(const std::vector<ShapeDim> &dims) const
{
    std::ostringstream out;
    out << "access#" << access_index << " extent=" << extent.toString(dims)
        << " offset=" << offset.toString(dims);
    if (value_extent != extent) {
        out << " value=" << value_extent.toString(dims);
    }
    return out.str();
}

bool ShapeCertificate::covers(const std::vector<std::int64_t> &values) const
{
    if (verdict != Verdict::Proven ||
        values.size() != dims.size()) {
        return false;
    }
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (!dims[i].admits(values[i])) {
            return false;
        }
    }
    return true;
}

std::string ShapeCertificate::toString() const
{
    std::ostringstream out;
    out << "certificate " << certificateVerdictName(verdict);
    if (!dims.empty()) {
        out << " over {";
        for (std::size_t i = 0; i < dims.size(); ++i) {
            out << (i ? ", " : "") << dims[i].toString();
        }
        out << "}";
    }
    out << " (" << obligations_proven << " obligation(s) proven";
    if (obligations_fallback > 0) {
        out << ", " << obligations_fallback << " fallback";
    }
    out << ")";
    for (const std::string &a : assumptions) {
        out << "\nassumes: " << a;
    }
    return out.str();
}

std::string certificateVerdictName(ShapeCertificate::Verdict verdict)
{
    switch (verdict) {
    case ShapeCertificate::Verdict::None: return "none";
    case ShapeCertificate::Verdict::Proven: return "proven";
    case ShapeCertificate::Verdict::Fallback: return "fallback";
    case ShapeCertificate::Verdict::Refuted: return "refuted";
    }
    return "?";
}

} // namespace astitch
