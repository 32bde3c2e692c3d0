/**
 * @file
 * Equivalence tests of the emitted-CUDA analyzer (AS9xx) front end and
 * checks.
 *
 * Two layers:
 *  - Lexer oracle: the string-copying tokenizer the zero-copy lexer
 *    replaced lives here, not in the library. Both must produce the
 *    same token stream (kind, spelling, integer value, line) on every
 *    zoo kernel on V100/T4/A100 and on fixed-seed random printable-byte
 *    strings salted with unterminated comments and strings, exponent,
 *    hex and leading-dot literals.
 *  - Golden findings: a checksum of every rendered AS9xx finding (code,
 *    severity, kernel, message, in report order) over a fixed corpus —
 *    every zoo kernel on V100/T4/A100, the giant kernel of the 5k-node
 *    Sec 6.4.1 random graph, and fixed-seed token-level mutations of
 *    them. The checksum was recorded from the string-copying analyzer
 *    that preceded the zero-copy one; any change to a finding's text,
 *    order or presence changes it.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/cuda_lexer.h"
#include "analysis/cuda_static.h"
#include "compiler/clustering.h"
#include "core/astitch_backend.h"
#include "support/atomic_file.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workloads/common.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

/** One emitted kernel and what the analyzer needs to judge it. */
struct CorpusKernel
{
    const Graph *graph = nullptr;
    KernelPlan plan;
    GpuSpec spec;
};

/** Compile every cluster of @p graph on @p spec and keep its kernels. */
void
appendKernels(const Graph &graph, const GpuSpec &spec,
              std::vector<CorpusKernel> &out)
{
    const AStitchBackend backend;
    for (const Cluster &cluster :
         remoteStitch(graph, findMemoryIntensiveClusters(graph), 0)) {
        CompiledCluster compiled =
            backend.compileCluster(graph, cluster, spec);
        for (KernelPlan &plan : compiled.kernels) {
            if (!plan.cuda_source.empty())
                out.push_back({&graph, std::move(plan), spec});
        }
    }
}

/** Every zoo graph: the five Table-2 models and the three training
 * graphs. */
std::vector<Graph>
zooGraphs()
{
    std::vector<Graph> graphs;
    for (const workloads::WorkloadSpec &w : workloads::inferenceWorkloads())
        graphs.push_back(w.build());
    for (const workloads::WorkloadSpec &w : workloads::trainingWorkloads())
        graphs.push_back(w.build());
    return graphs;
}

// ---------------------------------------------------------------------
// Lexer oracle: one std::string per token, escapes dropped from string
// literals, integer values through std::stoll.
// ---------------------------------------------------------------------

struct OracleToken
{
    CudaTokenKind kind = CudaTokenKind::End;
    std::string text;
    std::int64_t value = 0;
    bool is_integer = false;
    int line = 0;
};

const char *const kOraclePuncts[] = {
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=",  "^=",  "::",
};

std::vector<OracleToken>
oracleLex(const std::string &source)
{
    const auto ident_start = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    const auto ident_char = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    std::vector<OracleToken> tokens;
    const std::size_t n = source.size();
    std::size_t i = 0;
    int line = 1;
    while (i < n) {
        const char c = source[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '#' || (c == '/' && i + 1 < n && source[i + 1] == '/')) {
            while (i < n && source[i] != '\n')
                ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && source[i + 1] == '*') {
            i += 2;
            while (i + 1 < n &&
                   !(source[i] == '*' && source[i + 1] == '/')) {
                if (source[i] == '\n')
                    ++line;
                ++i;
            }
            i = i + 2 <= n ? i + 2 : n;
            continue;
        }
        OracleToken tok;
        tok.line = line;
        if (c == '"') {
            tok.kind = CudaTokenKind::String;
            ++i;
            while (i < n && source[i] != '"') {
                if (source[i] == '\\' && i + 1 < n)
                    ++i;
                tok.text.push_back(source[i]);
                ++i;
            }
            if (i < n)
                ++i;
            tokens.push_back(std::move(tok));
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
            tok.kind = CudaTokenKind::Number;
            bool integer = true;
            while (i < n) {
                const char d = source[i];
                if (std::isdigit(static_cast<unsigned char>(d))) {
                    tok.text.push_back(d);
                    ++i;
                    continue;
                }
                if (d == '.' || d == 'e' || d == 'E' || d == 'x' ||
                    d == 'X' ||
                    ((d == '+' || d == '-') && !tok.text.empty() &&
                     (tok.text.back() == 'e' || tok.text.back() == 'E'))) {
                    integer = d == 'x' || d == 'X' ? integer : false;
                    tok.text.push_back(d);
                    ++i;
                    continue;
                }
                if (std::isalpha(static_cast<unsigned char>(d))) {
                    tok.text.push_back(d);
                    if (d != 'f' && d != 'F' && d != 'u' && d != 'U' &&
                        d != 'l' && d != 'L' &&
                        !(tok.text.size() > 2 &&
                          (tok.text[1] == 'x' || tok.text[1] == 'X'))) {
                        integer = false;
                    }
                    if (d == 'f' || d == 'F')
                        integer = false;
                    ++i;
                    continue;
                }
                break;
            }
            if (integer) {
                tok.is_integer = true;
                try {
                    tok.value = std::stoll(tok.text, nullptr, 0);
                } catch (...) {
                    tok.is_integer = false;
                }
            }
            tokens.push_back(std::move(tok));
            continue;
        }
        if (ident_start(c)) {
            tok.kind = CudaTokenKind::Identifier;
            while (i < n && ident_char(source[i]))
                tok.text.push_back(source[i++]);
            tokens.push_back(std::move(tok));
            continue;
        }
        tok.kind = CudaTokenKind::Punct;
        for (const char *p : kOraclePuncts) {
            const std::size_t len = std::char_traits<char>::length(p);
            if (source.compare(i, len, p) == 0) {
                tok.text = p;
                break;
            }
        }
        if (tok.text.empty())
            tok.text.assign(1, c);
        i += tok.text.size();
        tokens.push_back(std::move(tok));
    }
    OracleToken end;
    end.line = line;
    tokens.push_back(std::move(end));
    return tokens;
}

/** A string literal's spelling as the oracle keeps it: each backslash
 * dropped and the byte after it kept. */
std::string
unescaped(std::string_view raw)
{
    std::string text;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] == '\\' && i + 1 < raw.size())
            ++i;
        text.push_back(raw[i]);
    }
    return text;
}

/** Empty when the lexer matches the oracle on @p source, else the
 * first difference. Also checks the identifier ids are a dense
 * first-appearance numbering of the spellings. */
std::string
lexerMismatch(const std::string &source)
{
    const std::vector<OracleToken> want = oracleLex(source);
    const CudaTokenStream got = lexCudaSource(source);
    if (got.tokens.size() != want.size()) {
        return strCat("token count ", got.tokens.size(), " vs oracle ",
                      want.size());
    }
    int next_id = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const CudaToken &g = got.tokens[i];
        const OracleToken &w = want[i];
        const std::string spelling = g.kind == CudaTokenKind::String
                                         ? unescaped(g.text)
                                         : std::string(g.text);
        if (g.kind != w.kind || spelling != w.text ||
            g.is_integer != w.is_integer || g.value != w.value ||
            g.line != w.line) {
            return strCat("token ", i, ": '", spelling, "' line ", g.line,
                          " int ", g.is_integer, "/", g.value,
                          " vs oracle '", w.text, "' line ", w.line,
                          " int ", w.is_integer, "/", w.value);
        }
        const bool identifier = g.kind == CudaTokenKind::Identifier;
        if (identifier != (g.ident >= 0))
            return strCat("token ", i, ": ident ", g.ident);
        if (identifier) {
            if (g.ident > next_id ||
                got.identifiers.at(g.ident) != g.text)
                return strCat("token ", i, ": ident ", g.ident,
                              " is not a first-appearance id");
            next_id += g.ident == next_id;
        }
    }
    if (static_cast<std::size_t>(next_id) != got.identifiers.size())
        return "identifier table has unused ids";
    return {};
}

TEST(CudaStaticLexerOracle, ZooKernelsLexIdenticallyOnEveryDevice)
{
    const std::vector<Graph> zoo = zooGraphs();
    std::size_t checked = 0;
    for (const GpuSpec &spec :
         {GpuSpec::v100(), GpuSpec::t4(), GpuSpec::a100()}) {
        std::vector<CorpusKernel> kernels;
        for (const Graph &graph : zoo)
            appendKernels(graph, spec, kernels);
        for (const CorpusKernel &kernel : kernels) {
            const std::string mismatch =
                lexerMismatch(kernel.plan.cuda_source);
            ASSERT_TRUE(mismatch.empty())
                << kernel.plan.name << " on " << spec.name << ": "
                << mismatch;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 1023u);
}

TEST(CudaStaticLexerOracle, RandomPrintableBytesLexIdentically)
{
    // Fragments the byte soup is salted with: unterminated comment and
    // string openers, escapes, exponent/hex/leading-dot/suffixed and
    // overflowing literals, every multi-character operator.
    const std::vector<std::string> salt = {
        "/*", "*/", "//", "\"", "\\\"", "\\", "#", "\n", "1e+5f", "0x1F",
        "0x1a", "0X", "0x", ".5", "..", "...", "017", "089", "10u", "1.f",
        "99999999999999999999", "0x8000000000000000", "0xAAAAAAAAAAAAAAAAA",
        "1e-3", "3.e+",
        "<<=", ">>=", "->", "++", "--", "+=", "%=", "::", "&&", "||",
        "__syncthreads", "threadIdx", "smem", "if", "_x9",
    };
    Rng rng(0xA59E1E7ULL);
    for (int round = 0; round < 2000; ++round) {
        std::string source;
        const std::int64_t pieces = rng.uniformInt(0, 60);
        for (std::int64_t p = 0; p < pieces; ++p) {
            if (rng.bernoulli(0.3)) {
                source += salt[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(salt.size()) - 1))];
            } else {
                // Printable ASCII plus tab.
                const std::int64_t c = rng.uniformInt(31, 126);
                source.push_back(c == 31 ? '\t' : static_cast<char>(c));
            }
        }
        const std::string mismatch = lexerMismatch(source);
        ASSERT_TRUE(mismatch.empty())
            << "round " << round << " source '" << source << "': "
            << mismatch;
    }
}

// ---------------------------------------------------------------------
// Token-level mutations of emitted text.
// ---------------------------------------------------------------------

/** Offsets of every occurrence of @p needle in @p text. */
std::vector<std::size_t>
occurrences(const std::string &text, const std::string &needle)
{
    std::vector<std::size_t> at;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        at.push_back(pos);
    return at;
}

/** A seeded pick among the occurrences of @p needle; npos if none. */
std::size_t
pickOccurrence(const std::string &text, const std::string &needle, Rng &rng)
{
    const std::vector<std::size_t> at = occurrences(text, needle);
    if (at.empty())
        return std::string::npos;
    return at[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(at.size()) - 1))];
}

/** Add @p delta to the integer literal that starts right after @p pos. */
bool
bumpIntegerAt(std::string *text, std::size_t pos, std::int64_t delta)
{
    std::size_t end = pos;
    while (end < text->size() && (*text)[end] >= '0' && (*text)[end] <= '9')
        ++end;
    if (end == pos)
        return false;
    const std::int64_t value = std::stoll(text->substr(pos, end - pos));
    text->replace(pos, end - pos, std::to_string(value + delta));
    return true;
}

enum class Mutation {
    DropSync,      ///< erase one `__syncthreads();`
    WrapSync,      ///< guard one `__syncthreads();` by threadIdx.x < k
    TaskLoopBound, ///< shift one vertical-packing task-loop bound
    DropVolatile,  ///< strip one `volatile` qualifier
    ResizeArena,   ///< resize the `__shared__` arena declaration
    DeadSync,      ///< put one `__syncthreads();` under `if (0)`
    LaunchBounds,  ///< shift the `__launch_bounds__` block size
    RenameBuffer,  ///< rename one indexed use of a value buffer
    Truncate,      ///< cut the text at a seeded byte offset
};

constexpr Mutation kMutations[] = {
    Mutation::DropSync, Mutation::WrapSync, Mutation::TaskLoopBound,
    Mutation::DropVolatile, Mutation::ResizeArena, Mutation::DeadSync,
    Mutation::LaunchBounds, Mutation::RenameBuffer, Mutation::Truncate,
};

/** Apply @p kind at a seeded position; false when the text has no site. */
bool
mutate(std::string *text, Mutation kind, Rng &rng)
{
    switch (kind) {
      case Mutation::DropSync: {
        const std::string sync = "__syncthreads();";
        const std::size_t at = pickOccurrence(*text, sync, rng);
        if (at == std::string::npos)
            return false;
        text->erase(at, sync.size());
        return true;
      }
      case Mutation::WrapSync: {
        const std::string sync = "__syncthreads();";
        const std::size_t at = pickOccurrence(*text, sync, rng);
        if (at == std::string::npos)
            return false;
        text->replace(at, sync.size(),
                      strCat("if (threadIdx.x < ", rng.uniformInt(1, 64),
                             ") { __syncthreads(); }"));
        return true;
      }
      case Mutation::TaskLoopBound: {
        const std::string loop = "for (long task = blockIdx.x; task < ";
        const std::size_t at = pickOccurrence(*text, loop, rng);
        if (at == std::string::npos)
            return false;
        return bumpIntegerAt(text, at + loop.size(), rng.bernoulli(0.5) ? 1
                                                                        : -1);
      }
      case Mutation::DropVolatile: {
        const std::string qualifier = "volatile ";
        const std::size_t at = pickOccurrence(*text, qualifier, rng);
        if (at == std::string::npos)
            return false;
        text->erase(at, qualifier.size());
        return true;
      }
      case Mutation::ResizeArena: {
        const std::string arena = "__shared__ float smem[";
        const std::size_t at = pickOccurrence(*text, arena, rng);
        if (at == std::string::npos)
            return false;
        return bumpIntegerAt(text, at + arena.size(),
                             rng.uniformInt(0, 1) ? rng.uniformInt(1, 64)
                                                  : -1);
      }
      case Mutation::DeadSync: {
        const std::string sync = "__syncthreads();";
        const std::size_t at = pickOccurrence(*text, sync, rng);
        if (at == std::string::npos)
            return false;
        text->replace(at, sync.size(), "if (0) { __syncthreads(); }");
        return true;
      }
      case Mutation::LaunchBounds: {
        const std::string bounds = "__launch_bounds__(";
        const std::size_t at = pickOccurrence(*text, bounds, rng);
        if (at == std::string::npos)
            return false;
        return bumpIntegerAt(text, at + bounds.size(), 32);
      }
      case Mutation::RenameBuffer: {
        const std::size_t at = pickOccurrence(*text, "v_", rng);
        if (at == std::string::npos)
            return false;
        text->insert(at + 2, "x");
        return true;
      }
      case Mutation::Truncate: {
        if (text->empty())
            return false;
        text->resize(static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(text->size()) - 1)));
        return true;
      }
    }
    return false;
}

// ---------------------------------------------------------------------
// Golden findings checksum.
// ---------------------------------------------------------------------

/** Renders findings in report order and counts them per code. */
struct FindingsLog
{
    std::string text;
    std::map<std::string, int> per_code;
    int analyzed = 0;

    void
    analyze(const CorpusKernel &kernel, const std::string &source)
    {
        DiagnosticEngine engine;
        analyzeEmittedCudaSource(*kernel.graph, source, kernel.plan,
                                 kernel.spec, engine);
        ++analyzed;
        text += strCat("#", analyzed, "\n");
        for (const Diagnostic &d : engine.diagnostics()) {
            text += strCat(d.code, "|", severityName(d.severity), "|",
                           d.kernel, "|", d.message, "\n");
            ++per_code[d.code];
        }
    }

    std::string
    summary() const
    {
        std::string out = strCat(analyzed, " sources;");
        for (const auto &entry : per_code)
            out += strCat(" ", entry.first, "=", entry.second);
        return out;
    }
};

TEST(CudaStaticGolden, FindingsChecksumOverZooGiantAndMutations)
{
    const std::vector<Graph> zoo = zooGraphs();
    std::vector<CorpusKernel> corpus;
    for (const GpuSpec &spec :
         {GpuSpec::v100(), GpuSpec::t4(), GpuSpec::a100()}) {
        for (const Graph &graph : zoo)
            appendKernels(graph, spec, corpus);
    }
    // The giant kernel of the Sec 6.4.1 5k-node graph (seed 17).
    workloads::RandomGraphConfig random;
    random.num_nodes = 5000;
    random.seed = 17;
    const Graph giant_graph = workloads::buildRandomGraph(random);
    std::vector<CorpusKernel> giant;
    appendKernels(giant_graph, GpuSpec::v100(), giant);
    ASSERT_FALSE(giant.empty());
    std::size_t largest = 0;
    for (std::size_t i = 1; i < giant.size(); ++i) {
        if (giant[i].plan.cuda_source.size() >
            giant[largest].plan.cuda_source.size())
            largest = i;
    }
    corpus.push_back(std::move(giant[largest]));

    // Every source as emitted, then one seeded mutation of each kind
    // that has a site in it.
    Rng rng(0xA59E0001ULL);
    FindingsLog log;
    int mutated = 0;
    for (const CorpusKernel &kernel : corpus) {
        log.analyze(kernel, kernel.plan.cuda_source);
        for (const Mutation kind : kMutations) {
            std::string source = kernel.plan.cuda_source;
            if (!mutate(&source, kind, rng))
                continue;
            ++mutated;
            log.analyze(kernel, source);
        }
    }
    EXPECT_EQ(corpus.size(), 1024u);
    EXPECT_EQ(mutated, 6560);
    // Recorded from the string-copying analyzer (7584 sources; AS900=1024
    // AS901=584 AS902=493 AS911=360 AS912=920 AS913=1024 AS914=450
    // AS921=213 AS922=461 AS923=1024).
    EXPECT_EQ(checksum64(log.text), 0x901de6ec8ec2c571ULL) << log.summary();
}

} // namespace
} // namespace astitch
