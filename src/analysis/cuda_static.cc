#include "analysis/cuda_static.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "analysis/access_model.h"
#include "analysis/cuda_lexer.h"
#include "support/strings.h"

namespace astitch {

namespace {

// =====================================================================
// Parser: the emitted C-like subset -> structured statements.
// =====================================================================

/** One parsed statement (arena-indexed tree per function). */
struct CudaStmt
{
    enum class Kind { Block, If, For, While, Simple };

    Kind kind = Kind::Simple;
    int line = 0;

    std::vector<CudaToken> cond;   ///< if/while condition, for condition
    std::vector<CudaToken> init;   ///< for initializer
    std::vector<CudaToken> step;   ///< for step expression
    std::vector<CudaToken> tokens; ///< Simple statement tokens (no ';')

    /** Block: the statements; If: {then[, else]}; For/While: {body}. */
    std::vector<int> children;
    bool has_else = false;
};

/** One declared function parameter. */
struct CudaParam
{
    std::string name;
    std::string base_type;
    bool is_pointer = false;
    bool is_const = false;
    bool is_volatile = false;
};

/** One parsed function definition. */
struct CudaFunction
{
    std::string name;
    bool is_global = false;
    bool is_device = false;
    std::int64_t launch_bounds_block = -1;
    std::int64_t launch_bounds_min = -1;
    std::vector<CudaParam> params;
    int body = -1; ///< index of the Block statement, -1 = no body
    std::vector<CudaStmt> stmts;
};

/** Parse result for one translation unit. */
struct CudaProgram
{
    std::vector<CudaFunction> functions;
    bool ok = true;
    std::string error;
};

class Parser
{
  public:
    explicit Parser(std::vector<CudaToken> tokens)
        : toks_(std::move(tokens))
    {
    }

    CudaProgram
    parse()
    {
        CudaProgram prog;
        while (!atEnd()) {
            const std::size_t before = pos_;
            if (!parseFunction(prog)) {
                if (!prog.ok)
                    break;
                // Not a function start here; skip one token. The
                // emitted subset has only function definitions at the
                // top level, so this path only swallows stray tokens
                // of text the analyzer has no opinion about.
                pos_ = before + 1;
            }
        }
        return prog;
    }

  private:
    const CudaToken &cur() const { return toks_[pos_]; }

    const CudaToken &
    peek(std::size_t ahead = 1) const
    {
        const std::size_t p = pos_ + ahead;
        return toks_[std::min(p, toks_.size() - 1)];
    }

    bool atEnd() const { return cur().kind == CudaTokenKind::End; }

    void advance() { pos_ = std::min(pos_ + 1, toks_.size() - 1); }

    bool
    fail(CudaProgram &prog, const std::string &what)
    {
        prog.ok = false;
        prog.error = strCat(what, " at line ", cur().line);
        return false;
    }

    /** Try to parse one function definition at the cursor. */
    bool
    parseFunction(CudaProgram &prog)
    {
        const std::size_t start = pos_;
        CudaFunction fn;

        // Declaration specifiers up to the function name. The name is
        // recognized as an identifier directly followed by '(' that is
        // not one of the paren-taking specifiers.
        bool found_name = false;
        while (!atEnd()) {
            if (cur().is("extern")) {
                advance();
                if (cur().kind == CudaTokenKind::String)
                    advance();
                continue;
            }
            if (cur().is("__global__")) {
                fn.is_global = true;
                advance();
                continue;
            }
            if (cur().is("__device__")) {
                fn.is_device = true;
                advance();
                continue;
            }
            if (cur().is("__launch_bounds__")) {
                advance();
                if (!cur().is("(")) {
                    pos_ = start;
                    return false;
                }
                advance();
                int depth = 1;
                std::vector<std::int64_t> args;
                while (!atEnd() && depth > 0) {
                    if (cur().is("("))
                        ++depth;
                    else if (cur().is(")"))
                        --depth;
                    else if (cur().kind == CudaTokenKind::Number &&
                             cur().is_integer)
                        args.push_back(cur().value);
                    advance();
                }
                if (!args.empty())
                    fn.launch_bounds_block = args[0];
                if (args.size() > 1)
                    fn.launch_bounds_min = args[1];
                continue;
            }
            if (cur().kind == CudaTokenKind::Identifier &&
                peek().is("(")) {
                fn.name = cur().text;
                advance();
                found_name = true;
                break;
            }
            if (cur().kind == CudaTokenKind::Identifier ||
                cur().is("*")) {
                // return-type tokens (void, float, unsigned, ...)
                advance();
                continue;
            }
            break;
        }
        if (!found_name || fn.name.empty()) {
            pos_ = start;
            return false;
        }

        advance(); // '('
        CudaParam param;
        const auto flush_param = [&] {
            // "void" alone and empty fragments are not parameters.
            if (!param.name.empty() && param.name != param.base_type)
                fn.params.push_back(param);
            param = CudaParam();
        };
        while (!atEnd() && !cur().is(")")) {
            if (cur().is(",")) {
                flush_param();
                advance();
            } else if (cur().is("*")) {
                param.is_pointer = true;
                advance();
            } else if (cur().is("const")) {
                param.is_const = true;
                advance();
            } else if (cur().is("volatile")) {
                param.is_volatile = true;
                advance();
            } else if (cur().is("__restrict__")) {
                advance();
            } else if (cur().kind == CudaTokenKind::Identifier) {
                if (param.base_type.empty())
                    param.base_type = cur().text;
                param.name = cur().text;
                advance();
            } else {
                advance();
            }
        }
        flush_param();
        if (atEnd())
            return fail(prog, "unterminated parameter list");
        advance(); // ')'

        if (cur().is(";")) {
            // Forward declaration: keep the signature, no body.
            advance();
            prog.functions.push_back(std::move(fn));
            return true;
        }
        if (!cur().is("{")) {
            pos_ = start;
            return false;
        }
        fn.body = parseStmt(prog, fn);
        if (fn.body < 0)
            return false;
        prog.functions.push_back(std::move(fn));
        return true;
    }

    /** Collect tokens up to @p terminator at paren depth 0 (consumed). */
    bool
    collectUntil(CudaProgram &prog, const char *terminator,
                 std::vector<CudaToken> &out)
    {
        int depth = 0;
        while (!atEnd()) {
            if (depth == 0 && cur().is(terminator)) {
                advance();
                return true;
            }
            if (cur().is("(") || cur().is("["))
                ++depth;
            else if (cur().is(")") || cur().is("]"))
                --depth;
            out.push_back(cur());
            advance();
        }
        return fail(prog, strCat("missing '", terminator, "'"));
    }

    /** Parse one statement; returns its index in fn.stmts or -1. */
    int
    parseStmt(CudaProgram &prog, CudaFunction &fn)
    {
        CudaStmt stmt;
        stmt.line = cur().line;

        if (cur().is("{")) {
            advance();
            stmt.kind = CudaStmt::Kind::Block;
            while (!atEnd() && !cur().is("}")) {
                const int child = parseStmt(prog, fn);
                if (child < 0)
                    return -1;
                stmt.children.push_back(child);
            }
            if (atEnd()) {
                fail(prog, "unterminated block");
                return -1;
            }
            advance(); // '}'
        } else if (cur().is("if")) {
            advance();
            stmt.kind = CudaStmt::Kind::If;
            if (!cur().is("(")) {
                fail(prog, "expected '(' after if");
                return -1;
            }
            advance();
            if (!collectUntil(prog, ")", stmt.cond))
                return -1;
            const int then_child = parseStmt(prog, fn);
            if (then_child < 0)
                return -1;
            stmt.children.push_back(then_child);
            if (cur().is("else")) {
                advance();
                const int else_child = parseStmt(prog, fn);
                if (else_child < 0)
                    return -1;
                stmt.children.push_back(else_child);
                stmt.has_else = true;
            }
        } else if (cur().is("for")) {
            advance();
            stmt.kind = CudaStmt::Kind::For;
            if (!cur().is("(")) {
                fail(prog, "expected '(' after for");
                return -1;
            }
            advance();
            if (!collectUntil(prog, ";", stmt.init) ||
                !collectUntil(prog, ";", stmt.cond) ||
                !collectUntil(prog, ")", stmt.step))
                return -1;
            const int body = parseStmt(prog, fn);
            if (body < 0)
                return -1;
            stmt.children.push_back(body);
        } else if (cur().is("while")) {
            advance();
            stmt.kind = CudaStmt::Kind::While;
            if (!cur().is("(")) {
                fail(prog, "expected '(' after while");
                return -1;
            }
            advance();
            if (!collectUntil(prog, ")", stmt.cond))
                return -1;
            const int body = parseStmt(prog, fn);
            if (body < 0)
                return -1;
            stmt.children.push_back(body);
        } else if (cur().is(";")) {
            advance();
            stmt.kind = CudaStmt::Kind::Simple;
        } else {
            stmt.kind = CudaStmt::Kind::Simple;
            if (!collectUntil(prog, ";", stmt.tokens))
                return -1;
        }

        fn.stmts.push_back(std::move(stmt));
        return static_cast<int>(fn.stmts.size()) - 1;
    }

    std::vector<CudaToken> toks_;
    std::size_t pos_ = 0;
};

// =====================================================================
// Divergence lattice and expression classification.
// =====================================================================

/** Uniform < BlockVarying < ThreadVarying; join is max. */
enum Div : int {
    kUniform = 0,
    kBlockVarying = 1,
    kThreadVarying = 2,
};

const char *
divName(int d)
{
    switch (d) {
      case kUniform:
        return "uniform";
      case kBlockVarying:
        return "block-divergent";
      default:
        return "thread-divergent";
    }
}

using DivEnv = std::map<std::string, int>;

int
identifierDiv(const std::string &name, const DivEnv &env)
{
    if (name == "threadIdx")
        return kThreadVarying;
    if (name == "blockIdx")
        return kBlockVarying;
    if (name == "gridDim" || name == "blockDim")
        return kUniform;
    const auto it = env.find(name);
    return it == env.end() ? kUniform : it->second;
}

/** Join of all identifiers in @p tokens (field names after '.' skip). */
int
exprDiv(const std::vector<CudaToken> &tokens, const DivEnv &env)
{
    int div = kUniform;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != CudaTokenKind::Identifier)
            continue;
        if (i > 0 && tokens[i - 1].is("."))
            continue;
        div = std::max(div, identifierDiv(tokens[i].text, env));
    }
    return div;
}

/**
 * Fold declarations/assignments in one statement's tokens into the
 * environment: `T v = expr` and `v op= expr` join div(expr) into v.
 * Array stores (`v[...] = ...`) change no scalar binding. Handles
 * comma-separated declarator lists at paren depth 0.
 */
void
foldAssignments(const std::vector<CudaToken> &tokens, DivEnv &env)
{
    // Split into declarator segments at depth-0 commas.
    std::vector<std::pair<std::size_t, std::size_t>> segments;
    std::size_t seg_start = 0;
    int depth = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].is("(") || tokens[i].is("["))
            ++depth;
        else if (tokens[i].is(")") || tokens[i].is("]"))
            --depth;
        else if (depth == 0 && tokens[i].is(",")) {
            segments.emplace_back(seg_start, i);
            seg_start = i + 1;
        }
    }
    segments.emplace_back(seg_start, tokens.size());

    for (const auto &seg : segments) {
        // Find the depth-0 assignment operator.
        std::size_t assign = seg.second;
        depth = 0;
        for (std::size_t i = seg.first; i < seg.second; ++i) {
            if (tokens[i].is("(") || tokens[i].is("["))
                ++depth;
            else if (tokens[i].is(")") || tokens[i].is("]"))
                --depth;
            else if (depth == 0 && tokens[i].kind == CudaTokenKind::Punct &&
                     (tokens[i].is("=") || tokens[i].is("+=") ||
                      tokens[i].is("-=") || tokens[i].is("*=") ||
                      tokens[i].is("/=") || tokens[i].is("%="))) {
                assign = i;
                break;
            }
        }
        if (assign >= seg.second)
            continue;
        // Array store? The lhs then contains '['.
        bool indexed = false;
        std::string lhs_name;
        for (std::size_t i = seg.first; i < assign; ++i) {
            if (tokens[i].is("["))
                indexed = true;
            if (tokens[i].kind == CudaTokenKind::Identifier)
                lhs_name = tokens[i].text;
        }
        if (indexed || lhs_name.empty())
            continue;
        std::vector<CudaToken> rhs(tokens.begin() + assign + 1,
                                   tokens.begin() + seg.second);
        int div = exprDiv(rhs, env);
        if (!tokens[assign].is("="))
            div = std::max(div, identifierDiv(lhs_name, env));
        int &slot = env[lhs_name];
        slot = std::max(slot, div);
    }
}

// =====================================================================
// Canonical loop classification (the emitted packing/serial loops).
// =====================================================================

struct LoopInfo
{
    enum class Seed { Literal, BlockIdx, ThreadIdx, Other };
    enum class Step { Literal, GridDim, BlockDim, Other };

    std::string var;
    Seed seed = Seed::Other;
    std::int64_t seed_value = 0;
    bool upper_bounded = false; ///< condition is `var < <literal>`
    std::int64_t bound = -1;
    Step step = Step::Other;
    std::int64_t step_value = 0;
};

/** Match `base . x` at tokens[i..]. */
bool
isDimField(const std::vector<CudaToken> &t, std::size_t i,
           const char *base)
{
    return i + 1 < t.size() && t[i].is(base) && t[i + 1].is(".");
}

LoopInfo
classifyLoop(const CudaStmt &stmt)
{
    LoopInfo info;

    // init: `T var = seed` (seed: literal | blockIdx.x | threadIdx.x)
    std::size_t assign = stmt.init.size();
    for (std::size_t i = 0; i < stmt.init.size(); ++i) {
        if (stmt.init[i].is("=")) {
            assign = i;
            break;
        }
        if (stmt.init[i].kind == CudaTokenKind::Identifier)
            info.var = stmt.init[i].text;
    }
    if (assign + 1 < stmt.init.size()) {
        const CudaToken &s = stmt.init[assign + 1];
        if (s.kind == CudaTokenKind::Number && s.is_integer) {
            info.seed = LoopInfo::Seed::Literal;
            info.seed_value = s.value;
        } else if (isDimField(stmt.init, assign + 1, "blockIdx")) {
            info.seed = LoopInfo::Seed::BlockIdx;
        } else if (isDimField(stmt.init, assign + 1, "threadIdx")) {
            info.seed = LoopInfo::Seed::ThreadIdx;
        }
    }

    // cond: `var < <integer literal>`
    if (stmt.cond.size() == 3 && stmt.cond[0].is(info.var.c_str()) &&
        stmt.cond[1].is("<") &&
        stmt.cond[2].kind == CudaTokenKind::Number &&
        stmt.cond[2].is_integer) {
        info.upper_bounded = true;
        info.bound = stmt.cond[2].value;
    }

    // step: `var += gridDim.x | blockDim.x | <literal>` or `++var`...
    for (std::size_t i = 0; i < stmt.step.size(); ++i) {
        if (!stmt.step[i].is("+="))
            continue;
        if (i + 1 < stmt.step.size()) {
            const CudaToken &s = stmt.step[i + 1];
            if (s.kind == CudaTokenKind::Number && s.is_integer) {
                info.step = LoopInfo::Step::Literal;
                info.step_value = s.value;
            } else if (isDimField(stmt.step, i + 1, "gridDim")) {
                info.step = LoopInfo::Step::GridDim;
            } else if (isDimField(stmt.step, i + 1, "blockDim")) {
                info.step = LoopInfo::Step::BlockDim;
            }
        }
        break;
    }
    if (info.step == LoopInfo::Step::Other) {
        for (const CudaToken &t : stmt.step) {
            if (t.is("++") || t.is("--")) {
                info.step = LoopInfo::Step::Literal;
                info.step_value = 1;
                break;
            }
        }
    }
    return info;
}

bool
isTaskLoop(const LoopInfo &info)
{
    return info.seed == LoopInfo::Seed::BlockIdx &&
           info.step == LoopInfo::Step::GridDim;
}

/**
 * Control-flow divergence a loop's trip count contributes to its body:
 * Uniform when every thread of the required scope executes the same
 * number of iterations under the plan's launch dims.
 */
int
loopContribution(const CudaStmt &stmt, const LoopInfo &info,
                 const DivEnv &env, std::int64_t grid, std::int64_t block)
{
    if (info.upper_bounded) {
        if (info.seed == LoopInfo::Seed::Literal &&
            info.step != LoopInfo::Step::Other) {
            return kUniform; // same trip count device-wide
        }
        if (isTaskLoop(info)) {
            return grid > 0 && info.bound % grid == 0 ? kUniform
                                                      : kBlockVarying;
        }
        if (info.seed == LoopInfo::Seed::ThreadIdx &&
            info.step == LoopInfo::Step::BlockDim) {
            return block > 0 && info.bound % block == 0 ? kUniform
                                                        : kThreadVarying;
        }
    }
    return exprDiv(stmt.cond, env);
}

/** Zero-trip loop / constant-false condition: provably dead body. */
bool
loopProvablyDead(const LoopInfo &info)
{
    return info.upper_bounded && info.seed == LoopInfo::Seed::Literal &&
           info.seed_value >= info.bound;
}

bool
condProvablyFalse(const std::vector<CudaToken> &cond)
{
    return cond.size() == 1 && cond[0].kind == CudaTokenKind::Number &&
           cond[0].is_integer && cond[0].value == 0;
}

// =====================================================================
// Barrier statement recognition.
// =====================================================================

enum class BarrierKind { None, Sync, Grid, BlockReduce };

/** Does @p tokens contain a call of @p callee? */
bool
containsCall(const std::vector<CudaToken> &tokens, const char *callee)
{
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind == CudaTokenKind::Identifier &&
            tokens[i].is(callee) && tokens[i + 1].is("(")) {
            return true;
        }
    }
    return false;
}

BarrierKind
barrierKindOf(const CudaStmt &stmt)
{
    if (stmt.kind != CudaStmt::Kind::Simple || stmt.tokens.empty())
        return BarrierKind::None;
    if (containsCall(stmt.tokens, "__syncthreads"))
        return BarrierKind::Sync;
    if (containsCall(stmt.tokens, "grid_barrier"))
        return BarrierKind::Grid;
    if (containsCall(stmt.tokens, "blockReduce"))
        return BarrierKind::BlockReduce;
    return BarrierKind::None;
}

bool
subtreeHasBarrier(const CudaFunction &fn, int idx)
{
    const CudaStmt &stmt = fn.stmts[idx];
    if (barrierKindOf(stmt) != BarrierKind::None)
        return true;
    for (int child : stmt.children) {
        if (subtreeHasBarrier(fn, child))
            return true;
    }
    return false;
}

// =====================================================================
// Divergence walk (AS901 / AS902).
// =====================================================================

struct DivergenceWalk
{
    const CudaFunction &fn;
    const KernelPlan &plan;
    DiagnosticEngine &engine;
    std::int64_t grid;
    std::int64_t block;
    DivEnv env;

    void
    deadBarrier(int idx)
    {
        const CudaStmt &stmt = fn.stmts[idx];
        if (barrierKindOf(stmt) != BarrierKind::None) {
            engine.report(
                "AS902", plan.name,
                strCat("line ", stmt.line, ": barrier inside provably "
                       "dead control flow never executes; the schedule "
                       "it implements cannot be realized"));
        }
        for (int child : stmt.children)
            deadBarrier(child);
    }

    void
    walk(int idx, int ctx)
    {
        const CudaStmt &stmt = fn.stmts[idx];
        switch (stmt.kind) {
          case CudaStmt::Kind::Block:
            for (int child : stmt.children)
                walk(child, ctx);
            break;
          case CudaStmt::Kind::Simple: {
            const BarrierKind kind = barrierKindOf(stmt);
            if ((kind == BarrierKind::Sync ||
                 kind == BarrierKind::BlockReduce) &&
                ctx >= kThreadVarying) {
                engine.report(
                    "AS901", plan.name,
                    strCat("line ", stmt.line, ": ",
                           kind == BarrierKind::Sync
                               ? "__syncthreads()"
                               : "blockReduce() (contains "
                                 "__syncthreads)",
                           " reachable under ", divName(ctx),
                           " control flow: threads of one block may "
                           "disagree on reaching the barrier"));
            } else if (kind == BarrierKind::Grid && ctx >= kBlockVarying) {
                engine.report(
                    "AS901", plan.name,
                    strCat("line ", stmt.line, ": grid_barrier() "
                           "reachable under ", divName(ctx),
                           " control flow: blocks may disagree on the "
                           "barrier trip count and deadlock the "
                           "inter-block barrier"));
            }
            foldAssignments(stmt.tokens, env);
            break;
          }
          case CudaStmt::Kind::If: {
            if (condProvablyFalse(stmt.cond)) {
                deadBarrier(stmt.children[0]);
                if (stmt.has_else)
                    walk(stmt.children[1], ctx);
                break;
            }
            const int child_ctx =
                std::max(ctx, exprDiv(stmt.cond, env));
            walk(stmt.children[0], child_ctx);
            if (stmt.has_else)
                walk(stmt.children[1], child_ctx);
            break;
          }
          case CudaStmt::Kind::For: {
            foldAssignments(stmt.init, env);
            const LoopInfo info = classifyLoop(stmt);
            if (loopProvablyDead(info)) {
                deadBarrier(stmt.children[0]);
                break;
            }
            const int child_ctx = std::max(
                ctx, loopContribution(stmt, info, env, grid, block));
            walk(stmt.children[0], child_ctx);
            foldAssignments(stmt.step, env);
            break;
          }
          case CudaStmt::Kind::While: {
            if (condProvablyFalse(stmt.cond)) {
                deadBarrier(stmt.children[0]);
                break;
            }
            const int child_ctx =
                std::max(ctx, exprDiv(stmt.cond, env));
            walk(stmt.children[0], child_ctx);
            break;
          }
        }
    }
};

// =====================================================================
// Statement-level CFG (AS922 path analysis).
// =====================================================================

struct CfgNode
{
    int stmt = -1; ///< -1 for the synthetic entry/exit nodes
    bool barrier = false;
    bool smem_write = false;
    std::string buffer;
    int line = 0;
    std::vector<int> succs;
};

struct Cfg
{
    std::vector<CfgNode> nodes;
    int entry = -1;
    int exit = -1;
};

bool
isSmemName(const std::string &name)
{
    return name == "smem" ||
           (name.size() > 5 &&
            name.compare(name.size() - 5, 5, "_smem") == 0);
}

/** `NAME[ ... ] = ...` at statement head, NAME an smem buffer. */
bool
isSmemStore(const CudaStmt &stmt, std::string *buffer)
{
    const std::vector<CudaToken> &t = stmt.tokens;
    if (t.size() < 4 || t[0].kind != CudaTokenKind::Identifier ||
        !t[1].is("[") || !isSmemName(t[0].text)) {
        return false;
    }
    int depth = 0;
    for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[i].is("[") || t[i].is("("))
            ++depth;
        else if (t[i].is("]") || t[i].is(")"))
            --depth;
        else if (depth == 0 && t[i].is("=")) {
            *buffer = t[0].text;
            return true;
        }
    }
    return false;
}

struct CfgBuilder
{
    const CudaFunction &fn;
    Cfg cfg;

    int
    addNode(int stmt_idx)
    {
        CfgNode node;
        node.stmt = stmt_idx;
        if (stmt_idx >= 0) {
            const CudaStmt &stmt = fn.stmts[stmt_idx];
            node.line = stmt.line;
            node.barrier = barrierKindOf(stmt) != BarrierKind::None;
            if (!node.barrier && stmt.kind == CudaStmt::Kind::Simple)
                node.smem_write = isSmemStore(stmt, &node.buffer);
        }
        cfg.nodes.push_back(std::move(node));
        return static_cast<int>(cfg.nodes.size()) - 1;
    }

    void
    connect(const std::vector<int> &preds, int node)
    {
        for (int p : preds)
            cfg.nodes[p].succs.push_back(node);
    }

    std::vector<int>
    build(int stmt_idx, std::vector<int> preds)
    {
        const CudaStmt &stmt = fn.stmts[stmt_idx];
        switch (stmt.kind) {
          case CudaStmt::Kind::Block: {
            for (int child : stmt.children)
                preds = build(child, std::move(preds));
            return preds;
          }
          case CudaStmt::Kind::Simple: {
            const int node = addNode(stmt_idx);
            connect(preds, node);
            return {node};
          }
          case CudaStmt::Kind::If: {
            const int cond = addNode(stmt_idx);
            connect(preds, cond);
            std::vector<int> exits = build(stmt.children[0], {cond});
            if (stmt.has_else) {
                std::vector<int> other =
                    build(stmt.children[1], {cond});
                exits.insert(exits.end(), other.begin(), other.end());
            } else {
                exits.push_back(cond);
            }
            return exits;
          }
          case CudaStmt::Kind::For:
          case CudaStmt::Kind::While: {
            const int cond = addNode(stmt_idx);
            connect(preds, cond);
            const std::vector<int> body_exits =
                build(stmt.children[0], {cond});
            connect(body_exits, cond); // back edge
            return {cond};
          }
        }
        return preds;
    }
};

Cfg
buildCfg(const CudaFunction &fn)
{
    CfgBuilder builder{fn, Cfg()};
    builder.cfg.entry = builder.addNode(-1);
    std::vector<int> exits = {builder.cfg.entry};
    if (fn.body >= 0)
        exits = builder.build(fn.body, exits);
    builder.cfg.exit = builder.addNode(-1);
    builder.connect(exits, builder.cfg.exit);
    return builder.cfg;
}

/** Path from @p from to exit that crosses no barrier node? */
bool
exitReachableWithoutBarrier(const Cfg &cfg, int from)
{
    std::vector<char> seen(cfg.nodes.size(), 0);
    std::vector<int> stack(cfg.nodes[from].succs.begin(),
                           cfg.nodes[from].succs.end());
    while (!stack.empty()) {
        const int n = stack.back();
        stack.pop_back();
        if (seen[n])
            continue;
        seen[n] = 1;
        if (cfg.nodes[n].barrier)
            continue; // barrier orders the write; path blocked
        if (n == cfg.exit)
            return true;
        for (int s : cfg.nodes[n].succs)
            stack.push_back(s);
    }
    return false;
}

// =====================================================================
// Cross-check helpers.
// =====================================================================

/** The emitter's identifier mangling, re-derived independently. */
std::string
emittedValueName(const Graph &graph, NodeId id)
{
    std::string name = graph.node(id).name();
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return "v_" + name;
}

const CudaFunction *
findFunction(const CudaProgram &prog, const char *name)
{
    for (const CudaFunction &fn : prog.functions) {
        if (fn.name == name && fn.body >= 0)
            return &fn;
    }
    return nullptr;
}

const CudaFunction *
findKernel(const CudaProgram &prog)
{
    for (const CudaFunction &fn : prog.functions) {
        if (fn.is_global && fn.body >= 0)
            return &fn;
    }
    return nullptr;
}

/** Visit every Simple statement of @p fn in program order. */
template <typename Fn>
void
forEachSimple(const CudaFunction &fn, int idx, Fn &&visit)
{
    const CudaStmt &stmt = fn.stmts[idx];
    if (stmt.kind == CudaStmt::Kind::Simple)
        visit(stmt);
    for (int child : stmt.children)
        forEachSimple(fn, child, visit);
}

template <typename Fn>
void
forEachStmt(const CudaFunction &fn, int idx, Fn &&visit)
{
    const CudaStmt &stmt = fn.stmts[idx];
    visit(stmt);
    for (int child : stmt.children)
        forEachStmt(fn, child, visit);
}

/** `__shared__ float smem[N]` declared words, or -1 when absent. */
std::int64_t
declaredArenaWords(const CudaFunction &kernel)
{
    std::int64_t words = -1;
    forEachSimple(kernel, kernel.body, [&](const CudaStmt &stmt) {
        const std::vector<CudaToken> &t = stmt.tokens;
        if (t.size() >= 6 && t[0].is("__shared__") && t[2].is("smem") &&
            t[3].is("[") && t[4].kind == CudaTokenKind::Number &&
            t[4].is_integer) {
            words = t[4].value;
        }
    });
    return words;
}

/** `float *NAME = smem + K;` regional-buffer aliases, NAME -> K words. */
std::map<std::string, std::int64_t>
arenaAliases(const CudaFunction &kernel)
{
    std::map<std::string, std::int64_t> aliases;
    forEachSimple(kernel, kernel.body, [&](const CudaStmt &stmt) {
        const std::vector<CudaToken> &t = stmt.tokens;
        if (t.size() < 5 || !t[0].is("float") || !t[1].is("*") ||
            t[2].kind != CudaTokenKind::Identifier || !t[3].is("=") ||
            !t[4].is("smem")) {
            return;
        }
        std::int64_t offset = 0;
        if (t.size() >= 7 && t[5].is("+") &&
            t[6].kind == CudaTokenKind::Number && t[6].is_integer) {
            offset = t[6].value;
        }
        aliases[t[2].text] = offset;
    });
    return aliases;
}

/** Indexed buffer uses in the kernel text: name -> saw read / write. */
struct TextAccesses
{
    std::set<std::string> reads;
    std::set<std::string> writes;
};

TextAccesses
collectTextAccesses(const CudaFunction &kernel)
{
    TextAccesses out;
    forEachStmt(kernel, kernel.body, [&](const CudaStmt &stmt) {
        const auto scan = [&](const std::vector<CudaToken> &t,
                              bool statement) {
            // A head-position `NAME[...] = ...` is a write to NAME;
            // every other `NAME[` is a read. atomicAdd(&NAME[...],..)
            // counts as a write.
            std::size_t write_head = t.size();
            if (statement && t.size() >= 2 &&
                t[0].kind == CudaTokenKind::Identifier && t[1].is("[")) {
                int depth = 0;
                for (std::size_t i = 1; i < t.size(); ++i) {
                    if (t[i].is("[") || t[i].is("("))
                        ++depth;
                    else if (t[i].is("]") || t[i].is(")"))
                        --depth;
                    else if (depth == 0 && t[i].is("=")) {
                        write_head = 0;
                        break;
                    }
                }
            }
            for (std::size_t i = 0; i + 1 < t.size(); ++i) {
                if (t[i].kind != CudaTokenKind::Identifier ||
                    !t[i + 1].is("[")) {
                    continue;
                }
                if (i == write_head) {
                    out.writes.insert(t[i].text);
                } else if (i >= 3 && t[i - 1].is("&") &&
                           t[i - 2].is("(") &&
                           t[i - 3].is("atomicAdd")) {
                    out.writes.insert(t[i].text);
                } else {
                    out.reads.insert(t[i].text);
                }
            }
        };
        scan(stmt.tokens, /*statement=*/true);
        scan(stmt.init, /*statement=*/false);
        scan(stmt.cond, /*statement=*/false);
        scan(stmt.step, /*statement=*/false);
    });
    return out;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

} // namespace

// =====================================================================
// Entry points.
// =====================================================================

bool
analyzeEmittedCudaSource(const Graph &graph, const std::string &source,
                         const KernelPlan &plan, const GpuSpec &spec,
                         DiagnosticEngine &engine)
{
    (void)spec;
    const int errors_before = engine.count(Severity::Error);

    const CudaProgram prog = Parser(lexCudaSource(source)).parse();
    const CudaFunction *kernel = findKernel(prog);
    if (!prog.ok || kernel == nullptr) {
        engine.report("AS900", plan.name,
                      !prog.ok
                          ? strCat("emitted source does not parse (",
                                   prog.error,
                                   "); nothing can be verified about it")
                          : "emitted source defines no __global__ "
                            "kernel; nothing can be verified about it");
        return false;
    }

    const std::int64_t grid = plan.launch.grid;
    const std::int64_t block = plan.launch.block;

    // ---- 1. Divergence dataflow: every function with a body. ----
    for (const CudaFunction &fn : prog.functions) {
        if (fn.body < 0)
            continue;
        DivergenceWalk walk{fn, plan, engine, grid, block, {}};
        walk.walk(fn.body, kUniform);
    }

    // ---- 2. Text-vs-plan cross-checks. ----
    // AS913: __launch_bounds__ vs the plan's block size.
    if (kernel->launch_bounds_block != plan.launch.block) {
        engine.report(
            "AS913", plan.name,
            kernel->launch_bounds_block < 0
                ? strCat("kernel has no __launch_bounds__ "
                         "annotation; the register planner's "
                         "occupancy contract (block size ",
                         plan.launch.block, ") is unenforced")
                : strCat("__launch_bounds__(",
                         kernel->launch_bounds_block,
                         ") disagrees with the plan's block size ",
                         plan.launch.block,
                         ": the register planner budgeted for a "
                         "different occupancy"));
    }

    // AS911: re-derived barrier sequence vs plan.barriers.
    int text_sync = 0;
    int text_grid = 0;
    forEachSimple(*kernel, kernel->body, [&](const CudaStmt &stmt) {
        const BarrierKind kind = barrierKindOf(stmt);
        if (kind == BarrierKind::Sync)
            ++text_sync;
        else if (kind == BarrierKind::Grid)
            ++text_grid;
    });
    int plan_sync = 0;
    int plan_grid = 0;
    for (const BarrierPoint &point : plan.barriers) {
        if (point.scope == BarrierScope::Block)
            ++plan_sync;
        else
            ++plan_grid;
    }
    if (text_sync != plan_sync) {
        engine.report(
            "AS911", plan.name,
            strCat("emitted text contains ", text_sync,
                   " __syncthreads() statement(s) but the plan "
                   "schedules ", plan_sync,
                   " block barrier(s): the rendered kernel does "
                   "not implement the plan's barrier schedule"));
    }
    if (text_grid != plan_grid) {
        engine.report(
            "AS911", plan.name,
            strCat("emitted text contains ", text_grid,
                   " grid_barrier() call(s) but the plan "
                   "schedules ", plan_grid,
                   " device barrier(s)"));
    }
    if (text_grid > 0 && findFunction(prog, "grid_barrier") == nullptr) {
        engine.report("AS911", plan.name,
                      "grid_barrier() is invoked but never "
                      "defined: the device-barrier schedule is "
                      "not implementable");
    }

    // AS912: arena declaration and slot layout.
    const std::int64_t text_words = declaredArenaWords(*kernel);
    const std::int64_t plan_words = (plan.smem_per_block + 3) / 4;
    if (plan.smem_per_block > 0 && text_words < 0) {
        engine.report(
            "AS912", plan.name,
            strCat("plan reserves ", plan.smem_per_block,
                   " B of shared arena but the text declares no "
                   "__shared__ smem[] arena"));
    } else if (plan.smem_per_block <= 0 && text_words >= 0) {
        engine.report(
            "AS912", plan.name,
            strCat("text declares a ", text_words * 4,
                   " B shared arena the plan does not account "
                   "for"));
    } else if (text_words >= 0 && text_words != plan_words) {
        engine.report(
            "AS912", plan.name,
            strCat("declared shared arena is ", text_words,
                   " words but the planner sized it ", plan_words,
                   " words (", plan.smem_per_block,
                   " B): regional buffers can overflow or "
                   "collide"));
    }
    std::map<std::string, std::pair<std::int64_t, std::int64_t>>
        expected_slots; // alias -> {offset words, size words}
    for (const SharedSlot &slot : plan.shared_slots) {
        expected_slots[emittedValueName(graph, slot.node) + "_smem"] = {
            slot.offset_bytes / 4,
            std::max<std::int64_t>(1, slot.size_bytes / 4)};
    }
    for (const auto &alias : arenaAliases(*kernel)) {
        const auto it = expected_slots.find(alias.first);
        if (it == expected_slots.end()) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.first,
                       " (smem + ", alias.second,
                       ") has no slot in the planner's arena "
                       "layout"));
            continue;
        }
        if (alias.second != it->second.first) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.first,
                       " placed at word ", alias.second,
                       " but the planner assigned word ",
                       it->second.first,
                       ": buffers alias other slots"));
        } else if (text_words >= 0 &&
                   it->second.first + it->second.second >
                       text_words) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.first, " spans [",
                       it->second.first, ", ",
                       it->second.first + it->second.second,
                       ") words, past the declared arena of ",
                       text_words, " words"));
        }
    }

    // AS914: per-buffer read/write sets vs the access summary.
    if (!plan.accesses.empty()) {
        std::map<std::string, std::string> known; // text name -> buffer
        for (const KernelInput &in : plan.inputs) {
            known[emittedValueName(graph, in.node)] =
                strCat("input:%", in.node);
        }
        for (NodeId out : plan.outputs) {
            known[emittedValueName(graph, out) + "_out"] =
                strCat("out:%", out);
        }
        for (const ScheduledOp &op : plan.ops) {
            if (op.out_space == BufferSpace::Global) {
                known[emittedValueName(graph, op.node) + "_g"] =
                    strCat("scratch:%", op.node);
            }
        }
        std::set<std::pair<std::string, AccessKind>> plan_set;
        for (const OpAccess &access : plan.accesses)
            plan_set.emplace(access.buffer, access.kind);

        const TextAccesses text = collectTextAccesses(*kernel);
        std::set<std::string> reported;
        const auto infrastructure = [&](const std::string &name) {
            return isSmemName(name) || endsWith(name, "_partial") ||
                   name == "global_scratch" ||
                   name == "barrier_state" || name == "arrive" ||
                   name == "depart";
        };
        const auto check_text = [&](const std::string &name,
                                    AccessKind kind) {
            if (infrastructure(name))
                return;
            const auto it = known.find(name);
            const char *verb =
                kind == AccessKind::Read ? "reads" : "writes";
            std::string message;
            if (it == known.end()) {
                message = strCat(
                    "emitted text ", verb, " buffer ", name,
                    " which maps to no input/output/scratch "
                    "buffer of the plan");
            } else if (!plan_set.count({it->second, kind})) {
                message = strCat(
                    "emitted text ", verb, " ", name, " (",
                    it->second,
                    ") but the plan's access summary declares "
                    "no such access");
            } else {
                return;
            }
            if (reported.insert(message).second)
                engine.report("AS914", plan.name, message);
        };
        for (const std::string &name : text.reads)
            check_text(name, AccessKind::Read);
        for (const std::string &name : text.writes)
            check_text(name, AccessKind::Write);

        // Plan -> text: every declared off-chip access of a
        // nameable buffer must appear in the text.
        std::map<std::string, std::string> names; // buffer -> name
        for (const auto &entry : known)
            names[entry.second] = entry.first;
        std::set<std::pair<std::string, AccessKind>> seen;
        for (const OpAccess &access : plan.accesses) {
            if (!seen.emplace(access.buffer, access.kind).second)
                continue;
            const auto it = names.find(access.buffer);
            if (it == names.end())
                continue; // smem / remat: not nameable in text
            const bool read = access.kind == AccessKind::Read;
            const std::set<std::string> &have =
                read ? text.reads : text.writes;
            if (!have.count(it->second)) {
                engine.report(
                    "AS914", plan.name,
                    strCat("plan declares a ",
                           accessKindName(access.kind),
                           " of ", access.buffer, " (",
                           it->second,
                           ") that never occurs in the emitted "
                           "text"));
            }
        }
    }

    // ---- 3. Emitted-idiom lints. ----
    // AS921: grid-barrier flags must be declared volatile.
    if (const CudaFunction *helper =
            findFunction(prog, "grid_barrier")) {
        for (const CudaParam &param : helper->params) {
            if (!param.is_pointer || !param.is_volatile) {
                engine.report(
                    "AS921", plan.name,
                    strCat("grid_barrier flag parameter '",
                           param.name,
                           "' is not a volatile pointer: the "
                           "spin loop can be hoisted and the "
                           "inter-block barrier never releases"));
            }
        }
    }

    // AS922: smem write with a barrier-free path to kernel exit.
    const Cfg cfg = buildCfg(*kernel);
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        const CfgNode &node = cfg.nodes[n];
        if (!node.smem_write)
            continue;
        if (exitReachableWithoutBarrier(cfg,
                                        static_cast<int>(n))) {
            engine.report(
                "AS922", plan.name,
                strCat("line ", node.line, ": write to shared "
                       "buffer ", node.buffer,
                       " can reach kernel exit without a block "
                       "barrier: consumers in other threads are "
                       "unordered against it"));
        }
    }

    // AS923: task-loop bounds must cover a scheduled extent.
    std::set<std::int64_t> accepted;
    for (const ScheduledOp &op : plan.ops) {
        if (!op.partition.known())
            continue;
        const std::int64_t extent = op.partition.launch.grid *
                                    op.partition.tasks_per_block;
        accepted.insert(extent);
        if (grid > 0)
            accepted.insert((extent + grid - 1) / grid * grid);
    }
    if (!accepted.empty()) {
        forEachStmt(*kernel, kernel->body, [&](const CudaStmt &stmt) {
            if (stmt.kind != CudaStmt::Kind::For)
                return;
            const LoopInfo info = classifyLoop(stmt);
            if (!isTaskLoop(info) || !info.upper_bounded)
                return;
            if (!accepted.count(info.bound)) {
                engine.report(
                    "AS923", plan.name,
                    strCat("line ", stmt.line,
                           ": vertical-packing task loop bound ",
                           info.bound,
                           " matches no scheduled group's task "
                           "extent (nor its grid-uniform "
                           "padding): tasks are dropped or "
                           "duplicated"));
            }
        });
    }

    return engine.count(Severity::Error) == errors_before;
}

bool
analyzeEmittedCuda(const Graph &graph, const KernelPlan &plan,
                   const GpuSpec &spec, DiagnosticEngine &engine)
{
    if (plan.cuda_source.empty())
        return true; // backend renders no source: vacuously clean
    return analyzeEmittedCudaSource(graph, plan.cuda_source, plan, spec,
                                    engine);
}

EmittedSourceSurvey
surveyEmittedCuda(const std::string &source)
{
    EmittedSourceSurvey survey;
    const CudaProgram prog = Parser(lexCudaSource(source)).parse();
    for (const CudaFunction &fn : prog.functions) {
        if (fn.body >= 0)
            ++survey.functions;
    }
    const CudaFunction *kernel = findKernel(prog);
    survey.parsed = prog.ok && kernel != nullptr;
    if (kernel == nullptr)
        return survey;
    survey.launch_bounds_block = kernel->launch_bounds_block;
    survey.arena_words = declaredArenaWords(*kernel);
    forEachStmt(*kernel, kernel->body, [&](const CudaStmt &stmt) {
        const BarrierKind kind = barrierKindOf(stmt);
        if (kind == BarrierKind::Sync)
            ++survey.sync_statements;
        else if (kind == BarrierKind::Grid)
            ++survey.grid_barrier_calls;
        if (stmt.kind == CudaStmt::Kind::For &&
            isTaskLoop(classifyLoop(stmt))) {
            ++survey.task_loops;
        }
    });
    return survey;
}

} // namespace astitch
