#include "analysis/cuda_static.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <span>
#include <string_view>

#include "analysis/access_model.h"
#include "analysis/cuda_lexer.h"
#include "support/strings.h"

namespace astitch {

namespace {

// =====================================================================
// Program representation: statements over token ranges.
// =====================================================================

using Tokens = std::span<const CudaToken>;

/** Half-open index range [begin, end) into the lexed token array. */
struct TokenRange
{
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
};

enum class BarrierKind : std::uint8_t { None, Sync, Grid, BlockReduce };

/**
 * One parsed statement. A function's statements are stored in
 * pre-order, so a statement's subtree is the index range [self, end):
 * a Block's children are the consecutive subtrees after it, an If's
 * then-branch starts right after it and its else-branch (has_else)
 * where the then-branch ends, a loop's body starts right after it.
 */
struct CudaStmt
{
    enum class Kind : std::uint8_t { Block, If, For, While, Simple };

    Kind kind = Kind::Simple;
    bool has_else = false;
    BarrierKind barrier = BarrierKind::None; ///< Simple statements only
    int line = 0;
    int end = 0; ///< one past the last statement of this subtree

    TokenRange cond;   ///< if/while condition, for condition
    TokenRange init;   ///< for initializer
    TokenRange step;   ///< for step expression
    TokenRange tokens; ///< Simple statement tokens (no ';')
};

/** One declared function parameter. */
struct CudaParam
{
    std::string_view name;
    std::string_view base_type;
    bool is_pointer = false;
    bool is_const = false;
    bool is_volatile = false;
};

/** One parsed function definition. */
struct CudaFunction
{
    std::string_view name;
    bool is_global = false;
    bool is_device = false;
    std::int64_t launch_bounds_block = -1;
    std::int64_t launch_bounds_min = -1;
    std::vector<CudaParam> params;
    /** 0 (the body Block, first in stmts) or -1 for a declaration.
     * stmts holds exactly the body's subtree, in pre-order. */
    int body = -1;
    std::vector<CudaStmt> stmts;
};

/**
 * Parse result for one translation unit. Views into the lexed stream,
 * which (with the source it views) must outlive the program.
 */
struct CudaProgram
{
    Tokens tokens; ///< the whole stream, End token last
    /** Spelling of each interned identifier id. */
    std::span<const std::string_view> identifiers;
    std::vector<CudaFunction> functions;
    bool ok = true;
    std::string error;

    Tokens
    range(TokenRange r) const
    {
        return tokens.subspan(r.begin, r.end - r.begin);
    }
};

// =====================================================================
// Token tests and barrier statement recognition.
// =====================================================================

bool
opensGroup(const CudaToken &t)
{
    return t.is(CudaSym::LParen) || t.is(CudaSym::LBracket);
}

bool
closesGroup(const CudaToken &t)
{
    return t.is(CudaSym::RParen) || t.is(CudaSym::RBracket);
}

/** Does @p tokens contain a call of @p callee? */
bool
containsCall(Tokens tokens, CudaSym callee)
{
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].is(callee) && tokens[i + 1].is(CudaSym::LParen))
            return true;
    }
    return false;
}

BarrierKind
barrierKindOf(Tokens tokens)
{
    if (containsCall(tokens, CudaSym::SyncThreads))
        return BarrierKind::Sync;
    if (containsCall(tokens, CudaSym::GridBarrier))
        return BarrierKind::Grid;
    if (containsCall(tokens, CudaSym::BlockReduce))
        return BarrierKind::BlockReduce;
    return BarrierKind::None;
}

// =====================================================================
// Parser: the emitted C-like subset -> structured statements.
// =====================================================================

class Parser
{
  public:
    explicit Parser(CudaProgram &prog) : prog_(prog), toks_(prog.tokens) {}

    void
    parse()
    {
        while (!atEnd()) {
            const std::size_t before = pos_;
            if (!parseFunction()) {
                if (!prog_.ok)
                    break;
                // Not a function start here; skip one token. The
                // emitted subset has only function definitions at the
                // top level, so this path only swallows stray tokens
                // of text the analyzer has no opinion about.
                pos_ = before + 1;
            }
        }
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
    fail(const std::string &what)
    {
        prog_.ok = false;
        prog_.error = strCat(what, " at line ", cur().line);
        return false;
    }

    /** Try to parse one function definition at the cursor. */
    bool
    parseFunction()
    {
        const std::size_t start = pos_;
        CudaFunction fn;

        // Declaration specifiers up to the function name. The name is
        // recognized as an identifier directly followed by '(' that is
        // not one of the paren-taking specifiers.
        bool found_name = false;
        while (!atEnd()) {
            if (cur().is(CudaSym::Extern)) {
                advance();
                if (cur().kind == CudaTokenKind::String)
                    advance();
                continue;
            }
            if (cur().is(CudaSym::Global)) {
                fn.is_global = true;
                advance();
                continue;
            }
            if (cur().is(CudaSym::Device)) {
                fn.is_device = true;
                advance();
                continue;
            }
            if (cur().is(CudaSym::LaunchBounds)) {
                advance();
                if (!cur().is(CudaSym::LParen)) {
                    pos_ = start;
                    return false;
                }
                advance();
                int depth = 1;
                int args = 0;
                while (!atEnd() && depth > 0) {
                    if (cur().is(CudaSym::LParen)) {
                        ++depth;
                    } else if (cur().is(CudaSym::RParen)) {
                        --depth;
                    } else if (cur().kind == CudaTokenKind::Number &&
                               cur().is_integer) {
                        if (args == 0)
                            fn.launch_bounds_block = cur().value;
                        else if (args == 1)
                            fn.launch_bounds_min = cur().value;
                        ++args;
                    }
                    advance();
                }
                continue;
            }
            if (cur().kind == CudaTokenKind::Identifier &&
                peek().is(CudaSym::LParen)) {
                fn.name = cur().text;
                advance();
                found_name = true;
                break;
            }
            if (cur().kind == CudaTokenKind::Identifier ||
                cur().is(CudaSym::Star)) {
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
        while (!atEnd() && !cur().is(CudaSym::RParen)) {
            if (cur().is(CudaSym::Comma)) {
                flush_param();
            } else if (cur().is(CudaSym::Star)) {
                param.is_pointer = true;
            } else if (cur().is(CudaSym::Const)) {
                param.is_const = true;
            } else if (cur().is(CudaSym::Volatile)) {
                param.is_volatile = true;
            } else if (cur().kind == CudaTokenKind::Identifier &&
                       !cur().is(CudaSym::Restrict)) {
                if (param.base_type.empty())
                    param.base_type = cur().text;
                param.name = cur().text;
            }
            advance();
        }
        flush_param();
        if (atEnd())
            return fail("unterminated parameter list");
        advance(); // ')'

        if (cur().is(CudaSym::Semi)) {
            // Forward declaration: keep the signature, no body.
            advance();
            prog_.functions.push_back(std::move(fn));
            return true;
        }
        if (!cur().is(CudaSym::LBrace)) {
            pos_ = start;
            return false;
        }
        fn.body = parseStmt(fn);
        if (fn.body < 0)
            return false;
        prog_.functions.push_back(std::move(fn));
        return true;
    }

    /** Range of the tokens up to @p terminator at paren depth 0; the
     * terminator is consumed. */
    bool
    collectUntil(CudaSym terminator, const char *spelling, TokenRange &out)
    {
        out.begin = static_cast<std::uint32_t>(pos_);
        int depth = 0;
        while (!atEnd()) {
            if (depth == 0 && cur().is(terminator)) {
                out.end = static_cast<std::uint32_t>(pos_);
                advance();
                return true;
            }
            if (opensGroup(cur()))
                ++depth;
            else if (closesGroup(cur()))
                --depth;
            advance();
        }
        return fail(strCat("missing '", spelling, "'"));
    }

    /** `(` then the condition up to its `)`, for if/while. */
    bool
    parenCondition(const char *keyword, TokenRange &out)
    {
        if (!cur().is(CudaSym::LParen))
            return fail(strCat("expected '(' after ", keyword));
        advance();
        return collectUntil(CudaSym::RParen, ")", out);
    }

    /** Parse one statement subtree into fn.stmts; its index or -1. */
    int
    parseStmt(CudaFunction &fn)
    {
        const int idx = static_cast<int>(fn.stmts.size());
        fn.stmts.emplace_back(); // children land after it
        CudaStmt stmt;
        stmt.line = cur().line;

        if (cur().is(CudaSym::LBrace)) {
            advance();
            stmt.kind = CudaStmt::Kind::Block;
            while (!atEnd() && !cur().is(CudaSym::RBrace)) {
                if (parseStmt(fn) < 0)
                    return -1;
            }
            if (atEnd()) {
                fail("unterminated block");
                return -1;
            }
            advance(); // '}'
        } else if (cur().is(CudaSym::If)) {
            advance();
            stmt.kind = CudaStmt::Kind::If;
            if (!parenCondition("if", stmt.cond) || parseStmt(fn) < 0)
                return -1;
            if (cur().is(CudaSym::Else)) {
                advance();
                if (parseStmt(fn) < 0)
                    return -1;
                stmt.has_else = true;
            }
        } else if (cur().is(CudaSym::For)) {
            advance();
            stmt.kind = CudaStmt::Kind::For;
            if (!cur().is(CudaSym::LParen)) {
                fail("expected '(' after for");
                return -1;
            }
            advance();
            if (!collectUntil(CudaSym::Semi, ";", stmt.init) ||
                !collectUntil(CudaSym::Semi, ";", stmt.cond) ||
                !collectUntil(CudaSym::RParen, ")", stmt.step) ||
                parseStmt(fn) < 0)
                return -1;
        } else if (cur().is(CudaSym::While)) {
            advance();
            stmt.kind = CudaStmt::Kind::While;
            if (!parenCondition("while", stmt.cond) || parseStmt(fn) < 0)
                return -1;
        } else if (cur().is(CudaSym::Semi)) {
            advance();
            stmt.kind = CudaStmt::Kind::Simple;
        } else {
            stmt.kind = CudaStmt::Kind::Simple;
            if (!collectUntil(CudaSym::Semi, ";", stmt.tokens))
                return -1;
            stmt.barrier = barrierKindOf(prog_.range(stmt.tokens));
        }

        stmt.end = static_cast<int>(fn.stmts.size());
        fn.stmts[idx] = stmt;
        return idx;
    }

    CudaProgram &prog_;
    Tokens toks_;
    std::size_t pos_ = 0;
};

/** Parse @p lexed; the program views it. */
CudaProgram
parseCudaProgram(const CudaTokenStream &lexed)
{
    CudaProgram prog;
    prog.tokens = lexed.tokens;
    prog.identifiers = lexed.identifiers;
    Parser(prog).parse();
    return prog;
}

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

/** Identifier id -> join of the divergence assigned to it so far. */
using DivEnv = std::vector<int>;

int
identifierDiv(const CudaToken &id, const DivEnv &env)
{
    switch (id.sym) {
      case CudaSym::ThreadIdx:
        return kThreadVarying;
      case CudaSym::BlockIdx:
        return kBlockVarying;
      case CudaSym::GridDim:
      case CudaSym::BlockDim:
        return kUniform;
      default:
        return env[id.ident];
    }
}

/** Join of all identifiers in @p tokens (field names after '.' skip). */
int
exprDiv(Tokens tokens, const DivEnv &env)
{
    int div = kUniform;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != CudaTokenKind::Identifier)
            continue;
        if (i > 0 && tokens[i - 1].is(CudaSym::Dot))
            continue;
        div = std::max(div, identifierDiv(tokens[i], env));
    }
    return div;
}

bool
isAssignOp(const CudaToken &t)
{
    switch (t.sym) {
      case CudaSym::Assign:
      case CudaSym::PlusAssign:
      case CudaSym::MinusAssign:
      case CudaSym::StarAssign:
      case CudaSym::SlashAssign:
      case CudaSym::PercentAssign:
        return true;
      default:
        return false;
    }
}

/** Fold one declarator segment `T v = expr` / `v op= expr`. */
void
foldDeclarator(Tokens seg, DivEnv &env)
{
    // Find the depth-0 assignment operator.
    std::size_t assign = seg.size();
    int depth = 0;
    for (std::size_t i = 0; i < seg.size(); ++i) {
        if (opensGroup(seg[i])) {
            ++depth;
        } else if (closesGroup(seg[i])) {
            --depth;
        } else if (depth == 0 && isAssignOp(seg[i])) {
            assign = i;
            break;
        }
    }
    if (assign >= seg.size())
        return;
    // Array store? The lhs then contains '['.
    const CudaToken *lhs = nullptr;
    for (std::size_t i = 0; i < assign; ++i) {
        if (seg[i].is(CudaSym::LBracket))
            return;
        if (seg[i].kind == CudaTokenKind::Identifier)
            lhs = &seg[i];
    }
    if (lhs == nullptr)
        return;
    int div = exprDiv(seg.subspan(assign + 1), env);
    if (!seg[assign].is(CudaSym::Assign))
        div = std::max(div, identifierDiv(*lhs, env));
    int &slot = env[lhs->ident];
    slot = std::max(slot, div);
}

/**
 * Fold declarations/assignments in one statement's tokens into the
 * environment: `T v = expr` and `v op= expr` join div(expr) into v.
 * Array stores (`v[...] = ...`) change no scalar binding. Handles
 * comma-separated declarator lists at paren depth 0.
 */
void
foldAssignments(Tokens tokens, DivEnv &env)
{
    std::size_t seg_start = 0;
    int depth = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (opensGroup(tokens[i])) {
            ++depth;
        } else if (closesGroup(tokens[i])) {
            --depth;
        } else if (depth == 0 && tokens[i].is(CudaSym::Comma)) {
            foldDeclarator(tokens.subspan(seg_start, i - seg_start), env);
            seg_start = i + 1;
        }
    }
    foldDeclarator(tokens.subspan(seg_start), env);
}

// =====================================================================
// Canonical loop classification (the emitted packing/serial loops).
// =====================================================================

struct LoopInfo
{
    enum class Seed { Literal, BlockIdx, ThreadIdx, Other };
    enum class Step { Literal, GridDim, BlockDim, Other };

    int var = -1; ///< identifier id of the induction variable
    Seed seed = Seed::Other;
    std::int64_t seed_value = 0;
    bool upper_bounded = false; ///< condition is `var < <literal>`
    std::int64_t bound = -1;
    Step step = Step::Other;
    std::int64_t step_value = 0;
};

bool
isIntegerLiteral(const CudaToken &t)
{
    return t.kind == CudaTokenKind::Number && t.is_integer;
}

/** Match `base . x` at tokens[i..]. */
bool
isDimField(Tokens t, std::size_t i, CudaSym base)
{
    return i + 1 < t.size() && t[i].is(base) && t[i + 1].is(CudaSym::Dot);
}

LoopInfo
classifyLoop(const CudaProgram &prog, const CudaStmt &stmt)
{
    LoopInfo info;

    // init: `T var = seed` (seed: literal | blockIdx.x | threadIdx.x)
    const Tokens init = prog.range(stmt.init);
    std::size_t assign = init.size();
    for (std::size_t i = 0; i < init.size(); ++i) {
        if (init[i].is(CudaSym::Assign)) {
            assign = i;
            break;
        }
        if (init[i].kind == CudaTokenKind::Identifier)
            info.var = init[i].ident;
    }
    if (assign + 1 < init.size()) {
        const CudaToken &s = init[assign + 1];
        if (isIntegerLiteral(s)) {
            info.seed = LoopInfo::Seed::Literal;
            info.seed_value = s.value;
        } else if (isDimField(init, assign + 1, CudaSym::BlockIdx)) {
            info.seed = LoopInfo::Seed::BlockIdx;
        } else if (isDimField(init, assign + 1, CudaSym::ThreadIdx)) {
            info.seed = LoopInfo::Seed::ThreadIdx;
        }
    }

    // cond: `var < <integer literal>`
    const Tokens cond = prog.range(stmt.cond);
    if (cond.size() == 3 && info.var >= 0 && cond[0].ident == info.var &&
        cond[1].is(CudaSym::Less) && isIntegerLiteral(cond[2])) {
        info.upper_bounded = true;
        info.bound = cond[2].value;
    }

    // step: `var += gridDim.x | blockDim.x | <literal>` or `++var`...
    const Tokens step = prog.range(stmt.step);
    for (std::size_t i = 0; i < step.size(); ++i) {
        if (!step[i].is(CudaSym::PlusAssign))
            continue;
        if (i + 1 < step.size()) {
            if (isIntegerLiteral(step[i + 1])) {
                info.step = LoopInfo::Step::Literal;
                info.step_value = step[i + 1].value;
            } else if (isDimField(step, i + 1, CudaSym::GridDim)) {
                info.step = LoopInfo::Step::GridDim;
            } else if (isDimField(step, i + 1, CudaSym::BlockDim)) {
                info.step = LoopInfo::Step::BlockDim;
            }
        }
        break;
    }
    if (info.step == LoopInfo::Step::Other) {
        for (const CudaToken &t : step) {
            if (t.is(CudaSym::PlusPlus) || t.is(CudaSym::MinusMinus)) {
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
loopContribution(Tokens cond, const LoopInfo &info, const DivEnv &env,
                 std::int64_t grid, std::int64_t block)
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
    return exprDiv(cond, env);
}

/** Zero-trip loop / constant-false condition: provably dead body. */
bool
loopProvablyDead(const LoopInfo &info)
{
    return info.upper_bounded && info.seed == LoopInfo::Seed::Literal &&
           info.seed_value >= info.bound;
}

bool
condProvablyFalse(Tokens cond)
{
    return cond.size() == 1 && isIntegerLiteral(cond[0]) &&
           cond[0].value == 0;
}

// =====================================================================
// Divergence walk (AS901 / AS902).
// =====================================================================

struct DivergenceWalk
{
    const CudaProgram &prog;
    const CudaFunction &fn;
    const KernelPlan &plan;
    DiagnosticEngine &engine;
    std::int64_t grid;
    std::int64_t block;
    DivEnv &env;

    /** Report every barrier in the subtree at @p idx. */
    void
    deadBarrier(int idx)
    {
        for (int s = idx; s < fn.stmts[idx].end; ++s) {
            if (fn.stmts[s].barrier != BarrierKind::None) {
                engine.report(
                    "AS902", plan.name,
                    strCat("line ", fn.stmts[s].line,
                           ": barrier inside provably "
                           "dead control flow never executes; the schedule "
                           "it implements cannot be realized"));
            }
        }
    }

    void
    walk(int idx, int ctx)
    {
        const CudaStmt &stmt = fn.stmts[idx];
        switch (stmt.kind) {
          case CudaStmt::Kind::Block:
            for (int child = idx + 1; child < stmt.end;
                 child = fn.stmts[child].end)
                walk(child, ctx);
            break;
          case CudaStmt::Kind::Simple: {
            const BarrierKind kind = stmt.barrier;
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
            foldAssignments(prog.range(stmt.tokens), env);
            break;
          }
          case CudaStmt::Kind::If: {
            const int then_branch = idx + 1;
            const int else_branch = fn.stmts[then_branch].end;
            const Tokens cond = prog.range(stmt.cond);
            if (condProvablyFalse(cond)) {
                deadBarrier(then_branch);
                if (stmt.has_else)
                    walk(else_branch, ctx);
                break;
            }
            const int child_ctx = std::max(ctx, exprDiv(cond, env));
            walk(then_branch, child_ctx);
            if (stmt.has_else)
                walk(else_branch, child_ctx);
            break;
          }
          case CudaStmt::Kind::For: {
            foldAssignments(prog.range(stmt.init), env);
            const LoopInfo info = classifyLoop(prog, stmt);
            if (loopProvablyDead(info)) {
                deadBarrier(idx + 1);
                break;
            }
            const int child_ctx =
                std::max(ctx, loopContribution(prog.range(stmt.cond), info,
                                               env, grid, block));
            walk(idx + 1, child_ctx);
            foldAssignments(prog.range(stmt.step), env);
            break;
          }
          case CudaStmt::Kind::While: {
            const Tokens cond = prog.range(stmt.cond);
            if (condProvablyFalse(cond)) {
                deadBarrier(idx + 1);
                break;
            }
            walk(idx + 1, std::max(ctx, exprDiv(cond, env)));
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
    bool barrier = false;
    bool smem_write = false;
    std::string_view buffer; ///< the written buffer of an smem_write
    int line = 0;
};

struct Cfg
{
    std::vector<CfgNode> nodes;
    std::vector<std::pair<int, int>> edges; ///< (from, to)
    int entry = -1;
    int exit = -1;
};

bool
isSmemName(std::string_view name)
{
    return name == "smem" || (name.size() > 5 && name.ends_with("_smem"));
}

/** `NAME[ ... ] = ...` at statement head, NAME an smem buffer. */
bool
isSmemStore(Tokens t, std::string_view *buffer)
{
    if (t.size() < 4 || t[0].kind != CudaTokenKind::Identifier ||
        !t[1].is(CudaSym::LBracket) || !isSmemName(t[0].text)) {
        return false;
    }
    int depth = 0;
    for (std::size_t i = 1; i < t.size(); ++i) {
        if (opensGroup(t[i]))
            ++depth;
        else if (closesGroup(t[i]))
            --depth;
        else if (depth == 0 && t[i].is(CudaSym::Assign)) {
            *buffer = t[0].text;
            return true;
        }
    }
    return false;
}

struct CfgBuilder
{
    const CudaProgram &prog;
    const CudaFunction &fn;
    Cfg cfg;
    /** Nodes whose successor is the next statement. build() owns the
     * suffix from its mark; an if-else keeps both branches' exits. */
    std::vector<int> frontier;

    int
    addNode(int stmt_idx)
    {
        CfgNode &node = cfg.nodes.emplace_back();
        if (stmt_idx >= 0) {
            const CudaStmt &stmt = fn.stmts[stmt_idx];
            node.line = stmt.line;
            node.barrier = stmt.barrier != BarrierKind::None;
            if (!node.barrier && stmt.kind == CudaStmt::Kind::Simple)
                node.smem_write =
                    isSmemStore(prog.range(stmt.tokens), &node.buffer);
        }
        return static_cast<int>(cfg.nodes.size()) - 1;
    }

    /** Edges from the frontier suffix at @p mark to @p node, which
     * then replaces that suffix. */
    void
    advanceTo(std::size_t mark, int node)
    {
        for (std::size_t i = mark; i < frontier.size(); ++i)
            cfg.edges.emplace_back(frontier[i], node);
        frontier.resize(mark);
        frontier.push_back(node);
    }

    void
    build(int idx, std::size_t mark)
    {
        const CudaStmt &stmt = fn.stmts[idx];
        switch (stmt.kind) {
          case CudaStmt::Kind::Block:
            for (int child = idx + 1; child < stmt.end;
                 child = fn.stmts[child].end)
                build(child, mark);
            return;
          case CudaStmt::Kind::Simple:
            advanceTo(mark, addNode(idx));
            return;
          case CudaStmt::Kind::If: {
            const int cond = addNode(idx);
            advanceTo(mark, cond);
            build(idx + 1, mark);
            const std::size_t other = frontier.size();
            frontier.push_back(cond); // entry of the else (or fallthrough)
            if (stmt.has_else)
                build(fn.stmts[idx + 1].end, other);
            return;
          }
          case CudaStmt::Kind::For:
          case CudaStmt::Kind::While: {
            const int cond = addNode(idx);
            advanceTo(mark, cond);
            build(idx + 1, mark);
            advanceTo(mark, cond); // back edge
            return;
          }
        }
    }
};

Cfg
buildCfg(const CudaProgram &prog, const CudaFunction &fn)
{
    CfgBuilder builder{prog, fn, Cfg(), {}};
    builder.cfg.entry = builder.addNode(-1);
    builder.frontier.push_back(builder.cfg.entry);
    if (fn.body >= 0)
        builder.build(fn.body, 0);
    builder.cfg.exit = builder.addNode(-1);
    builder.advanceTo(0, builder.cfg.exit);
    return std::move(builder.cfg);
}

/**
 * Per node: can kernel exit be reached from it along a path whose nodes
 * (the node itself included) are all non-barrier? One reverse sweep
 * from the exit over predecessor edges that stops at barriers.
 */
std::vector<char>
barrierFreeToExit(const Cfg &cfg)
{
    const std::size_t n = cfg.nodes.size();
    std::vector<int> first(n + 1, 0); // predecessor lists, CSR
    for (const auto &[from, to] : cfg.edges)
        ++first[to + 1];
    for (std::size_t v = 0; v < n; ++v)
        first[v + 1] += first[v];
    std::vector<int> preds(cfg.edges.size());
    std::vector<int> fill(first.begin(), first.end() - 1);
    for (const auto &[from, to] : cfg.edges)
        preds[fill[to]++] = from;

    std::vector<char> reach(n, 0);
    std::vector<int> stack;
    if (!cfg.nodes[cfg.exit].barrier) {
        reach[cfg.exit] = 1;
        stack.push_back(cfg.exit);
    }
    while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        for (int i = first[v]; i < first[v + 1]; ++i) {
            const int p = preds[i];
            if (!reach[p] && !cfg.nodes[p].barrier) {
                reach[p] = 1;
                stack.push_back(p);
            }
        }
    }
    return reach;
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
findFunction(const CudaProgram &prog, std::string_view name)
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

/** `__shared__ float smem[N]` declared words, or -1 when absent. */
std::int64_t
declaredArenaWords(const CudaProgram &prog, const CudaFunction &kernel)
{
    std::int64_t words = -1;
    for (const CudaStmt &stmt : kernel.stmts) {
        const Tokens t = prog.range(stmt.tokens);
        if (t.size() >= 6 && t[0].is(CudaSym::Shared) &&
            t[2].is(CudaSym::Smem) && t[3].is(CudaSym::LBracket) &&
            isIntegerLiteral(t[4])) {
            words = t[4].value;
        }
    }
    return words;
}

/** One `float *NAME = smem + K;` regional-buffer alias. */
struct ArenaAlias
{
    std::string_view name;
    std::int64_t words = 0;
};

/** The kernel's regional-buffer aliases in name order; a name declared
 * twice keeps its last offset. */
std::vector<ArenaAlias>
arenaAliases(const CudaProgram &prog, const CudaFunction &kernel)
{
    std::vector<ArenaAlias> aliases;
    std::vector<int> slot(prog.identifiers.size(), -1); // id -> alias
    for (const CudaStmt &stmt : kernel.stmts) {
        const Tokens t = prog.range(stmt.tokens);
        if (t.size() < 5 || !t[0].is(CudaSym::Float) ||
            !t[1].is(CudaSym::Star) ||
            t[2].kind != CudaTokenKind::Identifier ||
            !t[3].is(CudaSym::Assign) || !t[4].is(CudaSym::Smem)) {
            continue;
        }
        std::int64_t offset = 0;
        if (t.size() >= 7 && t[5].is(CudaSym::Plus) &&
            isIntegerLiteral(t[6])) {
            offset = t[6].value;
        }
        int &index = slot[t[2].ident];
        if (index < 0) {
            index = static_cast<int>(aliases.size());
            aliases.push_back({t[2].text, 0});
        }
        aliases[index].words = offset;
    }
    std::sort(aliases.begin(), aliases.end(),
              [](const ArenaAlias &a, const ArenaAlias &b) {
                  return a.name < b.name;
              });
    return aliases;
}

/** Names of the buffers the kernel text indexes, each list sorted. */
struct TextAccesses
{
    std::vector<std::string_view> reads;
    std::vector<std::string_view> writes;
};

TextAccesses
collectTextAccesses(const CudaProgram &prog, const CudaFunction &kernel)
{
    enum : std::uint8_t { kRead = 1, kWrite = 2 };
    std::vector<std::uint8_t> seen(prog.identifiers.size(), 0);
    const auto scan = [&](Tokens t, bool statement) {
        // A head-position `NAME[...] = ...` is a write to NAME; every
        // other `NAME[` is a read. atomicAdd(&NAME[...],..) counts as a
        // write.
        std::size_t write_head = t.size();
        if (statement && t.size() >= 2 &&
            t[0].kind == CudaTokenKind::Identifier &&
            t[1].is(CudaSym::LBracket)) {
            int depth = 0;
            for (std::size_t i = 1; i < t.size(); ++i) {
                if (opensGroup(t[i])) {
                    ++depth;
                } else if (closesGroup(t[i])) {
                    --depth;
                } else if (depth == 0 && t[i].is(CudaSym::Assign)) {
                    write_head = 0;
                    break;
                }
            }
        }
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].kind != CudaTokenKind::Identifier ||
                !t[i + 1].is(CudaSym::LBracket)) {
                continue;
            }
            const bool write =
                i == write_head ||
                (i >= 3 && t[i - 1].is(CudaSym::Amp) &&
                 t[i - 2].is(CudaSym::LParen) &&
                 t[i - 3].is(CudaSym::AtomicAdd));
            seen[t[i].ident] |= write ? kWrite : kRead;
        }
    };
    for (const CudaStmt &stmt : kernel.stmts) {
        scan(prog.range(stmt.tokens), /*statement=*/true);
        scan(prog.range(stmt.init), /*statement=*/false);
        scan(prog.range(stmt.cond), /*statement=*/false);
        scan(prog.range(stmt.step), /*statement=*/false);
    }

    TextAccesses out;
    for (std::size_t id = 0; id < seen.size(); ++id) {
        if (seen[id] & kRead)
            out.reads.push_back(prog.identifiers[id]);
        if (seen[id] & kWrite)
            out.writes.push_back(prog.identifiers[id]);
    }
    std::sort(out.reads.begin(), out.reads.end());
    std::sort(out.writes.begin(), out.writes.end());
    return out;
}

bool
contains(const std::vector<std::string_view> &sorted, std::string_view name)
{
    return std::binary_search(sorted.begin(), sorted.end(), name);
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

    const CudaTokenStream lexed = lexCudaSource(source);
    const CudaProgram prog = parseCudaProgram(lexed);
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
    DivEnv env;
    for (const CudaFunction &fn : prog.functions) {
        if (fn.body < 0)
            continue;
        env.assign(prog.identifiers.size(), kUniform);
        DivergenceWalk walk{prog, fn, plan, engine, grid, block, env};
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
    for (const CudaStmt &stmt : kernel->stmts) {
        if (stmt.barrier == BarrierKind::Sync)
            ++text_sync;
        else if (stmt.barrier == BarrierKind::Grid)
            ++text_grid;
    }
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
    const std::int64_t text_words = declaredArenaWords(prog, *kernel);
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
    std::map<std::string, std::pair<std::int64_t, std::int64_t>, std::less<>>
        expected_slots; // alias -> {offset words, size words}
    for (const SharedSlot &slot : plan.shared_slots) {
        expected_slots[emittedValueName(graph, slot.node) + "_smem"] = {
            slot.offset_bytes / 4,
            std::max<std::int64_t>(1, slot.size_bytes / 4)};
    }
    for (const ArenaAlias &alias : arenaAliases(prog, *kernel)) {
        const auto it = expected_slots.find(alias.name);
        if (it == expected_slots.end()) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.name,
                       " (smem + ", alias.words,
                       ") has no slot in the planner's arena "
                       "layout"));
            continue;
        }
        if (alias.words != it->second.first) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.name,
                       " placed at word ", alias.words,
                       " but the planner assigned word ",
                       it->second.first,
                       ": buffers alias other slots"));
        } else if (text_words >= 0 &&
                   it->second.first + it->second.second >
                       text_words) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.name, " spans [",
                       it->second.first, ", ",
                       it->second.first + it->second.second,
                       ") words, past the declared arena of ",
                       text_words, " words"));
        }
    }

    // AS914: per-buffer read/write sets vs the access summary.
    if (!plan.accesses.empty()) {
        // text name -> buffer
        std::map<std::string, std::string, std::less<>> known;
        for (const KernelInput &in : plan.inputs) {
            known[emittedValueName(graph, in.node)] =
                "input:%" + std::to_string(in.node);
        }
        for (NodeId out : plan.outputs) {
            known[emittedValueName(graph, out) + "_out"] =
                "out:%" + std::to_string(out);
        }
        for (const ScheduledOp &op : plan.ops) {
            if (op.out_space == BufferSpace::Global) {
                known[emittedValueName(graph, op.node) + "_g"] =
                    "scratch:%" + std::to_string(op.node);
            }
        }
        std::set<std::pair<std::string_view, AccessKind>> plan_set;
        for (const OpAccess &access : plan.accesses)
            plan_set.emplace(access.buffer, access.kind);

        const TextAccesses text = collectTextAccesses(prog, *kernel);
        const auto infrastructure = [&](std::string_view name) {
            return isSmemName(name) || name.ends_with("_partial") ||
                   name == "global_scratch" ||
                   name == "barrier_state" || name == "arrive" ||
                   name == "depart";
        };
        // Each (name, kind) is checked once and its message names
        // both, so no finding repeats.
        const auto check_text = [&](std::string_view name,
                                    AccessKind kind) {
            if (infrastructure(name))
                return;
            const auto it = known.find(name);
            const char *verb =
                kind == AccessKind::Read ? "reads" : "writes";
            if (it == known.end()) {
                engine.report(
                    "AS914", plan.name,
                    strCat("emitted text ", verb, " buffer ", name,
                           " which maps to no input/output/scratch "
                           "buffer of the plan"));
            } else if (!plan_set.count({it->second, kind})) {
                engine.report(
                    "AS914", plan.name,
                    strCat("emitted text ", verb, " ", name, " (",
                           it->second,
                           ") but the plan's access summary declares "
                           "no such access"));
            }
        };
        for (std::string_view name : text.reads)
            check_text(name, AccessKind::Read);
        for (std::string_view name : text.writes)
            check_text(name, AccessKind::Write);

        // Plan -> text: every declared off-chip access of a
        // nameable buffer must appear in the text.
        std::map<std::string_view, std::string_view> names; // buffer -> name
        for (const auto &entry : known)
            names[entry.second] = entry.first;
        std::set<std::pair<std::string_view, AccessKind>> seen;
        for (const OpAccess &access : plan.accesses) {
            if (!seen.emplace(access.buffer, access.kind).second)
                continue;
            const auto it = names.find(access.buffer);
            if (it == names.end())
                continue; // smem / remat: not nameable in text
            const bool read = access.kind == AccessKind::Read;
            if (!contains(read ? text.reads : text.writes, it->second)) {
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

    // AS922: smem write with a barrier-free path to kernel exit, i.e.
    // with a successor that reaches the exit barrier-free.
    const Cfg cfg = buildCfg(prog, *kernel);
    const std::vector<char> reach = barrierFreeToExit(cfg);
    std::vector<char> unordered(cfg.nodes.size(), 0);
    for (const auto &[from, to] : cfg.edges) {
        if (cfg.nodes[from].smem_write && reach[to])
            unordered[from] = 1;
    }
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        if (!unordered[n])
            continue;
        const CfgNode &node = cfg.nodes[n];
        engine.report(
            "AS922", plan.name,
            strCat("line ", node.line, ": write to shared "
                   "buffer ", node.buffer,
                   " can reach kernel exit without a block "
                   "barrier: consumers in other threads are "
                   "unordered against it"));
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
        for (const CudaStmt &stmt : kernel->stmts) {
            if (stmt.kind != CudaStmt::Kind::For)
                continue;
            const LoopInfo info = classifyLoop(prog, stmt);
            if (!isTaskLoop(info) || !info.upper_bounded)
                continue;
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
        }
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
    const CudaTokenStream lexed = lexCudaSource(source);
    const CudaProgram prog = parseCudaProgram(lexed);
    for (const CudaFunction &fn : prog.functions) {
        if (fn.body >= 0)
            ++survey.functions;
    }
    const CudaFunction *kernel = findKernel(prog);
    survey.parsed = prog.ok && kernel != nullptr;
    if (kernel == nullptr)
        return survey;
    survey.launch_bounds_block = kernel->launch_bounds_block;
    survey.arena_words = declaredArenaWords(prog, *kernel);
    for (const CudaStmt &stmt : kernel->stmts) {
        if (stmt.barrier == BarrierKind::Sync)
            ++survey.sync_statements;
        else if (stmt.barrier == BarrierKind::Grid)
            ++survey.grid_barrier_calls;
        if (stmt.kind == CudaStmt::Kind::For &&
            isTaskLoop(classifyLoop(prog, stmt))) {
            ++survey.task_loops;
        }
    }
    return survey;
}

} // namespace astitch
