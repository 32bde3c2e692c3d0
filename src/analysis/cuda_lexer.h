/**
 * @file
 * Tokenizer for emitted CUDA C++ kernel source.
 *
 * The emitted-source static analyzer (cuda_static.h) re-derives kernel
 * structure from the *text* the CUDA emitter rendered, independently of
 * the plan metadata stitch codegen self-reports. This lexer is its
 * front end: a small, self-contained scanner over the C-like subset the
 * emitter produces. Comments and preprocessor lines are skipped — the
 * analysis must never depend on the emitter's own commentary (access
 * summaries, boundary annotations), only on executable text.
 *
 * Tokens are views: a token's spelling points into the lexed source,
 * identifiers carry a dense interned id, and the keywords and
 * punctuators the analyzer matches on are classified to a CudaSym at
 * lex time. Lexing allocates only the token array and one entry per
 * distinct identifier. The source must outlive the tokens; the deleted
 * rvalue-string overload keeps a temporary from being lexed.
 */
#ifndef ASTITCH_ANALYSIS_CUDA_LEXER_H
#define ASTITCH_ANALYSIS_CUDA_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace astitch {

/** Lexical class of one token. */
enum class CudaTokenKind : std::uint8_t {
    Identifier, ///< identifiers and keywords (if/for/while/...)
    Number,     ///< integer or floating literal
    String,     ///< quoted string literal, e.g. "C" in extern "C"
    Punct,      ///< operators and punctuation, longest-match
    End,        ///< end of input sentinel
};

/**
 * The keywords, well-known identifiers and punctuators the analyzer
 * tests for. Every other token is None; string literals are always
 * None, whatever they contain.
 */
enum class CudaSym : std::uint8_t {
    None,
    // Keywords and qualifiers.
    If, Else, For, While, Extern, Global, Device, LaunchBounds, Const,
    Volatile, Restrict, Shared, Float,
    // Identifiers with a fixed meaning in the emitted subset.
    ThreadIdx, BlockIdx, GridDim, BlockDim, SyncThreads, GridBarrier,
    BlockReduce, AtomicAdd, Smem,
    // Punctuators.
    LParen, RParen, LBracket, RBracket, LBrace, RBrace, Semi, Comma, Dot,
    Star, Amp, Less, Plus, Assign, PlusAssign, MinusAssign, StarAssign,
    SlashAssign, PercentAssign, PlusPlus, MinusMinus,
};

/** One token of emitted CUDA source. */
struct CudaToken
{
    CudaTokenKind kind = CudaTokenKind::End;
    CudaSym sym = CudaSym::None;
    bool is_integer = false; ///< Number parsed as a plain integer
    int line = 0;            ///< 1-based source line
    int ident = -1;          ///< interned id of an Identifier, else -1
    /** Source spelling; for a String, the raw text between the quotes
     * (escapes not processed). */
    std::string_view text;
    std::int64_t value = 0; ///< integer value for integer Numbers

    bool is(CudaSym s) const { return sym == s; }
};

/** A lexed source: tokens ending in one End token, and the spelling of
 * each interned identifier id (ids count up from 0 in order of first
 * appearance). Every view points into the lexed source. */
struct CudaTokenStream
{
    std::vector<CudaToken> tokens;
    std::vector<std::string_view> identifiers;
};

/**
 * Tokenize @p source, skipping whitespace, // and C-style comments and
 * preprocessor lines. Unknown bytes lex as single-character Punct
 * tokens — the lexer never fails, so the analyzer can always report
 * *something* about malformed text instead of crashing on it.
 */
CudaTokenStream lexCudaSource(std::string_view source);

/** The tokens would view a destroyed temporary. */
CudaTokenStream lexCudaSource(std::string &&source) = delete;

/** A NUL-terminated source that outlives the tokens, e.g. a literal. */
inline CudaTokenStream
lexCudaSource(const char *source)
{
    return lexCudaSource(std::string_view(source));
}

} // namespace astitch

#endif // ASTITCH_ANALYSIS_CUDA_LEXER_H
