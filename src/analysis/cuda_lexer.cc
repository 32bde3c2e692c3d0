#include "analysis/cuda_lexer.h"

#include <algorithm>
#include <charconv>

namespace astitch {

namespace {

// ASCII classes (the C locale's, which the emitted subset is written in).
bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isAlpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool
isIdentStart(char c)
{
    return isAlpha(c) || c == '_';
}

bool
isIdentChar(char c)
{
    return isAlpha(c) || isDigit(c) || c == '_';
}

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

struct Spelling
{
    std::string_view text;
    CudaSym sym;
};

/** Identifiers the analyzer matches on. */
constexpr Spelling kWords[] = {
    {"if", CudaSym::If},
    {"else", CudaSym::Else},
    {"for", CudaSym::For},
    {"while", CudaSym::While},
    {"extern", CudaSym::Extern},
    {"__global__", CudaSym::Global},
    {"__device__", CudaSym::Device},
    {"__launch_bounds__", CudaSym::LaunchBounds},
    {"const", CudaSym::Const},
    {"volatile", CudaSym::Volatile},
    {"__restrict__", CudaSym::Restrict},
    {"__shared__", CudaSym::Shared},
    {"float", CudaSym::Float},
    {"threadIdx", CudaSym::ThreadIdx},
    {"blockIdx", CudaSym::BlockIdx},
    {"gridDim", CudaSym::GridDim},
    {"blockDim", CudaSym::BlockDim},
    {"__syncthreads", CudaSym::SyncThreads},
    {"grid_barrier", CudaSym::GridBarrier},
    {"blockReduce", CudaSym::BlockReduce},
    {"atomicAdd", CudaSym::AtomicAdd},
    {"smem", CudaSym::Smem},
};

/** Multi-character operators the emitted subset uses, longest first. */
constexpr Spelling kMultiPuncts[] = {
    {"<<=", CudaSym::None},       {">>=", CudaSym::None},
    {"...", CudaSym::None},       {"->", CudaSym::None},
    {"++", CudaSym::PlusPlus},    {"--", CudaSym::MinusMinus},
    {"<<", CudaSym::None},        {">>", CudaSym::None},
    {"<=", CudaSym::None},        {">=", CudaSym::None},
    {"==", CudaSym::None},        {"!=", CudaSym::None},
    {"&&", CudaSym::None},        {"||", CudaSym::None},
    {"+=", CudaSym::PlusAssign},  {"-=", CudaSym::MinusAssign},
    {"*=", CudaSym::StarAssign},  {"/=", CudaSym::SlashAssign},
    {"%=", CudaSym::PercentAssign}, {"&=", CudaSym::None},
    {"|=", CudaSym::None},        {"^=", CudaSym::None},
    {"::", CudaSym::None},
};

/**
 * Identifier spelling -> dense id, in order of first appearance. Open
 * addressing with linear probing over a power-of-two table kept at most
 * half full; each slot holds an id and that spelling's hash.
 */
class Interner
{
  public:
    explicit Interner(std::vector<std::string_view> &names)
        : names_(names), slots_(256)
    {
    }

    /** The id of @p text; *fresh is set when it was not seen before. */
    int
    intern(std::string_view text, bool *fresh)
    {
        const std::uint32_t hash = fnv1a(text);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.id < 0) {
                slot = {static_cast<int>(names_.size()), hash};
                names_.push_back(text);
                *fresh = true;
                if (names_.size() * 2 > slots_.size())
                    grow();
                return static_cast<int>(names_.size()) - 1;
            }
            if (slot.hash == hash && names_[slot.id] == text) {
                *fresh = false;
                return slot.id;
            }
        }
    }

  private:
    struct Slot
    {
        int id = -1;
        std::uint32_t hash = 0;
    };

    static std::uint32_t
    fnv1a(std::string_view text)
    {
        std::uint32_t hash = 2166136261u;
        for (const char c : text) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 16777619u;
        }
        return hash;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (const Slot &slot : old) {
            if (slot.id < 0)
                continue;
            std::size_t i = slot.hash & mask;
            while (slots_[i].id >= 0)
                i = (i + 1) & mask;
            slots_[i] = slot;
        }
    }

    std::vector<std::string_view> &names_;
    std::vector<Slot> slots_;
};

/** Can @p c begin one of kMultiPuncts? */
bool
startsMultiPunct(char c)
{
    switch (c) {
      case '<': case '>': case '.': case '-': case '+': case '=':
      case '!': case '&': case '|': case '*': case '/': case '%':
      case '^': case ':':
        return true;
      default:
        return false;
    }
}

CudaSym
wordSym(std::string_view text)
{
    for (const Spelling &word : kWords) {
        if (word.text == text)
            return word.sym;
    }
    return CudaSym::None;
}

CudaSym
singlePunctSym(char c)
{
    switch (c) {
      case '(': return CudaSym::LParen;
      case ')': return CudaSym::RParen;
      case '[': return CudaSym::LBracket;
      case ']': return CudaSym::RBracket;
      case '{': return CudaSym::LBrace;
      case '}': return CudaSym::RBrace;
      case ';': return CudaSym::Semi;
      case ',': return CudaSym::Comma;
      case '.': return CudaSym::Dot;
      case '*': return CudaSym::Star;
      case '&': return CudaSym::Amp;
      case '<': return CudaSym::Less;
      case '+': return CudaSym::Plus;
      case '=': return CudaSym::Assign;
      default: return CudaSym::None;
    }
}

/**
 * The value strtoll(text, base 0) gives an integer literal's spelling
 * (a `0x` prefix reads hex, a leading 0 octal; parsing stops at the
 * first non-digit, so suffixes are ignored). False on overflow.
 */
bool
parseInteger(std::string_view text, std::int64_t *value)
{
    const char *first = text.data();
    const char *last = first + text.size();
    int base = 10;
    if (text.size() >= 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        const auto hex = std::from_chars(first + 2, last, *value, 16);
        if (hex.ec != std::errc::invalid_argument)
            return hex.ec == std::errc();
        base = 8; // "0x" without hex digits reads as the "0" before it
    } else if (text[0] == '0') {
        base = 8;
    }
    return std::from_chars(first, last, *value, base).ec == std::errc();
}

} // namespace

CudaTokenStream
lexCudaSource(std::string_view source)
{
    CudaTokenStream out;
    std::vector<CudaToken> &tokens = out.tokens;
    tokens.reserve(source.size() / 8 + 1);
    Interner ids(out.identifiers);
    std::vector<CudaSym> id_syms;

    const std::size_t n = source.size();
    std::size_t i = 0;
    int line = 1;

    const auto push = [&](CudaTokenKind kind, std::size_t start,
                          std::size_t end) -> CudaToken & {
        CudaToken &tok = tokens.emplace_back();
        tok.kind = kind;
        tok.line = line;
        tok.text = source.substr(start, end - start);
        return tok;
    };

    while (i < n) {
        const char c = source[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (isSpace(c)) {
            ++i;
            continue;
        }
        // Preprocessor line or line comment: skip to end of line (no
        // continuations in the emitted subset).
        if (c == '#' || (c == '/' && i + 1 < n && source[i + 1] == '/')) {
            i = std::min(source.find('\n', i), n);
            continue;
        }
        // Block comment. An unterminated one swallows the rest, except
        // that its last byte is not line-counted.
        if (c == '/' && i + 1 < n && source[i + 1] == '*') {
            i += 2;
            const std::size_t close = source.find("*/", i);
            const std::size_t stop =
                close != std::string_view::npos ? close
                                                : std::max(i, n - 1);
            line += static_cast<int>(
                std::count(source.begin() + i, source.begin() + stop, '\n'));
            i = close != std::string_view::npos ? close + 2 : n;
            continue;
        }
        // String literal; newlines inside it are not line-counted.
        if (c == '"') {
            const std::size_t start = ++i;
            while (i < n && source[i] != '"') {
                if (source[i] == '\\' && i + 1 < n)
                    ++i;
                ++i;
            }
            push(CudaTokenKind::String, start, i);
            if (i < n)
                ++i; // closing quote
            continue;
        }
        // Number: integer or float, optional suffix (f, u, l, ...).
        if (isDigit(c) || (c == '.' && i + 1 < n && isDigit(source[i + 1]))) {
            const std::size_t start = i;
            bool integer = true;
            while (i < n) {
                const char d = source[i];
                if (isDigit(d)) {
                    ++i;
                    continue;
                }
                if (d == '.' || d == 'e' || d == 'E' || d == 'x' ||
                    d == 'X' ||
                    ((d == '+' || d == '-') && i > start &&
                     (source[i - 1] == 'e' || source[i - 1] == 'E'))) {
                    integer = d == 'x' || d == 'X' ? integer : false;
                    ++i;
                    continue;
                }
                if (isAlpha(d)) {
                    // Suffix (f/u/l) or hex digit: an f suffix, or any
                    // other letter outside a 0x literal, makes a float.
                    const bool hex_body =
                        i - start >= 2 && (source[start + 1] == 'x' ||
                                           source[start + 1] == 'X');
                    if (d == 'f' || d == 'F' ||
                        (d != 'u' && d != 'U' && d != 'l' && d != 'L' &&
                         !hex_body))
                        integer = false;
                    ++i;
                    continue;
                }
                break;
            }
            CudaToken &tok = push(CudaTokenKind::Number, start, i);
            tok.is_integer = integer && parseInteger(tok.text, &tok.value);
            if (!tok.is_integer)
                tok.value = 0;
            continue;
        }
        // Identifier / keyword, interned on first sight.
        if (isIdentStart(c)) {
            const std::size_t start = i;
            while (i < n && isIdentChar(source[i]))
                ++i;
            CudaToken &tok = push(CudaTokenKind::Identifier, start, i);
            bool fresh = false;
            tok.ident = ids.intern(tok.text, &fresh);
            if (fresh)
                id_syms.push_back(wordSym(tok.text));
            tok.sym = id_syms[tok.ident];
            continue;
        }
        // Punctuation, longest match first.
        const Spelling *multi = nullptr;
        if (startsMultiPunct(c)) {
            const std::string_view rest = source.substr(i);
            for (const Spelling &p : kMultiPuncts) {
                if (rest.starts_with(p.text)) {
                    multi = &p;
                    break;
                }
            }
        }
        const std::size_t len = multi ? multi->text.size() : 1;
        push(CudaTokenKind::Punct, i, i + len).sym =
            multi ? multi->sym : singlePunctSym(c);
        i += len;
    }

    push(CudaTokenKind::End, n, n);
    return out;
}

} // namespace astitch
