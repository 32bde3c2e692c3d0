/**
 * @file
 * Small string helpers shared across the library.
 */
#ifndef ASTITCH_SUPPORT_STRINGS_H
#define ASTITCH_SUPPORT_STRINGS_H

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace astitch {

/** Concatenate any streamable values into a string. */
template <typename... Args>
std::string
strCat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

namespace detail {

inline void
appendPiece(std::string &out, std::string_view text)
{
    out.append(text);
}

inline void
appendPiece(std::string &out, char c)
{
    out.push_back(c);
}

// A bool would otherwise convert to char; a stream prints it as 1/0.
template <typename Bool>
    requires std::is_same_v<Bool, bool>
void appendPiece(std::string &out, Bool value) = delete;

// Integers print exactly as a stream prints them. One-byte types take
// the char overload above, as a stream prints them as characters.
template <typename Int>
    requires std::is_integral_v<Int> && (sizeof(Int) > 1)
void
appendPiece(std::string &out, Int value)
{
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    out.append(digits, end);
}

} // namespace detail

/**
 * Append string pieces, chars and integers to @p out in place: the
 * stream-free counterpart of strCat for hot text paths. Integers go
 * through std::to_chars and match strCat's text byte for byte.
 */
template <typename... Args>
void
strAppend(std::string &out, const Args &...args)
{
    (detail::appendPiece(out, args), ...);
}

/** Join a range of streamable values with a separator. */
template <typename Range>
std::string
strJoin(const Range &range, const std::string &sep)
{
    std::ostringstream oss;
    bool first = true;
    for (const auto &item : range) {
        if (!first)
            oss << sep;
        oss << item;
        first = false;
    }
    return oss.str();
}

/** Split a string on a single-character separator (no empty trimming). */
std::vector<std::string> strSplit(const std::string &text, char sep);

/** True if @p text begins with @p prefix. */
bool strStartsWith(const std::string &text, const std::string &prefix);

/** True if @p text ends with @p suffix. */
bool strEndsWith(const std::string &text, const std::string &suffix);

/** Copy with leading/trailing ASCII whitespace removed. */
std::string strTrim(const std::string &text);

/** Render a double with fixed precision (for table output). */
std::string strFixed(double value, int digits);

/** Left-pad to a field width (for table output). */
std::string strPad(const std::string &text, std::size_t width);

} // namespace astitch

#endif // ASTITCH_SUPPORT_STRINGS_H
