// Small string utilities (libstdc++ 12 lacks std::format, so we provide a
// printf-style StrFormat plus path/split helpers used by the xenstore, and
// the one JSON string escaper every exporter shares).
#ifndef SRC_BASE_STRINGS_H_
#define SRC_BASE_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kite {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Splits on a separator character; empty tokens are dropped
// ("/a//b/" -> {"a","b"}), which matches xenstore path semantics.
std::vector<std::string> SplitPath(std::string_view path, char sep = '/');

bool HasPrefix(std::string_view s, std::string_view prefix);

// True if `path` equals `prefix` or is a descendant of it in '/'-separated
// terms ("/a/b" is under "/a" but "/ab" is not).
bool PathIsUnder(std::string_view path, std::string_view prefix);

// Parses a non-negative decimal integer; returns -1 on malformed input or
// when the value does not fit in an int64_t.
int64_t ParseDecimal(std::string_view s);

// Compares the decimal forms of `a` and `b` in byte order ("10" < "9"),
// as std::to_string(a).compare(std::to_string(b)) would, without formatting
// either: <0, 0 or >0.
int CompareDecimalText(uint32_t a, uint32_t b);

// Escapes `s` for use inside a JSON string literal: quote, backslash, \n and
// \t get their short escapes, other control bytes become \u00XX.
std::string JsonEscape(const std::string& s);

}  // namespace kite

#endif  // SRC_BASE_STRINGS_H_
