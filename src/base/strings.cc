#include "src/base/strings.h"

#include <cstdio>

namespace kite {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::vector<std::string> SplitPath(std::string_view path, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= path.size()) {
    size_t end = path.find(sep, start);
    if (end == std::string_view::npos) {
      end = path.size();
    }
    if (end > start) {
      parts.emplace_back(path.substr(start, end - start));
    }
    start = end + 1;
  }
  return parts;
}

bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool PathIsUnder(std::string_view path, std::string_view prefix) {
  if (prefix.empty() || prefix == "/") {
    return true;
  }
  // Normalize away a trailing slash on the prefix.
  if (prefix.back() == '/') {
    prefix.remove_suffix(1);
  }
  if (!HasPrefix(path, prefix)) {
    return false;
  }
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

int64_t ParseDecimal(std::string_view s) {
  if (s.empty()) {
    return -1;
  }
  int64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return -1;
    }
    const int digit = c - '0';
    if (value > (INT64_MAX - digit) / 10) {
      return -1;  // value * 10 + digit would overflow.
    }
    value = value * 10 + digit;
  }
  return value;
}

namespace {

int DecimalDigits(uint32_t v) {
  int digits = 1;
  for (; v >= 10; v /= 10) {
    ++digits;
  }
  return digits;
}

}  // namespace

int CompareDecimalText(uint32_t a, uint32_t b) {
  // With the shorter number scaled to the longer one's digit count the two
  // compare as their texts do, except that a text that is a prefix of the
  // other ("5" of "51712", "10" of "100") ties, and sorts first.
  const int a_digits = DecimalDigits(a);
  const int b_digits = DecimalDigits(b);
  uint64_t x = a;
  uint64_t y = b;
  for (int i = a_digits; i < b_digits; ++i) {
    x *= 10;
  }
  for (int i = b_digits; i < a_digits; ++i) {
    y *= 10;
  }
  if (x != y) {
    return x < y ? -1 : 1;
  }
  return a_digits - b_digits;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned char>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace kite
