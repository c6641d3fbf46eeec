#include "src/base/artifact.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/strings.h"

namespace kite {
namespace {

// End of the value starting at `at`: the first ',', ']' or '}' outside the
// strings, arrays and objects it opens; s.size() if there is none.
size_t ValueEnd(std::string_view s, size_t at) {
  int depth = 0;
  for (size_t i = at; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      while (++i < s.size() && s[i] != '"') {
        i += s[i] == '\\' ? 1 : 0;
      }
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (depth == 0 && (c == ',' || c == ']' || c == '}')) {
      return i;
    } else if (c == ']' || c == '}') {
      --depth;
    }
  }
  return s.size();
}

// Decodes a JSON string literal, quotes included: the inverse of JsonEscape.
std::string Unquote(std::string_view s) {
  std::string out;
  for (size_t i = 1; i + 1 < s.size(); ++i) {
    char c = s[i];
    if (c == '\\' && i + 2 < s.size()) {
      c = s[++i];
      if (c == 'u' && i + 5 < s.size()) {
        c = static_cast<char>(std::strtol(std::string(s.substr(i + 1, 4)).c_str(), nullptr, 16));
        i += 4;
      } else if (c == 'n' || c == 't') {
        c = c == 'n' ? '\n' : '\t';
      }
    }
    out += c;
  }
  return out;
}

}  // namespace

void ArtifactWriter::Field(const std::string& key, const std::string& json) {
  items_.push_back(StrFormat("  \"%s\": %s", JsonEscape(key).c_str(), json.c_str()));
}

void ArtifactWriter::Array(const std::string& name, const std::vector<std::string>& rows) {
  std::string item = StrFormat("  \"%s\": [", JsonEscape(name).c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    item += (i == 0 ? "\n    " : ",\n    ") + rows[i];
  }
  items_.push_back(item + (rows.empty() ? "]" : "\n  ]"));
}

std::string ArtifactWriter::Render() const {
  std::string out = "{\n";
  for (size_t i = 0; i < items_.size(); ++i) {
    out += items_[i] + (i + 1 < items_.size() ? ",\n" : "\n");
  }
  return out + "}\n";
}

bool WriteArtifactFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && written == content.size();
}

bool ReadArtifact(std::istream& in, Artifact* out, std::string* error) {
  *out = Artifact{};
  enum { kStart, kTop, kRows, kDone } state = kStart;
  std::vector<ArtifactRow>* rows = nullptr;  // The open array.
  int line_no = 0;
  for (std::string line; std::getline(in, line);) {
    ++line_no;
    std::string_view s = line;
    if (s.ends_with(',')) {
      s.remove_suffix(1);
    }
    const size_t key_end = s.starts_with("  \"") ? s.find("\": ", 3) : std::string::npos;
    if (state == kStart && s == "{") {
      state = kTop;
    } else if (state == kRows && s == "  ]") {
      state = kTop;
    } else if (state == kRows && s.starts_with("    {") && s.ends_with('}')) {
      rows->push_back({std::string(s.substr(4))});
    } else if (state == kTop && s == "}") {
      state = kDone;
    } else if (state == kTop && key_end != std::string::npos && key_end + 3 < s.size()) {
      const std::string_view value = s.substr(key_end + 3);
      if (value == "[" || value == "[]") {
        rows = &out->sections[Unquote(s.substr(2, key_end - 1))];
        state = value == "[" ? kRows : kTop;
      } else {
        out->top.text.append(out->top.text.empty() ? "{" : ",").append(s.substr(2));
      }
    } else {
      *error = StrFormat("line %d: not in the artifact layout: %.60s", line_no, line.c_str());
      return false;
    }
  }
  if (state != kDone) {
    *error = StrFormat("line %d: the document ends before its closing '}'", line_no + 1);
    return false;
  }
  out->top.text += out->top.text.empty() ? "{}" : "}";
  return true;
}

std::string_view ArtifactRow::Raw(std::string_view key) const {
  const std::string needle = StrFormat("\"%.*s\":", static_cast<int>(key.size()), key.data());
  size_t at = text.find(needle);
  if (at != std::string::npos) {
    at = text.find_first_not_of(' ', at + needle.size());
  }
  if (at == std::string::npos) {
    return "";
  }
  return std::string_view(text).substr(at, ValueEnd(text, at) - at);
}

std::string ArtifactRow::Str(std::string_view key) const {
  const std::string_view v = Raw(key);
  return v.starts_with('"') ? Unquote(v) : "";
}

double ArtifactRow::Num(std::string_view key, double fallback) const {
  const std::string_view v = Raw(key);
  return v.empty() || v.front() == '"' ? fallback : std::strtod(std::string(v).c_str(), nullptr);
}

std::vector<std::pair<double, double>> ArtifactRow::Points(std::string_view key) const {
  std::vector<std::pair<double, double>> out;
  const std::string list(Raw(key));
  if (!list.starts_with('[')) {
    return out;
  }
  const char* p = list.c_str() + 1;  // Past the list's own bracket.
  while ((p = std::strchr(p, '[')) != nullptr) {
    char* end = nullptr;
    const double t = std::strtod(p + 1, &end);
    if (*end != ',') {
      break;
    }
    out.emplace_back(t, std::strtod(end + 1, &end));
    p = end;
  }
  return out;
}

}  // namespace kite
