// The one layout of every JSON export (BENCH_*.json, BENCH_profile.json and
// the KITE_TIMELINE, KITE_CPU and KITE_PROFILE teardown dumps), with its one
// writer and one reader (DESIGN.md §10):
//
//   {
//     "figure": "fig06",                       top-level fields, one per line
//     "params": {"rate": 1.5, "os": "Kite"},
//     "series": [                              named arrays of flat rows,
//       {"name":"goodput","value":9.41},        one compact row per line
//       {"name":"loss","value":0}
//     ],
//     "counters": []
//   }
//
// It is plain JSON, but the reader is a line scanner for exactly this shape,
// which keeps kite_inspect linked against kite_base alone. A line outside the
// shape is an error that names the line.
#ifndef SRC_BASE_ARTIFACT_H_
#define SRC_BASE_ARTIFACT_H_

#include <istream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kite {

// One document: top-level fields, then named arrays of rows, rendered in
// the order they are added.
class ArtifactWriter {
 public:
  // `json` is the value, already rendered ("12", "\"text\"", "{...}").
  void Field(const std::string& key, const std::string& json);
  // Each row is one compact JSON object.
  void Array(const std::string& name, const std::vector<std::string>& rows);
  std::string Render() const;

 private:
  std::vector<std::string> items_;
};

// Writes `content` to `path`; false on any I/O failure.
bool WriteArtifactFile(const std::string& path, const std::string& content);

// One flat JSON object as read (a row, or a document's top-level fields),
// with its fields looked up by key; a space may follow each colon.
struct ArtifactRow {
  std::string text;

  // The raw JSON text of the value of `key`; empty when absent.
  std::string_view Raw(std::string_view key) const;
  // The decoded string value of `key`; empty when absent or not a string.
  std::string Str(std::string_view key) const;
  double Num(std::string_view key, double fallback = 0) const;
  // The [[t,v],...] list that is the value of `key`, e.g. a timeline's points.
  std::vector<std::pair<double, double>> Points(std::string_view key) const;
};

struct Artifact {
  ArtifactRow top;
  std::map<std::string, std::vector<ArtifactRow>> sections;  // Array name → rows.
};

// Reads one document. On a line outside the layout it returns false and sets
// *error to "line N: ...".
bool ReadArtifact(std::istream& in, Artifact* out, std::string* error);

}  // namespace kite

#endif  // SRC_BASE_ARTIFACT_H_
