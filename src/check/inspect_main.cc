// kite_inspect: render artifacts and diagnostic dumps as a per-domain,
// top-style terminal view.
//
//   kite_inspect BENCH_fig06_nuttcp.json      one bench result
//   kite_inspect BENCH_*.json                 several (shell glob)
//   kite_inspect /tmp/cpu.json                a KITE_TIMELINE, KITE_CPU or
//                                             KITE_PROFILE teardown dump
//   kite_inspect stall-dump.txt               summarize a DumpDiagnostics file
//
// Every JSON export shares one layout, read by the one reader in
// src/base/artifact.h, which keeps this binary dependency-free (links
// kite_base only). Sections with a view of their own (series, latency,
// stage_latency_ns, counters, timelines) render below; any other section
// prints its rows.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/base/artifact.h"
#include "src/base/strings.h"

namespace {

using kite::Artifact;
using kite::ArtifactRow;
using kite::StrFormat;

std::string HumanCount(double v) {
  if (v >= 1e9) {
    return StrFormat("%.2fG", v / 1e9);
  }
  if (v >= 1e6) {
    return StrFormat("%.2fM", v / 1e6);
  }
  if (v >= 1e4) {
    return StrFormat("%.1fk", v / 1e3);
  }
  return StrFormat("%.10g", v);
}

struct TimelineRow {
  std::string domain;
  std::string device;
  std::string name;
  std::vector<double> values;  // One per sample tick, time-ordered.
};

// An 8-level Unicode block-bar sparkline, min..max scaled. Long series are
// resampled down to `width` buckets (max within each bucket, so a one-tick
// dip or spike always survives the resample).
std::string Sparkline(const std::vector<double>& values, size_t width = 48) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty()) {
    return "";
  }
  std::vector<double> v;
  if (values.size() <= width) {
    v = values;
  } else {
    for (size_t b = 0; b < width; ++b) {
      const size_t begin = b * values.size() / width;
      const size_t end = std::max(begin + 1, (b + 1) * values.size() / width);
      double m = values[begin];
      for (size_t i = begin; i < end && i < values.size(); ++i) {
        m = std::max(m, values[i]);
      }
      v.push_back(m);
    }
  }
  double lo = v[0], hi = v[0];
  for (double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  std::string out;
  for (double x : v) {
    const double norm = hi > lo ? (x - lo) / (hi - lo) : 0.0;
    out += kBlocks[std::min<size_t>(7, static_cast<size_t>(norm * 7.999))];
  }
  return out;
}

// Splits "domain/device/name" (device may contain no '/', the key always has
// exactly two separators by construction).
bool SplitKey3(const std::string& key, std::string* domain, std::string* device,
               std::string* name) {
  const size_t a = key.find('/');
  if (a == std::string::npos) {
    return false;
  }
  const size_t b = key.find('/', a + 1);
  if (b == std::string::npos) {
    return false;
  }
  *domain = key.substr(0, a);
  *device = key.substr(a + 1, b - a - 1);
  *name = key.substr(b + 1);
  return true;
}

int InspectArtifact(const std::string& path, std::ifstream& in) {
  Artifact doc;
  std::string error;
  if (!kite::ReadArtifact(in, &doc, &error)) {
    std::fprintf(stderr, "kite_inspect: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const std::string figure = doc.top.Str("figure");
  const std::string git_sha = doc.top.Str("git_sha");
  std::printf("== %s — %s (git %s)\n", figure.empty() ? path.c_str() : figure.c_str(),
              doc.top.Str("title").c_str(), git_sha.empty() ? "?" : git_sha.c_str());
  if (const std::string_view params = doc.top.Raw("params"); params.size() > 2) {
    std::printf("   params: %.*s\n", static_cast<int>(params.size() - 2), params.data() + 1);
  }
  if (!doc.sections["series"].empty()) {
    std::printf("-- series --\n");
    for (const ArtifactRow& r : doc.sections["series"]) {
      std::printf("  %-28s %-20s %.10g\n", r.Str("name").c_str(), r.Str("label").c_str(),
                  r.Num("value"));
    }
  }
  if (!doc.sections["latency"].empty()) {
    std::printf("-- workload latency --\n");
    for (const ArtifactRow& r : doc.sections["latency"]) {
      std::printf("  %-28s %-20s n=%-9s p50=%-9s p99=%-9s max=%s\n",
                  r.Str("name").c_str(), r.Str("label").c_str(),
                  HumanCount(r.Num("count")).c_str(),
                  StrFormat("%.1fus", r.Num("p50_ns") / 1e3).c_str(),
                  StrFormat("%.1fus", r.Num("p99_ns") / 1e3).c_str(),
                  StrFormat("%.1fus", r.Num("max_ns") / 1e3).c_str());
    }
  }

  std::vector<TimelineRow> timelines;
  for (const ArtifactRow& r : doc.sections["timelines"]) {
    TimelineRow t;
    if (SplitKey3(r.Str("key"), &t.domain, &t.device, &t.name)) {
      for (const auto& [t_ns, v] : r.Points("points")) {
        t.values.push_back(v);  // Timestamps are implied by index * period.
      }
      timelines.push_back(std::move(t));
    }
  }
  // Sampled timelines (DESIGN.md §15): per domain, the few series that moved
  // the most as sparklines, then the biggest movers across the whole run.
  if (!timelines.empty()) {
    struct Ranked {
      const TimelineRow* row;
      double lo = 0, hi = 0, range = 0, rel = 0;
    };
    auto rank = [](const TimelineRow& t) {
      Ranked r{&t};
      if (t.values.empty()) {
        return r;
      }
      r.lo = r.hi = t.values[0];
      for (double v : t.values) {
        r.lo = std::min(r.lo, v);
        r.hi = std::max(r.hi, v);
      }
      r.range = r.hi - r.lo;
      const double scale = std::max(std::max(r.hi, -r.lo), 1e-12);
      r.rel = r.range / scale;
      return r;
    };
    auto moves_more = [](const Ranked& a, const Ranked& b) {
      if (a.rel != b.rel) {
        return a.rel > b.rel;
      }
      if (a.range != b.range) {
        return a.range > b.range;
      }
      return a.row->device + "/" + a.row->name < b.row->device + "/" + b.row->name;
    };
    std::map<std::string, std::vector<Ranked>> by_domain;
    for (const TimelineRow& t : timelines) {
      by_domain[t.domain].push_back(rank(t));
    }
    std::printf("-- timelines: %zu series, %.10g ms/tick --\n", timelines.size(),
                doc.sections["timelines"][0].Num("period_ns") / 1e6);
    constexpr size_t kPerDomain = 3;
    for (auto& [domain, rows] : by_domain) {
      std::sort(rows.begin(), rows.end(), moves_more);
      std::printf("  %s (%zu series)\n", domain.c_str(), rows.size());
      for (size_t i = 0; i < rows.size() && i < kPerDomain; ++i) {
        const Ranked& r = rows[i];
        std::printf("    %-34s %s min=%s max=%s last=%s\n",
                    (r.row->device + "/" + r.row->name).c_str(),
                    Sparkline(r.row->values).c_str(), HumanCount(r.lo).c_str(),
                    HumanCount(r.hi).c_str(),
                    HumanCount(r.row->values.empty() ? 0 : r.row->values.back()).c_str());
      }
      if (rows.size() > kPerDomain) {
        std::printf("    (+%zu more series)\n", rows.size() - kPerDomain);
      }
    }
    std::vector<Ranked> movers;
    for (const auto& [domain, rows] : by_domain) {
      for (const Ranked& r : rows) {
        if (r.row->values.size() >= 2 && r.range > 0) {
          movers.push_back(r);
        }
      }
    }
    std::sort(movers.begin(), movers.end(), moves_more);
    if (!movers.empty()) {
      std::printf("-- top movers --\n");
      for (size_t i = 0; i < movers.size() && i < 10; ++i) {
        const Ranked& r = movers[i];
        std::printf("  %-40s swing %3.0f%%  %s\n",
                    (r.row->domain + "/" + r.row->device + "/" + r.row->name).c_str(),
                    100.0 * r.rel, Sparkline(r.row->values, 32).c_str());
      }
    }
  }

  // The top-style view: per run label, per domain, its devices' counters.
  std::map<std::string, std::map<std::string, std::map<std::string, std::string>>> top;
  for (const ArtifactRow& r : doc.sections["counters"]) {
    std::string domain, device, name;
    if (!SplitKey3(r.Str("key"), &domain, &device, &name)) {
      continue;
    }
    std::string& cell = top[r.Str("label")][domain][device];
    if (!cell.empty()) {
      cell += " ";
    }
    cell += name + "=" + HumanCount(r.Num("value"));
  }
  for (const auto& [label, domains] : top) {
    std::printf("-- run %s: %zu domain(s) --\n", label.c_str(), domains.size());
    for (const auto& [domain, devices] : domains) {
      std::printf("  %s\n", domain.c_str());
      for (const auto& [device, cell] : devices) {
        std::printf("    %-16s %s\n", device.c_str(), cell.c_str());
      }
    }
    for (const ArtifactRow& s : doc.sections["stage_latency_ns"]) {
      if (s.Str("label") == label) {
        std::printf("  stage %-40s n=%-9s p50=%.1fus p99=%.1fus\n", s.Str("key").c_str(),
                    HumanCount(s.Num("count")).c_str(), s.Num("p50") / 1e3, s.Num("p99") / 1e3);
      }
    }
  }

  // Every other section (a dispatch profile's sites; a CPU report's actors,
  // categories and wait): its rows as written.
  for (const auto& [name, rows] : doc.sections) {
    if (name == "series" || name == "latency" || name == "stage_latency_ns" ||
        name == "counters" || name == "timelines") {
      continue;
    }
    std::printf("-- %s: %zu row(s) --\n", name.c_str(), rows.size());
    for (const ArtifactRow& r : rows) {
      std::printf("  %s\n", r.text.c_str());
    }
  }
  return 0;
}

// A DumpDiagnostics text file: health, per-shard placement, and invariants
// verbatim (the triage signal), everything else as one-line section sizes.
int InspectDiagnosticsDump(const std::string& path, std::ifstream& in) {
  std::string line, section = "preamble";
  std::map<std::string, std::vector<std::string>> sections;
  while (std::getline(in, line)) {
    if (line.rfind("---- ", 0) == 0) {
      const size_t end = line.find(" ----", 5);
      section = end != std::string::npos ? line.substr(5, end - 5) : line;
      continue;
    }
    if (line.rfind("====", 0) == 0) {
      continue;
    }
    sections[section].push_back(line);
  }
  std::printf("== diagnostics %s\n", path.c_str());
  // Placement comes before health: "which shard serves whom" is the first
  // question a failover triage asks, and each row already carries the
  // per-device verdicts.
  for (const char* verbatim : {"placement", "health", "invariants", "cpu"}) {
    // The cpu section only exists when the dump was taken with attribution
    // enabled; don't print an empty header for plain dumps.
    if (std::strcmp(verbatim, "cpu") == 0 &&
        sections.find("cpu") == sections.end()) {
      continue;
    }
    std::printf("-- %s --\n", verbatim);
    for (const std::string& l : sections[verbatim]) {
      std::printf("%s\n", l.c_str());
    }
  }
  for (const auto& [name, lines] : sections) {
    if (name == "placement" || name == "health" || name == "invariants" ||
        name == "cpu" || name == "preamble") {
      continue;
    }
    std::printf("-- %s: %zu line(s) (see %s) --\n", name.c_str(), lines.size(),
                path.c_str());
  }
  return 0;
}

int InspectFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "kite_inspect: cannot open %s\n", path.c_str());
    return 1;
  }
  // A DumpDiagnostics file starts with its banner; anything else must be an
  // artifact, and the reader names the first line that is not.
  std::string first;
  std::getline(in, first);
  in.seekg(0);
  if (first.rfind("==== KITE DIAGNOSTICS", 0) == 0) {
    return InspectDiagnosticsDump(path, in);
  }
  return InspectArtifact(path, in);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <BENCH_*.json | diagnostics-dump.txt> [more files...]\n",
                 argv[0]);
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) {
      std::printf("\n");
    }
    rc |= InspectFile(argv[i]);
  }
  return rc;
}
