// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each bench binary regenerates one table/figure of the paper: it builds the
// paper's topology (client ↔ NIC ↔ driver domain ↔ guest, or guest ↔ storage
// domain ↔ NVMe), runs the workload at (scaled) paper parameters for both
// the Kite and Linux driver-domain personalities, and prints the series the
// paper reports next to the paper's reference values.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/artifact.h"
#include "src/base/histogram.h"
#include "src/base/stats.h"
#include "src/base/strings.h"
#include "src/core/kite.h"
#include "src/workloads/fs.h"

namespace kite {

inline const Ipv4Addr kGuestIp = Ipv4Addr::FromOctets(10, 0, 0, 10);

// Every bench run ends by dumping the system's metric registry: the same
// counters the drivers use for their own bookkeeping double as a consistency
// report (ring traffic, hypercall counts, drops, rejected requests).
inline void PrintMetrics(KiteSystem* sys) {
  std::printf("\n---- metrics ----------------------------------------------------\n");
  std::printf("%s", sys->FormatMetrics().c_str());
}

// A network-domain topology: client machine ↔ driver domain ↔ guest.
struct NetTopology {
  std::unique_ptr<KiteSystem> sys;
  NetworkDomain* netdom = nullptr;
  GuestVm* guest = nullptr;

  NetTopology() = default;
  NetTopology(NetTopology&&) = default;
  NetTopology& operator=(NetTopology&&) = default;
  ~NetTopology() {
    if (sys != nullptr) {  // Not moved-from.
      PrintMetrics(sys.get());
    }
  }

  EtherStack* client_stack() const { return sys->client()->stack(); }
  EtherStack* guest_stack() const { return guest->stack(); }
};

inline NetTopology MakeNetTopology(OsKind os, NetbackParams netback = NetbackParams{}) {
  NetTopology topo;
  topo.sys = std::make_unique<KiteSystem>();
  DriverDomainConfig config;
  config.os = os;
  topo.netdom = topo.sys->CreateNetworkDomain(config, netback);
  topo.guest = topo.sys->CreateGuest("server-guest");
  topo.sys->AttachVif(topo.guest, topo.netdom, kGuestIp);
  if (!topo.sys->WaitConnected(topo.guest)) {
    std::fprintf(stderr, "FATAL: guest failed to connect\n");
    std::abort();
  }
  // Warm ARP both ways so measurements exclude resolution.
  bool warm = false;
  topo.client_stack()->Ping(kGuestIp, 8, [&](bool, SimDuration) { warm = true; });
  topo.sys->WaitUntil([&] { return warm; }, Seconds(5));
  return topo;
}

// A storage-domain topology: guest ↔ storage driver domain ↔ NVMe.
struct StorTopology {
  std::unique_ptr<KiteSystem> sys;
  StorageDomain* stordom = nullptr;
  GuestVm* guest = nullptr;
  std::unique_ptr<SimpleFs> fs;

  StorTopology() = default;
  StorTopology(StorTopology&&) = default;
  StorTopology& operator=(StorTopology&&) = default;
  ~StorTopology() {
    if (sys != nullptr) {  // Not moved-from.
      PrintMetrics(sys.get());
    }
  }
};

inline StorTopology MakeStorTopology(OsKind os, int64_t disk_bytes = 8LL << 30,
                                     BlkbackParams blkback = BlkbackParams{}) {
  StorTopology topo;
  KiteSystem::Params params;
  params.disk.capacity_bytes = disk_bytes;
  params.disk_store_data = false;  // Benchmarks need timing, not content.
  topo.sys = std::make_unique<KiteSystem>(params);
  DriverDomainConfig config;
  config.os = os;
  topo.stordom = topo.sys->CreateStorageDomain(config, blkback);
  topo.guest = topo.sys->CreateGuest("db-guest");
  topo.sys->AttachVbd(topo.guest, topo.stordom);
  if (!topo.sys->WaitConnected(topo.guest)) {
    std::fprintf(stderr, "FATAL: guest blkfront failed to connect\n");
    std::abort();
  }
  topo.fs = std::make_unique<SimpleFs>(topo.guest->blkfront());
  return topo;
}

inline void PrintHeader(const char* figure, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("================================================================\n");
}

inline void PrintNote(const char* note) { std::printf("note: %s\n", note); }

inline const char* Pers(OsKind os) { return os == OsKind::kKiteRumprun ? "Kite " : "Linux"; }
// Untruncated, unpadded personality name for JSON labels.
inline const char* PersLabel(OsKind os) { return os == OsKind::kKiteRumprun ? "Kite" : "Linux"; }

// ---------------------------------------------------------------------------
// Machine-readable bench output.
//
// Each figure binary fills one BenchReport and writes BENCH_<figure>.json —
// into $KITE_BENCH_DIR when set, else the working directory. The file holds
// the workload parameters, every measured series point, latency percentiles
// extracted from LatencyHistogram, the non-zero registry counters of each
// topology, and the git SHA of the tree that produced the numbers, so CI and
// regression tooling parse JSON instead of scraping stdout.

// Commit the numbers were produced at: $KITE_GIT_SHA / $GITHUB_SHA when set
// (CI), else `git rev-parse HEAD`, else "unknown".
inline std::string BenchGitSha() {
  for (const char* var : {"KITE_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* v = std::getenv(var); v != nullptr && v[0] != '\0') {
      return v;
    }
  }
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r"); p != nullptr) {
    char buf[80] = {};
    const size_t n = fread(buf, 1, sizeof(buf) - 1, p);
    pclose(p);
    std::string sha(buf, n);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    if (!sha.empty()) {
      return sha;
    }
  }
  return "unknown";
}

// Rebuilds a per-op latency distribution from a workload's Stats series of
// milliseconds (histogram buckets are nanoseconds).
inline LatencyHistogram HistogramFromMsSamples(const Stats& s) {
  LatencyHistogram h;
  for (double ms : s.samples()) {
    h.Record(ms <= 0 ? 0 : static_cast<uint64_t>(ms * 1e6 + 0.5));
  }
  return h;
}

// Writes a machine-readable artifact (BENCH_<figure>.json, or an auxiliary
// one such as BENCH_profile.json) into $KITE_BENCH_DIR when set, else the
// working directory, and prints the path.
inline bool WriteBenchArtifact(const std::string& filename, const std::string& content) {
  std::string path = filename;
  if (const char* dir = std::getenv("KITE_BENCH_DIR"); dir != nullptr && dir[0] != '\0') {
    path = std::string(dir) + "/" + path;
  }
  if (!WriteArtifactFile(path, content)) {
    std::fprintf(stderr, "BENCH: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

class BenchReport {
 public:
  BenchReport(std::string figure, std::string title)
      : figure_(std::move(figure)), title_(std::move(title)) {}

  void Param(const std::string& key, const std::string& v) {
    params_.emplace_back(key, "\"" + JsonEscape(v) + "\"");
  }
  void Param(const std::string& key, double v) {
    params_.emplace_back(key, StrFormat("%.10g", v));
  }

  // One measured point: series name ("goodput_gbps"), run label ("Linux").
  void Value(const std::string& series, const std::string& label, double v) {
    series_.push_back(StrFormat("{\"name\":\"%s\",\"label\":\"%s\",\"value\":%.10g}",
                                JsonEscape(series).c_str(), JsonEscape(label).c_str(), v));
  }

  // Percentiles of one workload latency distribution.
  void Latency(const std::string& series, const std::string& label,
               const LatencyHistogram& h) {
    latency_.push_back(StrFormat(
        "{\"name\":\"%s\",\"label\":\"%s\",\"count\":%llu,"
        "\"p50_ns\":%llu,\"p90_ns\":%llu,\"p99_ns\":%llu,\"p999_ns\":%llu,"
        "\"mean_ns\":%.1f,\"min_ns\":%llu,\"max_ns\":%llu}",
        JsonEscape(series).c_str(), JsonEscape(label).c_str(),
        static_cast<unsigned long long>(h.count()),
        static_cast<unsigned long long>(h.p50()),
        static_cast<unsigned long long>(h.p90()),
        static_cast<unsigned long long>(h.p99()),
        static_cast<unsigned long long>(h.p999()), h.mean(),
        static_cast<unsigned long long>(h.min()),
        static_cast<unsigned long long>(h.max())));
  }

  // Snapshots a topology's registry before it is torn down: non-zero counters
  // plus per-stage latency metrics. `label` distinguishes runs in one figure.
  void Counters(const std::string& label, KiteSystem* sys) {
    for (const MetricRegistry::Sample& s : sys->metric_registry().Snapshot(true)) {
      const std::string key =
          s.key.domain + "/" + s.key.device + "/" + s.key.name;
      if (s.kind == MetricRegistry::Kind::kCounter) {
        counters_.push_back(StrFormat("{\"label\":\"%s\",\"key\":\"%s\",\"value\":%.10g}",
                                      JsonEscape(label).c_str(), JsonEscape(key).c_str(),
                                      s.value));
      } else if (s.kind == MetricRegistry::Kind::kLatency) {
        stage_latency_.push_back(StrFormat(
            "{\"label\":\"%s\",\"key\":\"%s\",\"count\":%llu,"
            "\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,\"p999\":%llu}",
            JsonEscape(label).c_str(), JsonEscape(key).c_str(),
            static_cast<unsigned long long>(s.count),
            static_cast<unsigned long long>(s.p50),
            static_cast<unsigned long long>(s.p90),
            static_cast<unsigned long long>(s.p99),
            static_cast<unsigned long long>(s.p999)));
      }
    }
  }

  // Records every timeline a sampler captured, one row per metric series.
  // Points are [t_ns, value] pairs; counter values are per-period deltas
  // (see src/obs/sampler.h). `label` distinguishes runs in one figure.
  void Timelines(const std::string& label, const MetricSampler& sampler) {
    for (const MetricSampler::Timeline& tl : sampler.Timelines()) {
      timelines_.push_back(TimelineJsonRow(label, tl, sampler.params().period));
    }
  }

  // Writes BENCH_<figure>.json; prints the path so humans can find it too.
  bool Write() const {
    std::string params;
    for (const auto& [key, value] : params_) {
      params += StrFormat("%s\"%s\": %s", params.empty() ? "" : ", ",
                          JsonEscape(key).c_str(), value.c_str());
    }
    ArtifactWriter doc;
    doc.Field("figure", StrFormat("\"%s\"", JsonEscape(figure_).c_str()));
    doc.Field("title", StrFormat("\"%s\"", JsonEscape(title_).c_str()));
    doc.Field("git_sha", StrFormat("\"%s\"", JsonEscape(BenchGitSha()).c_str()));
    doc.Field("params", "{" + params + "}");
    doc.Array("series", series_);
    doc.Array("latency", latency_);
    doc.Array("stage_latency_ns", stage_latency_);
    doc.Array("counters", counters_);
    // Only present when a sampler was attached, so figures that never record
    // timelines produce byte-identical JSON to the pre-sampler format.
    if (!timelines_.empty()) {
      doc.Array("timelines", timelines_);
    }
    std::printf("\n");
    return WriteBenchArtifact("BENCH_" + figure_ + ".json", doc.Render());
  }

 private:
  std::string figure_;
  std::string title_;
  std::vector<std::pair<std::string, std::string>> params_;  // key → JSON value.
  std::vector<std::string> series_;
  std::vector<std::string> latency_;
  std::vector<std::string> stage_latency_;
  std::vector<std::string> counters_;
  std::vector<std::string> timelines_;
};

}  // namespace kite

#endif  // BENCH_COMMON_H_
