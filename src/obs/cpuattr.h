// CPU-attribution reporting: renders the per-vCPU (domain × category)
// ledgers maintained by src/sim/cpu.h (DESIGN.md §16).
//
// Layering: src/sim cannot depend on src/obs, so the Vcpu keeps only raw
// counters (busy/wait ns per category, a wait histogram) and this adapter —
// which may depend on both — does the table/JSON rendering and feeds the
// metric registry. Same split as the executor's dispatch profiler and
// src/obs/profile.h.
#ifndef SRC_OBS_CPUATTR_H_
#define SRC_OBS_CPUATTR_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/cpu.h"
#include "src/sim/time.h"

namespace kite {

// One vCPU with a stable report label. KiteSystem::CpuActors() builds the
// list (all live domains plus the client machine) in deterministic order.
struct CpuActor {
  std::string domain;  // e.g. "kite-netdom", "client".
  int vcpu_index = 0;
  const Vcpu* vcpu = nullptr;
};

// Plain-text "CPU" section for DumpDiagnostics / kite_inspect: one line per
// actor (busy, utilization over [0, now], run-queue wait percentiles) plus
// the top `top_n` categories by busy time. Utilization is clamped to 100%
// for display (the raw ratio lives in CpuReportJson).
std::string FormatCpuAttribution(const std::vector<CpuActor>& actors, SimTime now,
                                 size_t top_n = 6);

// Deterministic artifact (src/base/artifact.h): t_ns, then rows keyed by
// domain and vcpu: "actors" (busy time, raw utilization), and for attributed
// vCPUs "wait" (run-queue wait) and "categories" (busy-descending, ties by
// label). Byte-identical across same-seed runs.
std::string CpuReportJson(const std::vector<CpuActor>& actors, SimTime now);

// Publishes the ledgers into the metric registry so the MetricSampler admits
// them as timelines. Per actor (domain = actor.domain, device = "vcpu<i>"):
//   cpu_busy_ns            counter  total busy ns (timeline = busy ns/period)
//   cpu_util_percent       gauge    busy delta / elapsed since last pump,
//                                   raw (unclamped) percent
//   cpu_wait_p99_ns        gauge    run-queue wait p99 so far
//   cpu_<category>_ns      counter  per nonzero category ('/' → '_')
// Call from the sampler's pre-tick hook; only writes for actors whose vCPU
// has attribution enabled, so a disabled system never grows registry keys.
class CpuMetricsPump {
 public:
  explicit CpuMetricsPump(MetricRegistry* metrics) : metrics_(metrics) {}

  void Pump(const std::vector<CpuActor>& actors, SimTime now);

 private:
  struct Last {
    int64_t busy_ns = 0;
    int64_t t_ns = 0;
  };

  MetricRegistry* metrics_;
  std::map<std::pair<std::string, int>, Last> last_;
};

}  // namespace kite

#endif  // SRC_OBS_CPUATTR_H_
