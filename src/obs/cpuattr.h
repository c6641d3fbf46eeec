// CPU-attribution reporting: renders the per-vCPU (domain × category)
// ledgers maintained by src/sim/cpu.h (DESIGN.md §16).
//
// Layering: src/sim cannot depend on src/obs, so the Vcpu keeps only raw
// counters (busy/wait ns per category, a wait histogram) and this adapter —
// which may depend on both — does the table/JSON rendering. Same split as
// the executor's dispatch profiler and src/obs/profile.h.
#ifndef SRC_OBS_CPUATTR_H_
#define SRC_OBS_CPUATTR_H_

#include <string>
#include <vector>

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

}  // namespace kite

#endif  // SRC_OBS_CPUATTR_H_
