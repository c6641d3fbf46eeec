// Virtual CPU cost model.
//
// A Vcpu serializes the simulated CPU work of one domain vCPU: work segments
// extend a single "busy-until" horizon, so concurrent actors (threads,
// interrupt handlers, hypercalls) naturally queue behind each other — the
// behaviour of rumprun's non-preemptive single-vCPU scheduler that the paper's
// thread structure is designed around.
//
// Charge(cost) is the one interface: synchronous accounting that returns
// when the work completes. Interrupt handlers and hypercall paths call it
// and logically run to completion; a BMK thread suspends until the returned
// time (BmkSched::Run, src/bmk/sched.h), which models queuing delay.
//
// --- CPU attribution (DESIGN.md §16) ---
//
// Orthogonally to the timing model, every nanosecond a vCPU executes can be
// credited to an interned *category* (grant copies, IRQ dispatch, netback TX
// service, app work, ...) so "where does the driver domain's CPU go?" is a
// measured number instead of a guess. The design mirrors the executor's
// dispatch sites (KITE_POST_SITE):
//
//  - KITE_CPU_CATEGORY("label") interns a label once (function-local static)
//    and yields a stable dense index.
//  - CpuScope sets the ambient category for the dynamic extent of a C++
//    scope. The simulation is single-threaded, so the ambient category is a
//    single process-global integer; nested scopes save/restore it and the
//    innermost scope wins (credit is never split).
//  - Vcpu::Charge consults the ambient category *only* when the vCPU has a
//    ledger (EnableAttribution): the disabled cost is one pointer test, and
//    attribution never changes the timing math — enabling it cannot perturb
//    a schedule.
//
// Scopes must not span a co_await: establish them tightly around the Charge
// (BmkSched::Run(cost, category) does this internally for driver threads).
//
// Charge also measures the *run-queue wait* — the gap between requesting the
// vCPU and the busy horizon granting it — into the shared LatencyHistogram
// (src/base/histogram.h), making vCPU contention visible, not just
// occupancy. The raw ledger lives here and src/obs/cpuattr.h renders it.
#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/histogram.h"
#include "src/sim/executor.h"
#include "src/sim/time.h"

namespace kite {

// An interned CPU-time category (src/sim/intern.h).
struct CpuCategory {
  const char* label;
  uint32_t index;
};

// Index 0 is the builtin bucket for work charged outside any CpuScope.
inline constexpr uint32_t kCpuUnattributedIndex = 0;

// Interns `label`; idempotent per label text.
const CpuCategory* RegisterCpuCategory(const char* label);
// Number of registered categories (>= 1; the unattributed builtin).
size_t CpuCategoryCount();
// Label for a dense index ("?" when out of range).
const char* CpuCategoryLabel(uint32_t index);

// Use as an expression: KITE_CPU_CATEGORY("netback/tx"). The function-local
// static makes every use after the first a single load.
#define KITE_CPU_CATEGORY(label_text)                                      \
  ([]() -> const ::kite::CpuCategory* {                                    \
    static const ::kite::CpuCategory* category =                           \
        ::kite::RegisterCpuCategory(label_text);                           \
    return category;                                                       \
  }())

// Ambient category for Vcpu::Charge, process-global (the simulation is
// single-threaded). Restores the previous category on destruction.
class CpuScope {
 public:
  explicit CpuScope(const CpuCategory* category);
  ~CpuScope();

  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

 private:
  uint32_t saved_;
};

// The category Charge would credit right now (kCpuUnattributedIndex outside
// any scope).
uint32_t CurrentCpuCategory();

// Per-vCPU attribution state: busy nanoseconds by category index (grows on
// demand as categories register), plus the vCPU-wide run-queue wait
// distribution. Read via Vcpu accessors or directly by src/obs/cpuattr.
// Deliberately minimal — one busy counter per category, one shared wait
// histogram — so the enabled Charge hot path is a handful of increments
// (bench_engine bounds the overhead in CI).
struct CpuLedger {
  std::vector<uint64_t> busy_ns;  // Indexed by category.
  LatencyHistogram wait_hist;
};

class Vcpu {
 public:
  explicit Vcpu(Executor* executor) : executor_(executor) {}

  Executor* executor() const { return executor_; }

  // Accounts `cost` of CPU work starting no earlier than now and no earlier
  // than the end of previously queued work. Returns the completion time.
  SimTime Charge(SimDuration cost);

  // Total CPU time consumed since construction (for utilization reports).
  // With attribution enabled the total is derived from the ledger (plus any
  // busy time accumulated before enabling): reads are rare and O(#categories)
  // is trivial, while the Charge hot path saves one read-modify-write.
  SimDuration busy_total() const {
    if (ledger_ == nullptr) {
      return busy_total_;
    }
    uint64_t total = 0;
    for (uint64_t ns : ledger_->busy_ns) {
      total += ns;
    }
    return busy_total_ + Nanos(static_cast<int64_t>(total));
  }
  SimTime free_at() const { return free_at_; }

  // Utilization over a window, given busy_total() sampled at window start.
  // Returns the *raw* ratio: a single-horizon vCPU can have more simulated
  // work queued against it than the window holds (overcommit from concurrent
  // actors), and that signal must survive to the reports. Clamp at render
  // time only (tables, percent gauges).
  static double Utilization(SimDuration busy_at_start, SimDuration busy_at_end,
                            SimDuration window) {
    if (window.ns() <= 0) {
      return 0.0;
    }
    return static_cast<double>((busy_at_end - busy_at_start).ns()) /
           static_cast<double>(window.ns());
  }

  // --- Attribution (accounting-only; see file comment). ---
  // Allocates the ledger; every subsequent Charge credits the ambient
  // category. Idempotent. Never changes Charge's timing result.
  void EnableAttribution();
  bool attribution_enabled() const { return ledger_ != nullptr; }
  // Null until EnableAttribution.
  const CpuLedger* ledger() const { return ledger_.get(); }
  // Busy nanoseconds credited to one category (0 when disabled or the
  // category never ran here).
  SimDuration attributed_busy(uint32_t category) const;

 private:
  void RecordAttribution(SimDuration cost, SimDuration wait);

  Executor* executor_;
  SimTime free_at_;
  SimDuration busy_total_;
  std::unique_ptr<CpuLedger> ledger_;
};

// Windowed busy-time sampling: the one code path benches and workloads use
// for "CPU over this phase" numbers (CPU%, µs/op), replacing ad-hoc
// busy_total() diffing. Construct at the start of the phase; read busy() /
// utilization() at the end. Values are raw (unclamped) — see
// Vcpu::Utilization.
class CpuUsageSample {
 public:
  explicit CpuUsageSample(const Vcpu* cpu)
      : cpu_(cpu),
        busy_at_start_(cpu->busy_total()),
        started_at_(cpu->executor()->Now()) {}

  // Busy time consumed since construction.
  SimDuration busy() const { return cpu_->busy_total() - busy_at_start_; }
  // Utilization over the elapsed window (construction → now).
  double utilization() const {
    return Vcpu::Utilization(busy_at_start_, cpu_->busy_total(),
                             cpu_->executor()->Now() - started_at_);
  }
  // Utilization over an explicit window.
  double utilization(SimDuration window) const {
    return Vcpu::Utilization(busy_at_start_, cpu_->busy_total(), window);
  }

 private:
  const Vcpu* cpu_;
  SimDuration busy_at_start_;
  SimTime started_at_;
};

}  // namespace kite

#endif  // SRC_SIM_CPU_H_
