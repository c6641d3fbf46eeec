// Fleet benchmark: shared types for the four seeded workloads.
//
// One round of a workload builds a fresh KiteSystem from the seed (set-up,
// including untimed warm-up ops), then runs a fixed number of timed ops. The
// simulation is deterministic, so every round of one seed must produce the
// same simulated results; main.cc repeats rounds to fill the host-time budget
// and compares them.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/kite.h"

namespace perfbench {

// The benchmark's own generator (SplitMix64), so that no program change can
// alter the offered load: every arrival gap, destination, key, size, offset
// and read/write choice comes from here.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }
  double Exponential(double mean) { return -mean * std::log1p(-Unit()); }
  // Log-uniform integer in [lo, hi].
  uint64_t LogUniform(uint64_t lo, uint64_t hi) {
    const double x = std::exp(std::log(static_cast<double>(lo)) +
                              Unit() * (std::log(static_cast<double>(hi) + 1) -
                                        std::log(static_cast<double>(lo))));
    return std::min<uint64_t>(hi, static_cast<uint64_t>(x));
  }

 private:
  uint64_t state_;
};

// Stateless 64-bit mixer used to derive payload bytes and checksums.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host time and simulated time spent inside one kind of call the benchmark
// makes into the program. Recorded only in the traced run.
struct Span {
  uint64_t calls = 0;
  int64_t host_ns = 0;
  int64_t sim_ns = 0;
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  const std::map<std::string, Span>& all() const { return spans_; }

  // Times `fn` as one call of span `name` when tracing, else just runs it.
  template <typename Fn>
  void Time(const char* name, kite::KiteSystem* sys, Fn&& fn) {
    if (!enabled_) {
      fn();
      return;
    }
    const int64_t h0 = HostNowNs();
    const int64_t s0 = sys->Now().ns();
    fn();
    Span& s = spans_[name];
    ++s.calls;
    s.host_ns += HostNowNs() - h0;
    s.sim_ns += sys->Now().ns() - s0;
  }

 private:
  bool enabled_;
  std::map<std::string, Span> spans_;
};

// What one round's timed window produced.
struct WindowResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // Not delivered/answered/completed, or mismatched.
  uint64_t mismatches = 0;  // Verification failures (subset of `failed`).
  std::vector<int64_t> latency_ns;  // One per completed op, simulated clock.
  int64_t sim_start_ns = 0;
  int64_t sim_end_ns = 0;
  int64_t driver_busy_ns = 0;  // All driver-domain vCPUs over the window.
  std::string first_mismatch;
};

struct WorkloadConfig {
  uint64_t seed = 1;
  bool traced = false;
  Spans* spans = nullptr;
};

class Workload {
 public:
  explicit Workload(const WorkloadConfig& config) : config_(config) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the fleet and runs the untimed warm-up ops.
  virtual void Setup() = 0;
  // Runs the fixed, seed-determined set of timed ops.
  virtual void RunWindow() = 0;

  kite::KiteSystem& sys() { return *sys_; }
  const WindowResult& result() const { return result_; }
  // vCPUs of every driver domain (network and storage) alive now.
  std::vector<const kite::Vcpu*> DriverVcpus();
  int64_t DriverBusyNs();

  // Count of guest VIFs / VBDs attached during set-up, with the host RSS
  // growth their attach+connect caused (traced run only).
  int vifs_attached = 0;
  int vbds_attached = 0;
  int64_t vif_rss_kb = 0;
  int64_t vbd_rss_kb = 0;
  // Guests brought up during set-up and the host time it took.
  int guests_brought_up = 0;
  int64_t bringup_host_ns = 0;
  // CPU-ledger busy time of vCPUs that belonged to guests destroyed in the
  // window, by category label (the traced run reads live ledgers directly).
  std::map<std::string, int64_t> departed_cpu_ns;

 protected:
  kite::KiteSystem::Params BaseParams() const;
  void Mismatch(const std::string& what);
  // Creates `count` guests, each with a VIF on `netdom` (when non-null) and
  // a VBD on `stordom` (when non-null), waiting for all to connect. VIFs are
  // attached and connected before VBDs so each kind's RSS cost is separable.
  std::vector<kite::GuestVm*> BringUpFleet(int count, kite::NetworkDomain* netdom,
                                           kite::StorageDomain* stordom,
                                           int first_host);
  void BeginWindow();
  void EndWindow();
  // Folds a guest's CPU ledgers into departed_cpu_ns before it is destroyed.
  void SaveLedger(kite::GuestVm* guest);

  WorkloadConfig config_;
  std::unique_ptr<kite::KiteSystem> sys_;
  WindowResult result_;

 private:
  int64_t busy_at_start_ = 0;
};

std::unique_ptr<Workload> MakeUdpBulk(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeKvFleet(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeBlkMixed(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeGuestChurn(const WorkloadConfig& config);

// Current resident set of this process in kB (from /proc/self/statm).
int64_t CurrentRssKb();

// Fails the process with a message when a program call that the workload
// depends on does not complete.
[[noreturn]] void Fatal(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
