// Fault injection: deterministic, RNG-seeded failure hooks that the
// hypervisor and device models consult on their hot paths.
//
// Kite's robustness story (paper §6, experiment E1) is restart-based
// recovery: a crashed driver domain is destroyed and rebooted while guests
// reconnect. To test that path continuously — not just when a bug happens to
// strike — every failure-prone operation asks the injector whether it should
// fail this time: grant-map hypercalls, event-channel notifications,
// xenstore reads, disk I/O completions, and NIC frame delivery.
//
// Rates are per-site probabilities rolled on a deterministic xoshiro RNG, so
// a seeded test reproduces the exact same failure schedule every run.
// Per-site trip counters let tests assert that faults actually fired (a
// recovery test that never saw a fault proves nothing).
#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <array>
#include <cstdint>

#include "src/base/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace kite {

enum class FaultSite : int {
  kGrantMap = 0,    // Hypervisor::GrantMap returns an invalid mapping.
  kEventNotify,     // EVTCHNOP_send accepted but the interrupt never arrives.
  kXenstoreRead,    // A domain's xenstore read round trip fails.
  kDiskIo,          // Device-level block I/O error (media/controller).
  kNicLoss,         // Frame lost on the wire (receive side never sees it).
  kNicCorrupt,      // Frame corrupted on the wire (dropped as an FCS error).
  kDiskHang,        // Disk completion parked (hung controller) until
                    // BlockDevice::ReleaseHungIo — the watchdog wedge site.
  kCount,
};

const char* FaultSiteName(FaultSite site);

inline constexpr uint64_t kDefaultFaultSeed = 0xfa0170ULL;  // "fault"

class FaultInjector {
 public:
  // Trip/roll counters live in `registry` under ("fault", <site>, ...), and
  // every trip is recorded in Dom0's flight-recorder ring (kFaultTripped,
  // dev=site), so a failure dump shows which injected faults preceded the
  // wedge.
  FaultInjector(uint64_t seed, MetricRegistry* registry, FlightRecorder* recorder);

  // Probability in [0, 1] that an operation at `site` fails. Zero (the
  // default for every site) short-circuits without consuming randomness, so
  // enabling one site does not perturb the schedule of the others... nor of
  // a fault-free run.
  void set_rate(FaultSite site, double p);
  // Zeroes every site's rate — ends a fault window so the system can drain
  // and quiesce cleanly (the explore harness closes each schedule this way).
  void ClearRates();

  // Rolls the dice for one operation at `site`. Returns true if the
  // operation must fail; every true return is counted as a trip.
  bool ShouldFail(FaultSite site);

  // --- Introspection for tests. ---
  uint64_t trips(FaultSite site) const;   // Failures injected.
  uint64_t rolls(FaultSite site) const;   // Operations that consulted us.
  uint64_t total_trips() const;

 private:
  static constexpr int kSites = static_cast<int>(FaultSite::kCount);

  Rng rng_;
  FlightRecorder* recorder_;
  std::array<double, kSites> rates_{};
  // Registry-backed counters (one pointer-chase per roll, same cost as the
  // plain uint64_t members they replaced).
  std::array<Counter*, kSites> trips_{};
  std::array<Counter*, kSites> rolls_{};
};

}  // namespace kite

#endif  // SRC_FAULT_FAULT_H_
