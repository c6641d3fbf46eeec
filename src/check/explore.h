// Replayable whole-system schedule exploration (the kite_explore harness).
//
// One seed drives everything a run does: the executor's schedule shuffle,
// the fault injector, the protocol fuzzer, and every scenario choice (which
// driver domains restart, which fault sites open). Sweeping seeds therefore
// explores distinct legal schedules and failure patterns of one combined
// net+storage scenario, and any failing seed replays exactly with
// `kite_explore --seed=S`.
//
// Each seed runs the full lifecycle — connect, traffic, ring fuzzing, a
// fault window, guest death, driver-domain restart, quiesce — and then
// audits the survivors with the InvariantChecker. Liveness failures (a
// phase that never completes) are reported with the executor's pending-event
// dump so a stuck seed is debuggable from its artifact alone.
#ifndef SRC_CHECK_EXPLORE_H_
#define SRC_CHECK_EXPLORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/invariants.h"

namespace kite {

struct ExploreOptions {
  uint64_t seed = 1;
  // Print per-phase progress to stderr (replay/debugging aid).
  bool verbose = false;
  // Watchdog thresholds for the explored system. CI sweeps seeds with these
  // tightened far below the defaults to prove the watchdog never false-flags
  // a healthy-but-busy backend on any explored schedule.
  HealthParams health;
};

struct ExploreReport {
  uint64_t seed = 0;
  bool ok = false;
  bool failover = false;              // Replay needs --failover.
  std::string phase;                  // Last phase entered.
  std::vector<Violation> violations;  // Invariant failures (check phase).
  std::string detail;                 // Liveness failure detail, if any.
};

// Runs one seed end to end. Never throws; a crash (KITE_CHECK) inside the
// simulated system is itself a reproducible finding — the driver prints the
// seed before entering the run so the replay command survives an abort.
ExploreReport RunExploreSeed(const ExploreOptions& opts);

// Failover exploration (kite_explore --failover): one seed of the sharded
// topology under the Rebalancer. The seed picks the pool size, the guest
// count, the victim shard (whichever hosts a randomly chosen guest), and
// whether the watchdog thresholds route the wedge through the degraded
// *drain* path (graceful migrations) or the stalled *evacuation* path
// (forced restart), so sweeping seeds explores migration/restart races under
// live traffic. The wedge itself is the stall-demo technique: swallow the
// one TX kick that crosses req_event; half the evacuation seeds instead hang
// one write of the guest's VBD in the disk controller. Audited like
// RunExploreSeed — packet conservation, per-guest write read-back, and the
// full invariant checker.
ExploreReport RunFailoverSeed(const ExploreOptions& opts);

// Failure reports end with the exact replay command line.
std::string FormatReport(const ExploreReport& report);

// Deterministic end-to-end stall demo (the CI negative watchdog job): wedges
// netback (a swallowed TX kick) and blkback (a hung disk controller), waits
// for the watchdog to flag both instances stalled, writes the diagnostic
// bundle to `dump_path`, then recovers — ReleaseHungIo for the disk, a
// driver-domain restart for the network — and verifies the system quiesces
// with every invariant holding and every surviving instance healthy again.
bool RunStallDemo(const std::string& dump_path);

}  // namespace kite

#endif  // SRC_CHECK_EXPLORE_H_
