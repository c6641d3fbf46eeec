// Whole-system invariant checker (deterministic simulation testing).
//
// FoundationDB-style simulation testing needs two halves: a way to explore
// many legal schedules (Executor::EnableShuffle) and a way to decide, after
// each explored run, whether the system it left behind is *coherent*. This
// checker is the second half: it audits a quiesced KiteSystem against the
// conservation laws the design promises, independent of any workload-level
// assertion. A bug anywhere in the grant/event/ring plumbing shows up here
// as a broken ledger even when every workload callback "succeeded".
//
// All invariants assume the system is quiesced (RunUntilIdle was called and
// the executor's queue is empty); the checker verifies that precondition
// first and reports everything else only when it holds.
#ifndef SRC_CORE_INVARIANTS_H_
#define SRC_CORE_INVARIANTS_H_

#include <string>
#include <vector>

#include "src/core/system.h"

namespace kite {

// One broken invariant: which law, and the numbers that broke it.
struct Violation {
  std::string invariant;  // Stable kebab-case name ("grant-ledger", ...).
  std::string detail;     // Human-readable numbers.
};

class InvariantChecker {
 public:
  explicit InvariantChecker(KiteSystem* sys) : sys_(sys) {}

  // Runs every audit and returns the violations (empty = coherent).
  std::vector<Violation> Check();

  // One violation per line, indented — for test failure messages and the
  // kite_explore failure report.
  static std::string Format(const std::vector<Violation>& violations);

 private:
  void Fail(const char* invariant, std::string detail);

  // The hypervisor-wide conservation ledgers.
  void CheckGrantLedger();
  void CheckEventLedger();
  // Teardown hygiene: ports, xenstore, backend nodes and graveyards.
  void CheckBoundPorts();
  void CheckXenstoreDomains();
  // No live domain keeps a backend device node for a destroyed frontend.
  void CheckBackendOrphans();
  void CheckGraveyards();
  // Per-instance ring quiescence and request-resolution conservation.
  void CheckNetInstances();
  void CheckBlkInstances();
  // Disk-op conservation across every vbd ever connected.
  void CheckDiskLedger();
  // TCP flow conservation: no stack acks more than it sent, every stack
  // delivers exactly what it acked, and no byte a sender saw acknowledged
  // was lost by the receiver (audited per flow across live stack pairs).
  void CheckTcpLedger();
  // Watchdog verdicts: at quiesce (after a fresh probe) every registered
  // instance must be healthy — a degraded/stalled verdict that survives
  // quiesce means recovery never actually happened.
  void CheckInstanceHealth();
  // Live migration: at quiesce no VIF/VBD move may still be in flight — a
  // stuck move means a drain or reconnect never completed.
  void CheckMigrationsQuiesced();
  // Nothing outlives its guest: no registry row names a destroyed domain
  // (beyond its driver-level and retired rows) or a backend device without
  // an instance, and the flight recorder holds no more than the live
  // domains' rings plus its dead-ring allowance.
  void CheckRegistryOwners();
  void CheckRecorderRings();

  KiteSystem* sys_;
  std::vector<Violation> violations_;
};

}  // namespace kite

#endif  // SRC_CORE_INVARIANTS_H_
