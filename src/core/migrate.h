// MigrationEngine: moves a guest's VIF or VBD from one driver domain to
// another without losing anything the guest was told succeeded.
//
// A migration is an asynchronous toolstack state machine driven by executor
// polls (it must make progress *inside* the simulation — no nested event
// loops):
//
//   1. Drain   — write `online = 0` under the old backend's device node. The
//                backend driver stops consuming new ring work, completes
//                everything already accepted, releases its ring mappings and
//                persistent grants, and removes the node (graceful retire).
//                Unconsumed requests are unacknowledged by definition; the
//                frontend's relink path retransmits/requeues them.
//   2. Relink  — once the old node is gone (so no live backend holds grant
//                mappings), rewrite the toolstack keys toward the target
//                domain. The frontend's relink watch tears down its old ring
//                state and republishes to the new backend.
//   3. Connect — poll until the frontend reports connected to the target.
//
// In a forced move (driver-domain restart/evacuation) the old backend domain
// is normally already destroyed — its node is gone, its grant mappings were
// force-revoked — so step 1 degenerates to nothing and the move goes straight
// to relink.
//
// Per-device moves are serialized through a queue: a second migrate (or a
// restart's forced relink) issued while one is in flight waits its turn, so
// the frontend is never relinked away from a live, mapped backend — the
// double-relink would strand that backend's grant mappings forever. If the
// toolstack link changes under a move anyway (a concurrent restart won the
// race), the move adopts the new link and re-drains from there, bounded by
// a hop cap.
#ifndef SRC_CORE_MIGRATE_H_
#define SRC_CORE_MIGRATE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "src/hv/grant_table.h"
#include "src/hv/xenbus.h"
#include "src/obs/metrics.h"
#include "src/sim/executor.h"

namespace kite {

class KiteSystem;

class MigrationEngine {
 public:
  using Done = std::function<void(bool ok)>;

  explicit MigrationEngine(KiteSystem* sys);
  ~MigrationEngine();

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  // Queues a move of the guest's `kind` device onto driver domain `to`: a
  // live move or a restart's forced one alike. The source is re-resolved
  // from the toolstack's own record (xenstore backend-id) when the move
  // starts, so queued moves compose with restarts, and its actual state
  // decides the protocol: a source whose backend node still exists is
  // always drained first, because relinking away from a live, mapped backend
  // would strand its grant mappings. `done` (optional) fires with the
  // outcome once the device settles.
  void Migrate(DomId guest, DeviceKind kind, DomId to, Done done = {});

  // Active plus queued moves; 0 once every migration settled (the invariant
  // checker asserts this at quiesce).
  int in_flight() const;

  uint64_t started() const { return started_->value(); }
  uint64_t completed() const { return completed_->value(); }
  uint64_t failed() const { return failed_->value(); }
  // Times a move adopted a toolstack link rewritten under it (migrate racing
  // restart); bounded per move by the hop cap.
  uint64_t hops() const { return hops_->value(); }

 private:
  enum class Step {
    kDrain,    // Waiting for the old backend node to retire.
    kConnect,  // Relinked; waiting for the frontend to reconnect.
  };
  // One device of each kind per guest, so (guest, kind) identifies a device.
  using Key = std::pair<DomId, DeviceKind>;
  struct Move {
    DomId gid = 0;
    DeviceKind kind = DeviceKind::kVif;
    DomId to = 0;
    Done done;
    Step step = Step::kDrain;
    DomId from = 0;
    int devid = 0;
    SimTime deadline;
    int hops = 0;
  };
  enum class StartResult { kFail, kDone, kPolling };

  void StartFront(const Key& key);
  StartResult Begin(Move* m);
  // Drains from m->from: a live backend node is marked offline; a gone one
  // leaves nothing to wait out, and the next poll relinks.
  void DrainSource(Move* m);
  void Poll(const Key& key);
  void SchedulePoll(const Key& key);
  void Finish(const Key& key, bool ok);

  KiteSystem* sys_;
  std::map<Key, std::deque<Move>> queues_;
  Counter* started_;
  Counter* completed_;
  Counter* failed_;
  Counter* hops_;
  // Outlives `this` so posted polls can detect destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kite

#endif  // SRC_CORE_MIGRATE_H_
