// Rebalancer: health-driven failover policy over a DomainPool.
//
// Subscribes to the HealthMonitor (PR 5) and reacts to backend state
// transitions on pool shards:
//
//   degraded — the shard is slow but alive. After a hysteresis window (so a
//              single late probe doesn't trigger a stampede) the shard is
//              closed for placement and its guests are *drained*: graceful
//              migrations onto the least-loaded healthy shard, bounded by a
//              concurrency cap so the survivors aren't buried under
//              simultaneous reconnections.
//   stalled  — the shard is wedged; a graceful drain cannot complete (the
//              backend no longer makes progress). The shard is *evacuated*:
//              a forced restart (KiteSystem::Restart…Domain) that scatters
//              the guests across healthy shards, then boots a replacement.
//              Repeated evacuations of the same shard back off
//              exponentially (100 ms, doubling up to 6.4 s) — a domain that
//              wedges every time it boots must not dominate the simulation
//              with restart churn.
//   healthy  — the shard recovered: its failure streak resets and, once any
//              in-flight drain has finished, it is re-admitted for placement.
//
// Health callbacks run inside the monitor's probe, so every reaction is
// deferred through the executor; all decisions re-resolve domains by id at
// fire time (a shard may have been restarted meanwhile).
//
// Like the pool, the Rebalancer is owned by the scenario, not by KiteSystem:
// topologies without one pay nothing.
#ifndef SRC_CORE_REBALANCER_H_
#define SRC_CORE_REBALANCER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "src/hv/grant_table.h"
#include "src/hv/xenbus.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"

namespace kite {

class KiteSystem;
class DomainPool;

struct RebalancerParams {
  // How long a shard must stay degraded before its drain starts.
  SimDuration degraded_hysteresis = Millis(10);
  // Graceful migrations in flight at once across the whole pool.
  int max_concurrent_migrations = 2;
};

class Rebalancer {
 public:
  Rebalancer(KiteSystem* sys, DomainPool* pool, RebalancerParams params = {});
  ~Rebalancer();

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  const RebalancerParams& params() const { return params_; }

  uint64_t drains_started() const { return drains_->value(); }
  uint64_t evacuations() const { return evacuations_->value(); }
  uint64_t readmissions() const { return readmissions_->value(); }
  uint64_t moves_started() const { return moves_started_->value(); }
  uint64_t moves_failed() const { return moves_failed_->value(); }
  // Graceful drain moves in flight or queued behind the concurrency cap.
  int pending_moves() const { return active_moves_ + static_cast<int>(pending_.size()); }

 private:
  // Failure-handling state for one shard, keyed by its *current* domain id
  // and carried across restarts (ReplaceShard renames the key).
  struct ShardCtl {
    DeviceKind kind = DeviceKind::kVif;
    bool hysteresis_armed = false;
    bool draining = false;
    int fail_count = 0;       // Consecutive evacuations; reset on healthy.
    SimTime next_allowed{};   // Earliest next evacuation (backoff gate).
    int outstanding = 0;      // Drain moves still in flight for this shard.
  };
  struct PendingMove {
    DomId gid = 0;
    DeviceKind kind = DeviceKind::kVif;
    DomId from = 0;
  };

  void OnTransition(int32_t dom, HealthState new_state);
  // Deferred reactions (posted from OnTransition).
  void HandleDegraded(DomId dom, DeviceKind kind);
  void ConfirmDegraded(DomId dom);
  void HandleStalled(DomId dom, DeviceKind kind);
  void HandleHealthy(DomId dom);

  void StartDrain(DomId dom);
  void Evacuate(DomId dom);
  void PumpMoves();
  void OnMoveDone(DomId from);
  void TryReadmit(DomId dom);
  // Worst health state across the domain's registered backend instances.
  HealthState WorstState(DomId dom) const;

  KiteSystem* sys_;
  DomainPool* pool_;
  RebalancerParams params_;
  int64_t sub_id_ = 0;
  std::map<DomId, ShardCtl> shards_;
  std::deque<PendingMove> pending_;
  int active_moves_ = 0;

  Counter* drains_;
  Counter* evacuations_;
  Counter* readmissions_;
  Counter* moves_started_;
  Counter* moves_failed_;
  Counter* backoff_defers_;
  // Outlives `this` so deferred posts can detect destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kite

#endif  // SRC_CORE_REBALANCER_H_
