#include "src/core/rebalancer.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/core/migrate.h"
#include "src/core/pool.h"
#include "src/core/system.h"
#include "src/hv/xenbus.h"

namespace kite {

namespace {

// Evacuation backoff: the n-th forced restart of the same shard must wait
// kBackoffBase * 2^min(n-1, kBackoffMaxExp) after the previous one.
constexpr SimDuration kBackoffBase = Millis(100);
constexpr int kBackoffMaxExp = 6;

const char* ShardLabel(DeviceKind kind) {
  return kind == DeviceKind::kVif ? "network" : "storage";
}

}  // namespace

Rebalancer::Rebalancer(KiteSystem* sys, DomainPool* pool, RebalancerParams params)
    : sys_(sys), pool_(pool), params_(params) {
  MetricRegistry& reg = sys_->metric_registry();
  drains_ = reg.counter("core", "rebalance", "drains");
  evacuations_ = reg.counter("core", "rebalance", "evacuations");
  readmissions_ = reg.counter("core", "rebalance", "readmissions");
  moves_started_ = reg.counter("core", "rebalance", "moves_started");
  moves_failed_ = reg.counter("core", "rebalance", "moves_failed");
  backoff_defers_ = reg.counter("core", "rebalance", "backoff_defers");
  sub_id_ = sys_->health().Subscribe(
      [this](int32_t dom, const std::string&, HealthState, HealthState new_state) {
        OnTransition(dom, new_state);
      });
}

Rebalancer::~Rebalancer() {
  *alive_ = false;
  sys_->health().Unsubscribe(sub_id_);
}

void Rebalancer::OnTransition(int32_t dom, HealthState new_state) {
  // Transitions for backends that aren't pool shards (a topology can mix
  // pooled and standalone domains) are not ours to manage.
  const std::optional<DeviceKind> kind = pool_->KindOf(dom);
  if (!kind.has_value()) {
    return;
  }
  // The callback runs inside the monitor's probe: defer every reaction, and
  // re-verify state at fire time (it may have changed again by then).
  sys_->executor().Post(KITE_POST_SITE("rebalance/health-react"),
                        [this, alive = alive_, dom, kind = *kind, new_state] {
    if (!*alive) {
      return;
    }
    switch (new_state) {
      case HealthState::kDegraded:
        HandleDegraded(dom, kind);
        return;
      case HealthState::kStalled:
        HandleStalled(dom, kind);
        return;
      case HealthState::kHealthy:
        HandleHealthy(dom);
        return;
    }
  });
}

HealthState Rebalancer::WorstState(DomId dom) const {
  HealthState worst = HealthState::kHealthy;
  for (const auto& inst : sys_->health().Instances()) {
    if (inst.dom == dom && static_cast<int>(inst.state) > static_cast<int>(worst)) {
      worst = inst.state;
    }
  }
  return worst;
}

void Rebalancer::HandleDegraded(DomId dom, DeviceKind kind) {
  ShardCtl& ctl = shards_[dom];
  ctl.kind = kind;
  if (ctl.hysteresis_armed || ctl.draining) {
    return;
  }
  ctl.hysteresis_armed = true;
  sys_->executor().PostAfter(params_.degraded_hysteresis,
                             KITE_POST_SITE("rebalance/hysteresis"),
                             [this, alive = alive_, dom] {
                               if (*alive) {
                                 ConfirmDegraded(dom);
                               }
                             });
}

void Rebalancer::ConfirmDegraded(DomId dom) {
  auto it = shards_.find(dom);
  if (it == shards_.end()) {
    return;  // Shard replaced (evacuated) while the timer was pending.
  }
  ShardCtl& ctl = it->second;
  ctl.hysteresis_armed = false;
  if (ctl.draining) {
    return;
  }
  switch (WorstState(dom)) {
    case HealthState::kHealthy:
      return;  // Blip: recovered within the hysteresis window.
    case HealthState::kStalled:
      return;  // The stalled path (forced evacuation) owns this shard now.
    case HealthState::kDegraded:
      StartDrain(dom);
      return;
  }
}

void Rebalancer::StartDrain(DomId dom) {
  ShardCtl& ctl = shards_[dom];
  ctl.draining = true;
  drains_->Inc();
  pool_->SetShardOpen(dom, false);
  KITE_LOG(Info) << StrFormat("rebalance: draining %s shard dom%d", ShardLabel(ctl.kind),
                              dom);
  for (GuestVm* g : sys_->LinkedGuests(ctl.kind, dom)) {
    pending_.push_back(PendingMove{g->domain()->id(), ctl.kind, dom});
    ++ctl.outstanding;
  }
  if (ctl.outstanding == 0) {
    TryReadmit(dom);
    return;
  }
  PumpMoves();
}

void Rebalancer::PumpMoves() {
  while (active_moves_ < params_.max_concurrent_migrations && !pending_.empty()) {
    PendingMove m = pending_.front();
    pending_.pop_front();
    GuestVm* guest = sys_->FindGuest(m.gid);
    if (guest == nullptr || sys_->LinkedBackend(guest, m.kind) != m.from) {
      // Destroyed, or already moved (an evacuation beat the drain to it).
      OnMoveDone(m.from);
      continue;
    }
    // No open shard left, or the least loaded one's domain died unreplaced.
    const std::optional<DomId> target = pool_->LeastLoadedShard(m.kind, m.from);
    if (!target.has_value() || sys_->hv().domain(*target) == nullptr) {
      moves_failed_->Inc();
      OnMoveDone(m.from);
      continue;
    }
    ++active_moves_;
    moves_started_->Inc();
    sys_->migrator().Migrate(m.gid, m.kind, *target,
                             [this, alive = alive_, from = m.from](bool ok) {
                               if (*alive) {
                                 --active_moves_;
                                 if (!ok) {
                                   moves_failed_->Inc();
                                 }
                                 OnMoveDone(from);
                               }
                             });
  }
}

void Rebalancer::OnMoveDone(DomId from) {
  auto it = shards_.find(from);
  if (it != shards_.end() && it->second.outstanding > 0) {
    --it->second.outstanding;
    if (it->second.outstanding == 0) {
      TryReadmit(from);
    }
  }
  PumpMoves();
}

void Rebalancer::TryReadmit(DomId dom) {
  auto it = shards_.find(dom);
  if (it == shards_.end()) {
    return;
  }
  ShardCtl& ctl = it->second;
  if (!ctl.draining || ctl.outstanding > 0) {
    return;
  }
  if (WorstState(dom) != HealthState::kHealthy) {
    return;  // Stay closed; a later healthy transition re-admits.
  }
  ctl.draining = false;
  pool_->SetShardOpen(dom, true);
  readmissions_->Inc();
  KITE_LOG(Info) << StrFormat("rebalance: re-admitted shard dom%d", dom);
}

void Rebalancer::HandleHealthy(DomId dom) {
  auto it = shards_.find(dom);
  if (it == shards_.end()) {
    return;
  }
  it->second.fail_count = 0;
  TryReadmit(dom);
}

void Rebalancer::HandleStalled(DomId dom, DeviceKind kind) {
  auto it = shards_.find(dom);
  if (it == shards_.end()) {
    // First signal from this shard is already a stall (hard wedge).
    shards_[dom].kind = kind;
    it = shards_.find(dom);
  }
  ShardCtl& ctl = it->second;
  const SimTime now = sys_->executor().Now();
  if (now < ctl.next_allowed) {
    backoff_defers_->Inc();
    sys_->executor().PostAfter(ctl.next_allowed - now,
                               KITE_POST_SITE("rebalance/backoff-retry"),
                               [this, alive = alive_, dom] {
      if (!*alive) {
        return;
      }
      // Only evacuate if the shard is still wedged when the backoff expires.
      if (shards_.count(dom) != 0 && WorstState(dom) == HealthState::kStalled) {
        Evacuate(dom);
      }
    });
    return;
  }
  Evacuate(dom);
}

void Rebalancer::Evacuate(DomId dom) {
  auto it = shards_.find(dom);
  if (it == shards_.end()) {
    return;
  }
  ShardCtl ctl = it->second;
  const SimTime now = sys_->executor().Now();
  ++ctl.fail_count;
  const int exp = std::min(ctl.fail_count - 1, kBackoffMaxExp);
  ctl.next_allowed = now + kBackoffBase * (int64_t{1} << exp);
  evacuations_->Inc();
  KITE_LOG(Info) << StrFormat("rebalance: evacuating stalled %s shard dom%d",
                              ShardLabel(ctl.kind), dom);

  // Pending graceful drain moves off this shard are obsolete: the forced
  // restart below migrates every attached guest itself.
  for (auto pit = pending_.begin(); pit != pending_.end();) {
    if (pit->from == dom) {
      pit = pending_.erase(pit);
    } else {
      ++pit;
    }
  }
  ctl.outstanding = 0;
  ctl.draining = false;
  ctl.hysteresis_armed = false;

  DriverDomain* dd = sys_->FindDriverDomain(dom, ctl.kind);
  if (dd == nullptr) {
    return;  // Already gone (e.g. the scenario restarted it by hand).
  }
  // Scatter the guests onto the least-loaded healthy shards of the kind;
  // the restart falls back to the replacement when there is none.
  const DomId fresh_id = sys_->RestartDriverDomain(dd, [&](GuestVm*) {
    const std::optional<DomId> t = pool_->LeastLoadedShard(ctl.kind, dom);
    return t.has_value() ? sys_->FindDriverDomain(*t, ctl.kind) : nullptr;
  })->domain()->id();
  pool_->ReplaceShard(dom, fresh_id);
  pool_->SetShardOpen(fresh_id, true);
  // The replacement inherits the slot's failure streak (backoff survives the
  // restart: a domain that wedges on every boot slows down, not speeds up).
  shards_.erase(dom);
  shards_[fresh_id] = ctl;
  readmissions_->Inc();
}

}  // namespace kite
