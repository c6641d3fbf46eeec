#include "src/core/migrate.h"

#include <optional>
#include <string>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/core/system.h"

namespace kite {

namespace {

constexpr int kMaxHops = 8;

SimDuration PollInterval() { return Micros(100); }
SimDuration DrainTimeout() { return Seconds(2); }
SimDuration ConnectTimeout() { return Seconds(2); }

}  // namespace

MigrationEngine::MigrationEngine(KiteSystem* sys) : sys_(sys) {
  MetricRegistry& reg = sys_->metric_registry();
  started_ = reg.counter("core", "migrate", "started");
  completed_ = reg.counter("core", "migrate", "completed");
  failed_ = reg.counter("core", "migrate", "failed");
  hops_ = reg.counter("core", "migrate", "hops");
}

MigrationEngine::~MigrationEngine() { *alive_ = false; }

int MigrationEngine::in_flight() const {
  int n = 0;
  for (const auto& [key, q] : queues_) {
    n += static_cast<int>(q.size());
  }
  return n;
}

void MigrationEngine::Migrate(DomId guest, DeviceKind kind, DomId to, Done done) {
  const Key key{guest, kind};
  Move m;
  m.gid = guest;
  m.kind = kind;
  m.to = to;
  m.done = std::move(done);
  std::deque<Move>& q = queues_[key];
  q.push_back(std::move(m));
  if (q.size() == 1) {
    // Idle device: start immediately (a forced relink from a restart then
    // happens synchronously, matching the pre-engine restart semantics).
    StartFront(key);
  }
}

void MigrationEngine::StartFront(const Key& key) {
  auto qit = queues_.find(key);
  if (qit == queues_.end() || qit->second.empty()) {
    return;
  }
  Move& m = qit->second.front();
  started_->Inc();
  switch (Begin(&m)) {
    case StartResult::kFail:
      Finish(key, false);
      return;
    case StartResult::kDone:
      Finish(key, true);
      return;
    case StartResult::kPolling:
      // Polled at once: a source whose node is already gone is relinked
      // synchronously.
      Poll(key);
      return;
  }
}

MigrationEngine::StartResult MigrationEngine::Begin(Move* m) {
  GuestVm* guest = sys_->FindGuest(m->gid);
  const XenbusFrontend* fe = guest == nullptr ? nullptr : guest->frontend(m->kind);
  if (fe == nullptr) {
    return StartResult::kFail;
  }
  m->devid = fe->devid();
  // The toolstack's own record is the source of truth for where the device
  // is linked; the frontend's view lags it by a posted watch.
  m->from = *sys_->LinkedBackend(guest, m->kind);
  sys_->recorder().Record(m->gid, FlightKind::kMigrateStart, m->devid,
                          static_cast<uint64_t>(m->from),
                          static_cast<uint64_t>(m->to));
  if (m->from == m->to && fe->connected() && fe->backend_dom() == m->to) {
    return StartResult::kDone;  // Already where it should be.
  }
  DrainSource(m);
  return StartResult::kPolling;
}

void MigrationEngine::DrainSource(Move* m) {
  // What decides drain-vs-relink is the *current* state of the source, not
  // whether the caller was a restart or a live move: a restart's move that
  // waited in the queue may start after the device settled on a live backend
  // (the restart's relink raced a concurrent move), and relinking away from
  // a live, mapped backend would strand its grant mappings. Only a source
  // whose node is gone is safe to relink outright; the drain poll does that.
  XenStore& store = sys_->hv().store();
  const std::string be = BackendPath(m->from, DeviceTypeName(m->kind), m->gid, m->devid);
  if (store.Exists(be + "/frontend-id")) {
    // Graceful drain: mark the node offline; the backend driver's root watch
    // picks it up, drains the instance, and retires the node.
    store.WriteInt(kDom0, be + "/online", 0);
  }
  m->step = Step::kDrain;
  m->deadline = sys_->executor().Now() + DrainTimeout();
}

void MigrationEngine::SchedulePoll(const Key& key) {
  sys_->executor().PostAfter(PollInterval(), KITE_POST_SITE("migrate/poll"),
                             [this, key, alive = alive_] {
    if (*alive) {
      Poll(key);
    }
  });
}

void MigrationEngine::Poll(const Key& key) {
  auto qit = queues_.find(key);
  if (qit == queues_.end() || qit->second.empty()) {
    return;
  }
  Move& m = qit->second.front();
  GuestVm* guest = sys_->FindGuest(m.gid);
  const XenbusFrontend* fe = guest == nullptr ? nullptr : guest->frontend(m.kind);
  if (fe == nullptr) {
    Finish(key, false);  // Device destroyed mid-move.
    return;
  }
  const char* kind = DeviceTypeName(m.kind);
  XenStore& store = sys_->hv().store();
  // Where the toolstack points now; without the key, the move's source.
  auto cur_opt = store.ReadInt(kDom0, FrontendPath(m.gid, kind, m.devid) + "/backend-id");
  const DomId cur = cur_opt.has_value() ? static_cast<DomId>(*cur_opt) : m.from;
  const SimTime now = sys_->executor().Now();

  switch (m.step) {
    case Step::kDrain: {
      if (cur != m.from) {
        // The toolstack link was rewritten under us (a concurrent restart
        // beat this move). Wait for the frontend to settle on the new
        // backend, then drain from there — relinking away from a live,
        // mapped backend would strand its grant mappings.
        if (fe->connected() && fe->backend_dom() == cur) {
          if (++m.hops > kMaxHops) {
            Finish(key, false);
            return;
          }
          hops_->Inc();
          m.from = cur;
          DrainSource(&m);
        } else if (now > m.deadline) {
          Finish(key, false);
          return;
        }
        SchedulePoll(key);
        return;
      }
      const std::string be = BackendPath(m.from, kind, m.gid, m.devid);
      if (!store.Exists(be + "/frontend-id")) {
        // Drained and retired (or the domain died, or was gone already): no
        // backend holds our grants any more — safe to relink.
        if (!sys_->Relink(m.gid, m.kind, m.devid, m.to)) {
          Finish(key, false);
          return;
        }
        m.step = Step::kConnect;
        m.deadline = now + ConnectTimeout();
        SchedulePoll(key);
        return;
      }
      if (now > m.deadline) {
        // Drain wedged (e.g. the backend is stalled on a hung device): the
        // caller escalates to a forced restart. The node stays offline.
        KITE_LOG(Warning) << StrFormat("migrate: %s%d.%d drain from dom%d timed out",
                                       kind, m.gid, m.devid, m.from);
        Finish(key, false);
        return;
      }
      SchedulePoll(key);
      return;
    }
    case Step::kConnect: {
      if (cur != m.to) {
        // Relinked again under us (the target was itself restarted): adopt
        // wherever the toolstack now points and wait for that connection.
        if (++m.hops > kMaxHops) {
          Finish(key, false);
          return;
        }
        hops_->Inc();
        m.to = cur;
        m.deadline = now + ConnectTimeout();
      }
      if (fe->connected() && fe->backend_dom() == m.to) {
        Finish(key, true);
        return;
      }
      if (now > m.deadline) {
        KITE_LOG(Warning) << StrFormat(
            "migrate: %s%d.%d never reconnected to dom%d", kind, m.gid, m.devid, m.to);
        Finish(key, false);
        return;
      }
      SchedulePoll(key);
      return;
    }
  }
}

void MigrationEngine::Finish(const Key& key, bool ok) {
  auto qit = queues_.find(key);
  if (qit == queues_.end() || qit->second.empty()) {
    return;
  }
  Move m = std::move(qit->second.front());
  qit->second.pop_front();
  (ok ? completed_ : failed_)->Inc();
  sys_->recorder().Record(m.gid, FlightKind::kMigrateDone, m.devid,
                          static_cast<uint64_t>(m.to), ok ? 1 : 0);
  if (qit->second.empty()) {
    queues_.erase(qit);
  } else {
    StartFront(key);
  }
  if (m.done) {
    m.done(ok);
  }
}

}  // namespace kite
