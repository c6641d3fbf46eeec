#include "src/obs/health.h"

#include <utility>

#include "src/base/strings.h"

namespace kite {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kStalled:
      return "stalled";
  }
  return "?";
}

HealthMonitor::HealthMonitor(Executor* executor, MetricRegistry* metrics,
                             FlightRecorder* recorder, HealthParams params)
    : executor_(executor),
      metrics_(metrics),
      recorder_(recorder),
      params_(params),
      probes_counter_(metrics->counter("obs", "health", "probes")),
      transitions_counter_(metrics->counter("obs", "health", "transitions")),
      stalled_transitions_counter_(
          metrics->counter("obs", "health", "stalled_transitions")),
      instances_gauge_(metrics->gauge("obs", "health", "instances")),
      healthy_gauge_(metrics->gauge("obs", "health", "instances_healthy")),
      degraded_gauge_(metrics->gauge("obs", "health", "instances_degraded")),
      stalled_gauge_(metrics->gauge("obs", "health", "instances_stalled")) {}

int64_t HealthMonitor::Register(int32_t dom, const std::string& domain_name,
                                const std::string& device, int devid,
                                Sampler sampler) {
  const int64_t id = next_id_++;
  Instance& inst = instances_[id];
  inst.dom = dom;
  inst.domain_name = domain_name;
  inst.device = device;
  inst.devid = devid;
  inst.sampler = std::move(sampler);
  inst.last_progress = executor_->Now();
  inst.state_gauge = metrics_->gauge(domain_name, device, "health_state");
  inst.stall_ns_gauge = metrics_->gauge(domain_name, device, "ring_stall_ns");
  inst.backlog_gauge = metrics_->gauge(domain_name, device, "ring_backlog");
  // Baseline probe so the instance has fresh watermarks and a healthy verdict
  // from the moment it connects rather than from the next periodic tick.
  ProbeInstance(inst);
  UpdateAggregates();
  return id;
}

void HealthMonitor::Unregister(int64_t id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) {
    return;
  }
  // Zero the gauges so a reaped instance does not leave a stale verdict in
  // the metric table (skip_zero then hides the rows entirely).
  it->second.state_gauge->Set(0);
  it->second.stall_ns_gauge->Set(0);
  it->second.backlog_gauge->Set(0);
  instances_.erase(it);
  UpdateAggregates();
}

void HealthMonitor::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  executor_->PostDaemonAfter(params_.probe_period, KITE_POST_SITE("health/probe"),
                             [this] { Tick(); });
}

void HealthMonitor::Tick() {
  Probe();
  executor_->PostDaemonAfter(params_.probe_period, KITE_POST_SITE("health/probe"),
                             [this] { Tick(); });
}

void HealthMonitor::ProbeNow() { Probe(); }

void HealthMonitor::Probe() {
  ++probes_run_;
  probes_counter_->Inc();
  for (auto& [id, inst] : instances_) {
    ProbeInstance(inst);
  }
  UpdateAggregates();
}

void HealthMonitor::ProbeInstance(Instance& inst) {
  const HealthSample s = inst.sampler();
  const SimTime now = executor_->Now();
  // Progress == the backend consumed a request or produced a response since
  // the last probe. An idle instance (no pending work) is trivially healthy;
  // the stall clock only runs while there is work the backend is not doing.
  const bool progressed = !inst.have_baseline || s.req_cons != inst.last_cons ||
                          s.rsp_prod != inst.last_rsp;
  const uint32_t pending = s.req_prod - s.req_cons;
  const bool busy = s.connected && (pending != 0 || s.queue_depth > 0);
  if (progressed || !busy) {
    inst.last_progress = now;
  }
  inst.have_baseline = true;
  inst.last_cons = s.req_cons;
  inst.last_rsp = s.rsp_prod;
  inst.last = s;
  inst.backlog = pending + static_cast<uint32_t>(s.queue_depth > 0 ? s.queue_depth : 0);
  inst.stall_age = now - inst.last_progress;

  HealthState next = HealthState::kHealthy;
  if (inst.stall_age >= params_.stalled_after) {
    next = HealthState::kStalled;
  } else if (inst.stall_age >= params_.degraded_after) {
    next = HealthState::kDegraded;
  }

  inst.state_gauge->Set(static_cast<double>(static_cast<int>(next)));
  inst.stall_ns_gauge->Set(static_cast<double>(inst.stall_age.ns()));
  inst.backlog_gauge->Set(static_cast<double>(inst.backlog));

  if (next != inst.state) {
    transitions_counter_->Inc();
    if (next == HealthState::kStalled) {
      stalled_transitions_counter_->Inc();
    }
    recorder_->Record(inst.dom, FlightKind::kHealthTransition, inst.devid,
                      static_cast<uint64_t>(static_cast<int>(inst.state)),
                      static_cast<uint64_t>(static_cast<int>(next)));
    const HealthState old = inst.state;
    inst.state = next;
    if (!subscribers_.empty()) {
      // Snapshot so an Unsubscribe posted (not executed) by a callback can
      // never invalidate the iteration; ids keep dispatch order stable.
      std::vector<const Subscriber*> order;
      order.reserve(subscribers_.size());
      for (const auto& [id, fn] : subscribers_) {
        order.push_back(&fn);
      }
      for (const Subscriber* fn : order) {
        (*fn)(inst.dom, inst.device, old, next);
      }
    }
  }
}

int64_t HealthMonitor::Subscribe(Subscriber subscriber) {
  const int64_t id = next_subscriber_id_++;
  subscribers_[id] = std::move(subscriber);
  return id;
}

void HealthMonitor::Unsubscribe(int64_t id) { subscribers_.erase(id); }

void HealthMonitor::UpdateAggregates() {
  int healthy = 0;
  int degraded = 0;
  int stalled = 0;
  for (const auto& [id, inst] : instances_) {
    switch (inst.state) {
      case HealthState::kHealthy:
        ++healthy;
        break;
      case HealthState::kDegraded:
        ++degraded;
        break;
      case HealthState::kStalled:
        ++stalled;
        break;
    }
  }
  instances_gauge_->Set(static_cast<double>(instances_.size()));
  healthy_gauge_->Set(healthy);
  degraded_gauge_->Set(degraded);
  stalled_gauge_->Set(stalled);
}

HealthState HealthMonitor::state(int32_t dom, const std::string& device) const {
  for (const auto& [id, inst] : instances_) {
    if (inst.dom == dom && inst.device == device) {
      return inst.state;
    }
  }
  return HealthState::kHealthy;
}

std::vector<HealthMonitor::InstanceInfo> HealthMonitor::Instances() const {
  std::vector<InstanceInfo> out;
  out.reserve(instances_.size());
  for (const auto& [id, inst] : instances_) {
    InstanceInfo info;
    info.dom = inst.dom;
    info.domain_name = inst.domain_name;
    info.device = inst.device;
    info.state = inst.state;
    info.stall_age = inst.stall_age;
    info.backlog = inst.backlog;
    info.last = inst.last;
    out.push_back(std::move(info));
  }
  return out;
}

std::string HealthMonitor::FormatTable() const {
  std::string out = StrFormat(
      "  %zu instance(s), %llu probe(s), period=%.3fms degraded>=%.3fms "
      "stalled>=%.3fms\n",
      instances_.size(), static_cast<unsigned long long>(probes_run_),
      params_.probe_period.ms(), params_.degraded_after.ms(),
      params_.stalled_after.ms());
  for (const auto& [id, inst] : instances_) {
    out += StrFormat(
        "  %-32s %-8s stall=%.6fs backlog=%u ring req_prod=%u req_cons=%u "
        "rsp_prod=%u%s\n",
        StrFormat("%s/%s", inst.domain_name.c_str(), inst.device.c_str()).c_str(),
        HealthStateName(inst.state), inst.stall_age.seconds(), inst.backlog,
        inst.last.req_prod, inst.last.req_cons, inst.last.rsp_prod,
        inst.last.connected ? "" : " (disconnected)");
  }
  return out;
}

}  // namespace kite
