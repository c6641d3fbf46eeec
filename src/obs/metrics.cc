#include "src/obs/metrics.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {

MetricRegistry::Cell* MetricRegistry::GetOrCreate(const MetricKey& key, Kind kind) {
  auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    Cell cell;
    cell.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        cell.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        cell.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kLatency:
        cell.latency = std::make_unique<LatencyHistogram>();
        break;
    }
    it = metrics_.emplace(key, std::move(cell)).first;
  }
  KITE_CHECK(it->second.kind == kind)
      << "metric " << key.domain << "/" << key.device << "/" << key.name
      << " re-registered with a different kind";
  return &it->second;
}

Counter* MetricRegistry::counter(const std::string& domain, const std::string& device,
                                 const std::string& name) {
  return GetOrCreate({domain, device, name}, Kind::kCounter)->counter.get();
}

Gauge* MetricRegistry::gauge(const std::string& domain, const std::string& device,
                             const std::string& name) {
  return GetOrCreate({domain, device, name}, Kind::kGauge)->gauge.get();
}

LatencyHistogram* MetricRegistry::latency(const std::string& domain,
                                          const std::string& device,
                                          const std::string& name) {
  return GetOrCreate({domain, device, name}, Kind::kLatency)->latency.get();
}

MetricRegistry::Owner MetricRegistry::Own(const std::string& domain, const std::string& device,
                                          const std::string& retired_domain,
                                          const std::string& retired_device) {
  auto [it, inserted] = groups_.try_emplace({domain, device});
  if (inserted) {
    it->second.retired_domain = retired_domain;
    it->second.retired_device = retired_device;
  }
  ++it->second.owners;
  return Owner(this, it);
}

void MetricRegistry::Release(GroupMap::iterator group) {
  if (--group->second.owners > 0) {
    return;
  }
  const auto& [domain, device] = group->first;
  const Group& to = group->second;
  auto it = metrics_.lower_bound(MetricKey{domain, device, ""});
  while (it != metrics_.end() && it->first.domain == domain && it->first.device == device) {
    const Cell& cell = it->second;
    switch (cell.kind) {
      case Kind::kCounter:
        counter(to.retired_domain, to.retired_device, it->first.name)
            ->Add(cell.counter->value());
        break;
      case Kind::kLatency:
        latency(to.retired_domain, to.retired_device, it->first.name)->Merge(*cell.latency);
        break;
      case Kind::kGauge:
        break;  // A level means nothing once its owner is gone.
    }
    it = metrics_.erase(it);
  }
  groups_.erase(group);
}

void MetricRegistry::Owner::Release() {
  if (registry_ != nullptr) {
    std::exchange(registry_, nullptr)->Release(group_);
  }
}

Counter* MetricRegistry::Owner::counter(const std::string& name) const {
  return registry_->counter(group_->first.first, group_->first.second, name);
}

LatencyHistogram* MetricRegistry::Owner::latency(const std::string& name) const {
  return registry_->latency(group_->first.first, group_->first.second, name);
}

std::vector<MetricRegistry::Sample> MetricRegistry::Snapshot(bool skip_zero) const {
  std::vector<Sample> out;
  out.reserve(metrics_.size());
  for (const auto& [key, cell] : metrics_) {
    Sample s;
    s.key = key;
    s.kind = cell.kind;
    s.value = 0;
    s.count = 0;
    switch (cell.kind) {
      case Kind::kCounter:
        s.value = static_cast<double>(cell.counter->value());
        break;
      case Kind::kGauge:
        s.value = cell.gauge->value();
        break;
      case Kind::kLatency:
        s.value = cell.latency->mean();
        s.count = cell.latency->count();
        s.min = static_cast<double>(cell.latency->min());
        s.max = static_cast<double>(cell.latency->max());
        s.p50 = cell.latency->p50();
        s.p90 = cell.latency->p90();
        s.p99 = cell.latency->p99();
        s.p999 = cell.latency->p999();
        break;
    }
    if (skip_zero && s.value == 0 && s.count == 0) {
      continue;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricRegistry::FormatTable(bool skip_zero, const std::string& prefix) const {
  std::string out;
  for (const Sample& s : Snapshot(skip_zero)) {
    const std::string label = StrFormat("%s/%s/%s", s.key.domain.c_str(),
                                        s.key.device.c_str(), s.key.name.c_str());
    if (!prefix.empty() && label.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    switch (s.kind) {
      case Kind::kCounter:
        out += StrFormat("  %-52s %12llu\n", label.c_str(),
                         static_cast<unsigned long long>(s.value));
        break;
      case Kind::kGauge:
        out += StrFormat("  %-52s %12.2f\n", label.c_str(), s.value);
        break;
      case Kind::kLatency:
        out += StrFormat(
            "  %-52s n=%llu p50=%lluns p90=%lluns p99=%lluns p99.9=%lluns max=%lluns\n",
            label.c_str(), static_cast<unsigned long long>(s.count),
            static_cast<unsigned long long>(s.p50), static_cast<unsigned long long>(s.p90),
            static_cast<unsigned long long>(s.p99), static_cast<unsigned long long>(s.p999),
            static_cast<unsigned long long>(s.max));
        break;
    }
  }
  return out;
}

}  // namespace kite
