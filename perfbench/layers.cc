#include "perfbench/layers.h"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

using namespace kite;

size_t CountNodes(const XenStore& store, const std::string& path) {
  const auto children = store.List(kDom0, path);
  if (!children) {
    return 0;
  }
  size_t n = children->size();
  for (const std::string& c : *children) {
    n += CountNodes(store, path == "/" ? "/" + c : path + "/" + c);
  }
  return n;
}

std::vector<const Vcpu*> GuestVcpus(KiteSystem& sys) {
  std::vector<const Vcpu*> out;
  for (const auto& g : sys.guests()) {
    for (int i = 0; i < g->domain()->vcpu_count(); ++i) {
      out.push_back(g->domain()->vcpu(i));
    }
  }
  return out;
}

std::vector<const Vcpu*> AllVcpus(KiteSystem& sys) {
  std::vector<const Vcpu*> out;
  for (const CpuActor& a : sys.CpuActors()) {
    out.push_back(a.vcpu);
  }
  return out;
}

// Busy ns credited to any of `labels` on `vcpus`.
int64_t LedgerNs(const std::vector<const Vcpu*>& vcpus,
                 std::initializer_list<const char*> labels) {
  const std::set<std::string> wanted(labels.begin(), labels.end());
  int64_t total = 0;
  for (const Vcpu* v : vcpus) {
    const CpuLedger* ledger = v->ledger();
    if (ledger == nullptr) {
      continue;
    }
    for (size_t c = 0; c < ledger->busy_ns.size(); ++c) {
      if (wanted.count(CpuCategoryLabel(static_cast<uint32_t>(c))) != 0) {
        total += static_cast<int64_t>(ledger->busy_ns[c]);
      }
    }
  }
  return total;
}

int64_t DepartedNs(const Workload& w, std::initializer_list<const char*> labels) {
  int64_t total = 0;
  for (const char* label : labels) {
    auto it = w.departed_cpu_ns.find(label);
    if (it != w.departed_cpu_ns.end()) {
      total += it->second;
    }
  }
  return total;
}

}  // namespace

void LayerProbe::Begin(Workload& w) {
  KiteSystem& sys = w.sys();
  sys.EnableCpuAttribution();
  w.departed_cpu_ns.clear();
  MetricRegistry& reg = sys.metric_registry();
  counters_.clear();
  for (const auto& s : reg.Snapshot()) {
    if (s.kind == MetricRegistry::Kind::kCounter) {
      counters_[s.key] = static_cast<uint64_t>(s.value);
    } else if (s.kind == MetricRegistry::Kind::kLatency) {
      // Stage histograms only record; clearing them keeps the window's
      // distribution apart from set-up's.
      reg.latency(s.key.domain, s.key.device, s.key.name)->Reset();
    }
  }
  registry_keys_ = reg.size();
  xenstore_nodes_ = CountNodes(sys.hv().store(), "/");
}

void LayerProbe::End(Workload& w, uint64_t ops) {
  KiteSystem& sys = w.sys();
  MetricRegistry& reg = sys.metric_registry();
  ops_ += static_cast<double>(ops);
  auto add = [&](const char* name, double v) { totals_[name] += v; };

  // Registry counters: deltas over the window, summed over matching keys.
  const std::vector<MetricRegistry::Sample> snapshot = reg.Snapshot();
  auto delta = [&](const std::function<bool(const MetricKey&)>& match) {
    uint64_t total = 0;
    for (const auto& s : snapshot) {
      if (s.kind == MetricRegistry::Kind::kCounter && match(s.key)) {
        auto it = counters_.find(s.key);
        total += static_cast<uint64_t>(s.value) - (it == counters_.end() ? 0 : it->second);
      }
    }
    return static_cast<double>(total);
  };
  auto hv = [&](const char* device, const char* name) {
    return delta([&](const MetricKey& k) {
      return k.domain == "hv" && k.device == device && k.name == name;
    });
  };
  auto named = [&](const char* name) {
    return delta([&](const MetricKey& k) { return k.name == name; });
  };
  add("hypercalls", hv("hypercall", "issued"));
  add("grant_copies", hv("grant", "copies"));
  add("grant_maps", hv("grant", "maps"));
  add("evtchn_sent", hv("evtchn", "sent"));
  add("evtchn_coalesced", hv("evtchn", "coalesced"));
  add("tcp_retransmits", delta([](const MetricKey& k) {
        return k.device == "tcp" && k.name == "retransmits";
      }));
  add("rx_queue_drops", named("rx_queue_drops"));
  add("persistent_hits", named("persistent_hits"));
  add("segments_handled", named("segments_handled"));
  add("indirect_requests", named("indirect_requests"));
  add("requests_handled", named("requests_handled"));

  // Stage histograms (cleared at Begin), merged over every instance.
  for (const char* name :
       {"rx_queue_ns", "rx_service_ns", "req_queue_ns", "req_service_ns", "device_ns"}) {
    for (const auto& s : snapshot) {
      if (s.kind == MetricRegistry::Kind::kLatency && s.key.name == name) {
        sketches_[name].Add(*reg.latency(s.key.domain, s.key.device, s.key.name));
      }
    }
  }

  // CPU ledgers (simulated ns), enabled at Begin so they cover the window.
  const std::vector<const Vcpu*> drivers = w.DriverVcpus();
  const std::vector<const Vcpu*> guests = GuestVcpus(sys);
  const std::vector<const Vcpu*> all = AllVcpus(sys);
  auto ns = [](int64_t v) { return static_cast<double>(v); };
  add("net_driver_ns", ns(LedgerNs(drivers, {"net/bridge", "net/nic"})));
  add("net_stack_ns", ns(LedgerNs(guests, {"net/stack"}) + DepartedNs(w, {"net/stack"})));
  add("grant_copy_ns", ns(LedgerNs(drivers, {"hv/grant_copy"})));
  add("xenstore_ns",
      ns(LedgerNs(all, {"hv/xenstore_op"}) + DepartedNs(w, {"hv/xenstore_op"})));
  add("netback_ns", ns(LedgerNs(drivers, {"netback/tx", "netback/rx"})));
  add("blkback_ns", ns(LedgerNs(drivers, {"blkback/request"})));
  add("app_ns", ns(LedgerNs(all, {"app/workload"}) + DepartedNs(w, {"app/workload"})));
  for (const Vcpu* v : drivers) {
    if (v->ledger() != nullptr) {
      sketches_["driver_wait_ns"].Add(v->ledger()->wait_hist);
    }
  }

  // Growth that outlives the ops: xenstore nodes and registry keys.
  add("xenstore_nodes_left", static_cast<double>(CountNodes(sys.hv().store(), "/")) -
                                 static_cast<double>(xenstore_nodes_));
  add("registry_keys_left",
      static_cast<double>(reg.size()) - static_cast<double>(registry_keys_));
}

std::map<std::string, double> LayerProbe::Report() {
  std::map<std::string, double> m;
  auto per_op = [&](const char* metric, const char* total) {
    m[metric] = totals_[total] / ops_;
  };
  auto ratio = [&](const char* metric, const char* num, const char* den) {
    if (totals_[den] > 0) {
      m[metric] = totals_[num] / totals_[den];
    }
  };
  auto quantile_us = [&](const char* metric, const char* sketch, uint64_t per_mille) {
    QuantileSketch& s = sketches_[sketch];
    if (!s.empty()) {
      m[metric] = static_cast<double>(s.Quantile(per_mille)) / 1000.0;
    }
  };
  per_op("hv.hypercalls_per_op", "hypercalls");
  per_op("hv.grant_copies_per_op", "grant_copies");
  per_op("hv.grant_maps_per_op", "grant_maps");
  per_op("hv.evtchn_sent_per_op", "evtchn_sent");
  ratio("hv.evtchn_coalesced_ratio", "evtchn_coalesced", "evtchn_sent");
  per_op("net.tcp_retransmits_per_op", "tcp_retransmits");
  per_op("netdrv.rx_drops_per_op", "rx_queue_drops");
  ratio("blkdrv.persistent_hit_ratio", "persistent_hits", "segments_handled");
  ratio("blkdrv.indirect_share", "indirect_requests", "requests_handled");
  quantile_us("netdrv.rx_queue_p50_us", "rx_queue_ns", 500);
  quantile_us("netdrv.rx_service_p50_us", "rx_service_ns", 500);
  quantile_us("blkdrv.req_queue_p50_us", "req_queue_ns", 500);
  quantile_us("blkdrv.req_service_p50_us", "req_service_ns", 500);
  quantile_us("blk.device_p50_us", "device_ns", 500);
  quantile_us("sim.driver_wait_p99_us", "driver_wait_ns", 990);
  per_op("net.driver_sim_ns_per_op", "net_driver_ns");
  per_op("net.guest_stack_sim_ns_per_op", "net_stack_ns");
  per_op("hv.grant_copy_sim_ns_per_op", "grant_copy_ns");
  per_op("hv.xenstore_sim_ns_per_op", "xenstore_ns");
  per_op("netdrv.sim_ns_per_op", "netback_ns");
  per_op("blkdrv.sim_ns_per_op", "blkback_ns");
  per_op("workloads.app_sim_ns_per_op", "app_ns");
  per_op("hv.xenstore_nodes_left_per_op", "xenstore_nodes_left");
  per_op("obs.registry_keys_per_op", "registry_keys_left");
  return m;
}

uint64_t QuantileSketch::Quantile(uint64_t per_mille) {
  std::sort(points_.begin(), points_.end());
  uint64_t seen = 0;
  for (const auto& [value, weight] : points_) {
    seen += weight;
    if (seen * 1000 >= per_mille * total_) {
      return value;
    }
  }
  return points_.empty() ? 0 : points_.back().first;
}

}  // namespace perfbench
