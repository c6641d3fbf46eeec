#include "src/core/pool.h"

#include <string>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/core/system.h"

namespace kite {

DomainPool::DomainPool(KiteSystem* sys) : sys_(sys) {}

void DomainPool::AddShard(DriverDomain* dd) {
  KITE_CHECK(dd != nullptr);
  shards_.push_back(Shard{dd->domain()->id(), dd->kind(), true});
}

const DomainPool::Shard* DomainPool::Find(DomId dom) const {
  for (const Shard& s : shards_) {
    if (s.dom == dom) {
      return &s;
    }
  }
  return nullptr;
}

void DomainPool::RemoveShard(DomId dom) {
  for (auto it = shards_.begin(); it != shards_.end(); ++it) {
    if (it->dom == dom) {
      shards_.erase(it);
      return;
    }
  }
}

void DomainPool::SetShardOpen(DomId dom, bool open) {
  for (Shard& s : shards_) {
    if (s.dom == dom) {
      s.open = open;
    }
  }
}

bool DomainPool::IsShardOpen(DomId dom) const {
  const Shard* s = Find(dom);
  return s != nullptr && s->open;
}

bool DomainPool::HasShard(DomId dom) const { return Find(dom) != nullptr; }

std::optional<DeviceKind> DomainPool::KindOf(DomId dom) const {
  const Shard* s = Find(dom);
  return s == nullptr ? std::nullopt : std::optional<DeviceKind>(s->kind);
}

void DomainPool::ReplaceShard(DomId old_dom, DomId new_dom) {
  for (Shard& s : shards_) {
    if (s.dom == old_dom) {
      s.dom = new_dom;
    }
  }
  for (auto& [device, dom] : pins_) {
    if (dom == old_dom) {
      dom = new_dom;
    }
  }
}

size_t DomainPool::HashSlot(DomId guest, size_t open_count) {
  // Fibonacci multiplicative hash: consecutive guest ids spread evenly.
  const uint64_t h = static_cast<uint64_t>(guest) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>((h >> 32) % open_count);
}

std::optional<DomId> DomainPool::PickShard(DomId guest, DeviceKind kind) const {
  auto pin = pins_.find({guest, kind});
  if (pin != pins_.end()) {
    const Shard* s = Find(pin->second);
    if (s == nullptr || s->kind != kind) {
      return std::nullopt;  // Pinned to a departed shard, or one of the other kind.
    }
    return s->dom;
  }
  std::vector<DomId> open;
  for (const Shard& s : shards_) {
    if (s.kind == kind && s.open) {
      open.push_back(s.dom);
    }
  }
  if (open.empty()) {
    return std::nullopt;
  }
  return open[HashSlot(guest, open.size())];
}

NetworkDomain* DomainPool::AttachVif(GuestVm* guest, Ipv4Addr ip) {
  const std::optional<DomId> dom = PickShard(guest->domain()->id(), DeviceKind::kVif);
  NetworkDomain* nd = dom.has_value() ? sys_->FindNetworkDomain(*dom) : nullptr;
  if (nd == nullptr) {
    return nullptr;
  }
  sys_->AttachVif(guest, nd, ip);
  return nd;
}

StorageDomain* DomainPool::AttachVbd(GuestVm* guest) {
  const std::optional<DomId> dom = PickShard(guest->domain()->id(), DeviceKind::kVbd);
  StorageDomain* sd = dom.has_value() ? sys_->FindStorageDomain(*dom) : nullptr;
  if (sd == nullptr) {
    return nullptr;
  }
  sys_->AttachVbd(guest, sd);
  return sd;
}

int DomainPool::Load(DomId dom, DeviceKind kind) const {
  return static_cast<int>(sys_->LinkedGuests(kind, dom).size());
}

std::optional<DomId> DomainPool::LeastLoadedShard(DeviceKind kind, DomId exclude) const {
  std::optional<DomId> best;
  int best_load = 0;
  for (const Shard& s : shards_) {
    if (s.kind != kind || !s.open || s.dom == exclude) {
      continue;
    }
    const int load = Load(s.dom, kind);
    if (!best.has_value() || load < best_load) {
      best = s.dom;
      best_load = load;
    }
  }
  return best;
}

std::vector<DomainPool::ShardInfo> DomainPool::Shards(DeviceKind kind) const {
  std::vector<ShardInfo> out;
  for (const Shard& s : shards_) {
    if (s.kind == kind) {
      out.push_back(ShardInfo{s.dom, s.open, Load(s.dom, kind)});
    }
  }
  PublishGauges();
  return out;
}

void DomainPool::PublishGauges() const {
  MetricRegistry& reg = sys_->metric_registry();
  for (const Shard& s : shards_) {
    const bool vif = s.kind == DeviceKind::kVif;
    const std::string device = StrFormat(vif ? "net%d" : "stor%d", s.dom);
    reg.gauge("pool", device, vif ? "vif_load" : "vbd_load")->Set(Load(s.dom, s.kind));
    reg.gauge("pool", device, "open")->Set(s.open ? 1 : 0);
  }
}

}  // namespace kite
