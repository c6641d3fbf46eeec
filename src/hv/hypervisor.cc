#include "src/hv/hypervisor.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/hv/xenbus.h"

namespace kite {

Hypervisor::Hypervisor(Executor* executor, HealthParams health, uint64_t fault_seed)
    : executor_(executor),
      recorder_(executor),
      health_(executor, &metrics_, &recorder_, health),
      faults_(fault_seed, &metrics_, &recorder_),
      store_(executor, &recorder_) {
  hypercalls_ = metrics_.counter("hv", "hypercall", "issued");
  events_sent_ = metrics_.counter("hv", "evtchn", "sent");
  events_delivered_ = metrics_.counter("hv", "evtchn", "delivered");
  events_dropped_ = metrics_.counter("hv", "evtchn", "dropped");
  grant_maps_ = metrics_.counter("hv", "grant", "maps");
  grant_unmaps_ = metrics_.counter("hv", "grant", "unmaps");
  grant_copies_ = metrics_.counter("hv", "grant", "copies");
  grant_copy_bytes_ = metrics_.counter("hv", "grant", "copy_bytes");
  grant_copy_rejects_ = metrics_.counter("hv", "grant", "copy_rejects");
  forced_grant_revocations_ = metrics_.counter("hv", "grant", "forced_revocations");
  grant_map_fails_ = metrics_.counter("hv", "grant", "map_fails");
  events_coalesced_ = metrics_.counter("hv", "evtchn", "coalesced");
  events_vanished_ = metrics_.counter("hv", "evtchn", "vanished");
  // Dom0: the privileged administrative VM (runs xenstored).
  domains_.push_back(std::make_unique<Domain>(this, 0, "Domain-0", 1, 8192));
  domains_[0]->set_online(true);
  live_.push_back(domains_[0].get());
  tracer_.SetProcessName(0, "Domain-0");
}

Hypervisor::~Hypervisor() = default;

Domain* Hypervisor::CreateDomain(const std::string& name, int vcpus, int memory_mb) {
  DomId id = static_cast<DomId>(domains_.size());
  domains_.push_back(std::make_unique<Domain>(this, id, name, vcpus, memory_mb));
  Domain* dom = domains_.back().get();
  live_.push_back(dom);  // Ids only grow, so live_ stays in id order.
  // Dom0 provisions the new domain's xenstore home.
  store_.Write(kDom0, dom->store_home() + "/name", name);
  store_.SetPermission(kDom0, dom->store_home(), id);
  // Name metadata is recorded even while tracing is disabled (it is cheap
  // and bounded by domain count), so enabling the tracer mid-run still
  // produces traces with named pid tracks.
  tracer_.SetProcessName(id, name);
  if (tracer_.enabled()) {
    tracer_.Instant(id, 0, "lifecycle", "domain_create", executor_->Now());
  }
  recorder_.Record(id, FlightKind::kDomainCreated, 0, static_cast<uint64_t>(vcpus),
                   static_cast<uint64_t>(memory_mb));
  return dom;
}

Domain* Hypervisor::domain(DomId id) {
  if (id < 0 || static_cast<size_t>(id) >= domains_.size()) {
    return nullptr;
  }
  return domains_[id].get();
}

void Hypervisor::DestroyDomain(DomId id) {
  KITE_CHECK(id != 0) << "cannot destroy Dom0";
  Domain* dom = domain(id);
  if (dom == nullptr) {
    return;
  }
  // Toolstack: walk every device this domain backed and step its state
  // through Closing → Closed, so surviving frontends *observe* backend death
  // instead of silently talking to a dangling ring. (The subtree removal
  // below also fires these watchers, but the explicit state writes are what
  // the xenbus protocol promises them.)
  const std::string backend_root = dom->store_home() + "/backend";
  if (auto types = store_.List(kDom0, backend_root); types.has_value()) {
    for (const std::string& type : *types) {
      const std::string type_dir = backend_root + "/" + type;
      auto fdoms = store_.List(kDom0, type_dir);
      if (!fdoms.has_value()) {
        continue;
      }
      for (const std::string& fdom : *fdoms) {
        auto devs = store_.List(kDom0, type_dir + "/" + fdom);
        if (!devs.has_value()) {
          continue;
        }
        for (const std::string& dev : *devs) {
          const std::string state = type_dir + "/" + fdom + "/" + dev + "/state";
          store_.WriteInt(kDom0, state, static_cast<int>(XenbusState::kClosing));
          store_.WriteInt(kDom0, state, static_cast<int>(XenbusState::kClosed));
        }
      }
    }
  }
  // Close all event channels (notifying nothing; peers see silence).
  for (size_t p = 0; p < dom->ports_.size(); ++p) {
    if (dom->ports_[p].allocated) {
      EventClose(dom, static_cast<EvtPort>(p));
    }
  }
  // Force-drop the mappings the dead domain held in every surviving grant
  // table — the mapper is gone and will never unmap gracefully. Owners can
  // then reclaim their pages with EndAccess. A table the dead domain maps
  // nothing from answers from its per-peer count without a walk.
  for (Domain* d : live_) {
    if (d != dom) {
      forced_grant_revocations_->Add(
          static_cast<uint64_t>(d->grant_table().RevokeMappingsFor(id)));
    }
  }
  // The dead domain's own table vanishes with it; mappings peers still hold
  // into it can never be unmapped gracefully (MappedGrant::Unmap sees the
  // dead alive-token and skips the hypercall), so they are force-dropped
  // here — without this the grant ledger would leak on every guest death.
  forced_grant_revocations_->Add(
      static_cast<uint64_t>(dom->grant_table().total_maps_outstanding()));
  // Release PCI devices.
  for (PciDevice* dev : pci_devices_) {
    if (dev->owner_ == dom) {
      UnassignPci(dev);
    }
  }
  // Drop the dead domain's watches so no in-flight xenstored event can call
  // back into its (about to be freed) drivers.
  store_.RemoveWatchesOwnedBy(id);
  // Remove the domain's xenstore subtree, notifying watchers of every node.
  store_.RemoveSubtree(kDom0, dom->store_home());
  if (tracer_.enabled()) {
    tracer_.Instant(id, 0, "lifecycle", "domain_destroy", executor_->Now());
  }
  recorder_.Record(id, FlightKind::kDomainDestroyed);
  recorder_.DomainDestroyed(id);
  live_.erase(std::lower_bound(live_.begin(), live_.end(), id,
                               [](const Domain* d, DomId v) { return d->id() < v; }));
  domains_[id].reset();
}

int Hypervisor::open_port_count(DomId id) const {
  if (id < 0 || static_cast<size_t>(id) >= domains_.size() || domains_[id] == nullptr) {
    return 0;
  }
  int n = 0;
  for (const Domain::PortInfo& p : domains_[id]->ports_) {
    if (p.allocated) {
      ++n;
    }
  }
  return n;
}

int Hypervisor::live_domain_count() const { return static_cast<int>(live_.size()); }

std::vector<DomId> Hypervisor::live_domains() const {
  std::vector<DomId> ids;
  ids.reserve(live_.size());
  for (const Domain* d : live_) {
    ids.push_back(d->id());
  }
  return ids;
}

std::vector<std::pair<EvtPort, DomId>> Hypervisor::BoundPorts(DomId id) const {
  std::vector<std::pair<EvtPort, DomId>> out;
  if (id < 0 || static_cast<size_t>(id) >= domains_.size() || domains_[id] == nullptr) {
    return out;
  }
  const auto& ports = domains_[id]->ports_;
  for (size_t p = 0; p < ports.size(); ++p) {
    if (ports[p].allocated && ports[p].peer_port != kInvalidPort) {
      out.emplace_back(static_cast<EvtPort>(p), ports[p].peer_dom);
    }
  }
  return out;
}

void Hypervisor::EnableCpuAttribution() {
  cpu_attribution_ = true;
  for (Domain* d : live_) {
    for (int i = 0; i < d->vcpu_count(); ++i) {
      d->vcpu(i)->EnableAttribution();
    }
  }
}

void Hypervisor::Charge(Domain* dom, SimDuration cost, Vcpu* caller_vcpu, const char* op) {
  hypercalls_->Inc();
  if (tracer_.enabled()) {
    tracer_.Complete(dom->id(), 0, "hypercall", op, executor_->Now(), cost);
  }
  (caller_vcpu != nullptr ? caller_vcpu : dom->vcpu(0))->Charge(cost);
}

Domain::PortInfo* Hypervisor::PortOf(Domain* dom, EvtPort port) {
  if (dom == nullptr || port < 0 || static_cast<size_t>(port) >= dom->ports_.size() ||
      !dom->ports_[port].allocated) {
    return nullptr;
  }
  return &dom->ports_[port];
}

EvtPort Hypervisor::EventAllocUnbound(Domain* caller, DomId remote) {
  CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/evtchn_ctl"));
  Charge(caller, kHvCosts.hypercall, nullptr, "evtchn_alloc_unbound");
  EvtPort port = static_cast<EvtPort>(caller->ports_.size());
  caller->ports_.emplace_back();
  Domain::PortInfo& info = caller->ports_.back();
  info.allocated = true;
  info.unbound_for = remote;
  return port;
}

EvtPort Hypervisor::EventBindInterdomain(Domain* caller, DomId remote_dom,
                                         EvtPort remote_port) {
  CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/evtchn_ctl"));
  Charge(caller, kHvCosts.hypercall, nullptr, "evtchn_bind_interdomain");
  Domain* remote = domain(remote_dom);
  Domain::PortInfo* rinfo = PortOf(remote, remote_port);
  if (rinfo == nullptr || rinfo->unbound_for != caller->id() ||
      rinfo->peer_port != kInvalidPort) {
    return kInvalidPort;
  }
  EvtPort port = static_cast<EvtPort>(caller->ports_.size());
  caller->ports_.emplace_back();
  Domain::PortInfo& info = caller->ports_.back();
  info.allocated = true;
  info.peer_dom = remote_dom;
  info.peer_port = remote_port;
  rinfo->peer_dom = caller->id();
  rinfo->peer_port = port;
  return port;
}

void Hypervisor::EventSetHandler(Domain* dom, EvtPort port, std::function<void()> fn) {
  Domain::PortInfo* info = PortOf(dom, port);
  KITE_CHECK(info != nullptr);
  info->handler = std::move(fn);
}

bool Hypervisor::EventSend(Domain* caller, EvtPort port, Vcpu* caller_vcpu) {
  Domain::PortInfo* info = PortOf(caller, port);
  if (info == nullptr || info->peer_port == kInvalidPort) {
    return false;
  }
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/evtchn_send"));
    Charge(caller, kHvCosts.event_send, caller_vcpu, "evtchn_send");
  }
  events_sent_->Inc();
  Domain* peer = domain(info->peer_dom);
  if (peer == nullptr) {
    events_vanished_->Inc();
    recorder_.Record(caller->id(), FlightKind::kEventVanished, port);
    return false;
  }
  Domain::PortInfo* pinfo = PortOf(peer, info->peer_port);
  if (pinfo == nullptr) {
    events_vanished_->Inc();
    recorder_.Record(caller->id(), FlightKind::kEventVanished, port);
    return false;
  }
  if (pinfo->pending) {
    // Event coalescing: an undelivered event absorbs further sends.
    events_coalesced_->Inc();
    if (tracer_.enabled()) {
      tracer_.Instant(caller->id(), 0, "evtchn", "evt_coalesced", executor_->Now(), "port",
                      port);
    }
    return true;
  }
  if (faults_.ShouldFail(FaultSite::kEventNotify)) {
    // The hypercall "succeeded" but the interrupt is lost. Deliberately does
    // NOT set pending — that would absorb every later send and wedge the
    // port forever instead of modelling one lost notification.
    events_dropped_->Inc();
    if (tracer_.enabled()) {
      tracer_.Instant(caller->id(), 0, "evtchn", "evt_dropped", executor_->Now(), "port",
                      port);
    }
    recorder_.Record(caller->id(), FlightKind::kEventDropped, port);
    return true;
  }
  pinfo->pending = true;
  DomId peer_id = peer->id();
  EvtPort peer_port = info->peer_port;
  executor_->PostAfter(kHvCosts.event_delivery, KITE_POST_SITE("hv/evtchn-notify"),
                       [this, peer_id, peer_port] {
    Domain* d = domain(peer_id);
    Domain::PortInfo* pi = PortOf(d, peer_port);
    if (pi == nullptr) {
      events_vanished_->Inc();
      recorder_.Record(peer_id, FlightKind::kEventVanished, peer_port);
      return;  // Domain or port vanished in flight.
    }
    pi->pending = false;
    events_delivered_->Inc();
    if (tracer_.enabled()) {
      tracer_.Instant(peer_id, 0, "evtchn", "evt_deliver", executor_->Now(), "port",
                      peer_port);
    }
    {
      // Scoped to the dispatch charge only: the handler body below sets its
      // own categories (netback/rx, blkfront/io, ...).
      CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/irq_dispatch"));
      d->vcpu(0)->Charge(kHvCosts.irq_dispatch);
    }
    if (pi->handler) {
      pi->handler();
    }
  });
  return true;
}

void Hypervisor::EventClose(Domain* dom, EvtPort port) {
  Domain::PortInfo* info = PortOf(dom, port);
  if (info == nullptr) {
    return;
  }
  // Unlink the peer end.
  if (info->peer_port != kInvalidPort) {
    Domain* peer = domain(info->peer_dom);
    Domain::PortInfo* pinfo = PortOf(peer, info->peer_port);
    if (pinfo != nullptr) {
      pinfo->peer_dom = -1;
      pinfo->peer_port = kInvalidPort;
    }
  }
  info->allocated = false;
  info->handler = nullptr;
  info->pending = false;
  info->peer_port = kInvalidPort;
}

MappedGrant Hypervisor::GrantMap(Domain* mapper, DomId owner, GrantRef ref,
                                 bool write_access, Vcpu* caller_vcpu) {
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/grant_map"));
    Charge(mapper, kHvCosts.grant_map, caller_vcpu, "gnttab_map");
  }
  grant_maps_->Inc();
  auto record_fail = [&] {
    grant_map_fails_->Inc();
    recorder_.Record(mapper->id(), FlightKind::kGrantMapFail, owner,
                     static_cast<uint64_t>(ref));
  };
  if (faults_.ShouldFail(FaultSite::kGrantMap)) {
    record_fail();
    return MappedGrant{};
  }
  Domain* owner_dom = domain(owner);
  if (owner_dom == nullptr) {
    record_fail();
    return MappedGrant{};
  }
  const GrantTable::Entry* e = owner_dom->grant_table().Lookup(ref);
  if (e == nullptr || e->peer != mapper->id() || (write_access && e->readonly)) {
    record_fail();
    return MappedGrant{};
  }
  owner_dom->grant_table().AddMapping(ref);
  recorder_.Record(mapper->id(), FlightKind::kGrantMap, owner, static_cast<uint64_t>(ref));
  Vcpu* mapper_vcpu = caller_vcpu != nullptr ? caller_vcpu : mapper->vcpu(0);
  SimDuration unmap_cost = kHvCosts.grant_unmap;
  DomId mapper_id = mapper->id();
  auto on_unmap = [this, mapper_vcpu, mapper_id, owner, ref, unmap_cost] {
    grant_unmaps_->Inc();
    hypercalls_->Inc();
    if (tracer_.enabled()) {
      tracer_.Complete(mapper_id, 0, "hypercall", "gnttab_unmap", executor_->Now(),
                       unmap_cost);
    }
    recorder_.Record(mapper_id, FlightKind::kGrantUnmap, owner, static_cast<uint64_t>(ref));
    CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/grant_unmap"));
    mapper_vcpu->Charge(unmap_cost);
  };
  return MappedGrant(&owner_dom->grant_table(), ref, e->page, on_unmap);
}

bool Hypervisor::GrantCopyToGranted(Domain* caller, DomId owner, GrantRef ref, size_t offset,
                                    std::span<const uint8_t> src, Vcpu* caller_vcpu) {
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/grant_copy"));
    Charge(caller,
           kHvCosts.grant_copy_base +
               Nanos(static_cast<int64_t>(kHvCosts.copy_ns_per_byte * src.size())),
           caller_vcpu, "gnttab_copy");
  }
  grant_copies_->Inc();
  // Bounds first (overflow-proof form), before any owner-page access: the
  // hypervisor is the last line of defense against malformed ring fields.
  if (offset > kPageSize || src.size() > kPageSize - offset) {
    grant_copy_rejects_->Inc();
    return false;
  }
  Domain* owner_dom = domain(owner);
  if (owner_dom == nullptr) {
    return false;
  }
  const GrantTable::Entry* e = owner_dom->grant_table().Lookup(ref);
  if (e == nullptr || e->peer != caller->id() || e->readonly) {
    return false;
  }
  std::copy(src.begin(), src.end(), e->page->mutable_bytes().begin() + offset);
  grant_copy_bytes_->Add(src.size());
  return true;
}

bool Hypervisor::GrantCopyFromGranted(Domain* caller, DomId owner, GrantRef ref,
                                      size_t offset, std::span<uint8_t> dst,
                                      Vcpu* caller_vcpu) {
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/grant_copy"));
    Charge(caller,
           kHvCosts.grant_copy_base +
               Nanos(static_cast<int64_t>(kHvCosts.copy_ns_per_byte * dst.size())),
           caller_vcpu, "gnttab_copy");
  }
  grant_copies_->Inc();
  if (offset > kPageSize || dst.size() > kPageSize - offset) {
    grant_copy_rejects_->Inc();
    return false;
  }
  Domain* owner_dom = domain(owner);
  if (owner_dom == nullptr) {
    return false;
  }
  const GrantTable::Entry* e = owner_dom->grant_table().Lookup(ref);
  if (e == nullptr || e->peer != caller->id()) {
    return false;
  }
  std::copy_n(e->page->bytes().begin() + offset, dst.size(), dst.begin());
  grant_copy_bytes_->Add(dst.size());
  return true;
}

bool Hypervisor::AssignPci(PciDevice* device, Domain* owner) {
  if (device->owner_ != nullptr) {
    return false;
  }
  device->owner_ = owner;
  if (std::find(pci_devices_.begin(), pci_devices_.end(), device) == pci_devices_.end()) {
    pci_devices_.push_back(device);
  }
  device->OnAssigned(owner);
  return true;
}

void Hypervisor::UnassignPci(PciDevice* device) {
  if (device->owner_ == nullptr) {
    return;
  }
  device->owner_ = nullptr;
  device->OnUnassigned();
}

void Hypervisor::ChargeXenstoreOp(Domain* caller) {
  CpuScope cpu_scope(KITE_CPU_CATEGORY("hv/xenstore_op"));
  Charge(caller, kHvCosts.xenstore_op, nullptr, "xenstore_op");
}

}  // namespace kite
