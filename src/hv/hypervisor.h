// The hypervisor: the only trusted component (paper §3.1).
//
// Provides domain lifecycle, event channels (virtual interrupts), grant
// map/copy operations with cost accounting, xenstore (run by the xenstored
// daemon, conceptually in Dom0), and PCI passthrough. It also owns the
// machine-wide services every component reports into: the metric registry,
// the event tracer, the flight recorder, the health watchdog and the fault
// injector.
#ifndef SRC_HV_HYPERVISOR_H_
#define SRC_HV_HYPERVISOR_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault.h"
#include "src/hv/domain.h"
#include "src/hv/pci.h"
#include "src/hv/xenstore.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "src/sim/executor.h"

namespace kite {

// Hypercall and event cost parameters, calibrated to a Xeon E5-2695-class
// machine (paper Table 2). These costs are what make "hypercalls are
// expensive" true in simulation — the premise behind Kite's dedicated
// threads, persistent grants, and request batching.
struct HvCosts {
  SimDuration hypercall = Nanos(650);        // Bare VMEXIT/VMENTER round trip.
  SimDuration event_send = Nanos(700);       // EVTCHNOP_send from the caller.
  SimDuration event_delivery = Micros(1);    // Latency until the peer's handler runs.
  SimDuration irq_dispatch = Nanos(400);     // Charged to the receiving vCPU.
  SimDuration grant_map = Nanos(1100);       // Per-page map hypercall share.
  SimDuration grant_unmap = Nanos(1600);     // Unmap incl. TLB shootdown.
  SimDuration grant_copy_base = Nanos(350);  // Per-op fixed cost.
  double copy_ns_per_byte = 0.11;            // ~9 GB/s hypervisor-mediated copy.
  SimDuration xenstore_op = XenStore::kOpLatency;  // One xenstored round trip.
};
inline constexpr HvCosts kHvCosts{};

class Hypervisor {
 public:
  // Builds the machine-wide services, then Dom0. The watchdog is not
  // started: KiteSystem subscribes and starts it.
  explicit Hypervisor(Executor* executor, HealthParams health = HealthParams{},
                      uint64_t fault_seed = kDefaultFaultSeed);
  ~Hypervisor();

  Executor* executor() const { return executor_; }
  const HvCosts& costs() const { return kHvCosts; }
  XenStore& store() { return store_; }

  // --- Machine-wide services (the hypervisor is the one object every
  // driver holds). ---
  // The registry every component reports into; the hypervisor's own
  // counters live under ("hv", <device>, <name>).
  MetricRegistry& metrics() { return metrics_; }
  // Off until enabled; a disabled site costs one enabled() load.
  EventTracer& tracer() { return tracer_; }
  // Always on: domain lifecycle, grant map/unmap, dropped events, xenbus
  // switches and fault trips are recorded unconditionally.
  FlightRecorder& recorder() { return recorder_; }
  // Backend instances register their per-instance samplers here.
  HealthMonitor& health() { return health_; }
  // Grant maps, event sends and domain xenstore reads consult it, and so do
  // the disks and NICs it is handed to. XenbusClient state reads bypass
  // Domain wrappers on purpose and stay reliable — the reconnect protocol
  // needs a ground truth.
  FaultInjector& faults() { return faults_; }

  // --- CPU attribution (DESIGN.md §16). ---
  // Once enabled, every vCPU of every domain (existing and future) carries a
  // (category → ns) ledger; hypercall paths in this class credit their own
  // categories (hv/grant_copy, hv/evtchn_send, hv/irq_dispatch, ...).
  // Accounting-only: enabling never changes any Charge timing.
  void EnableCpuAttribution();
  bool cpu_attribution() const { return cpu_attribution_; }

  // --- Domains. ---
  // Dom0 is created by the constructor with id 0.
  Domain* dom0() { return domains_[0].get(); }
  Domain* CreateDomain(const std::string& name, int vcpus, int memory_mb);
  Domain* domain(DomId id);
  // Destroys a domain: revokes event channels and PCI assignments. Used by
  // the driver-domain restart scenario.
  void DestroyDomain(DomId id);
  int live_domain_count() const;

  // --- Event channels. ---
  EvtPort EventAllocUnbound(Domain* caller, DomId remote);
  EvtPort EventBindInterdomain(Domain* caller, DomId remote_dom, EvtPort remote_port);
  void EventSetHandler(Domain* dom, EvtPort port, std::function<void()> fn);
  // Sends an event through the caller's port. Pending events coalesce: a
  // second send before delivery does not produce a second interrupt.
  // caller_vcpu: the vCPU executing the hypercall (defaults to vCPU 0).
  bool EventSend(Domain* caller, EvtPort port, Vcpu* caller_vcpu = nullptr);
  void EventClose(Domain* dom, EvtPort port);

  // --- Grant operations (the mapper/copier is charged). ---
  MappedGrant GrantMap(Domain* mapper, DomId owner, GrantRef ref, bool write_access,
                       Vcpu* caller_vcpu = nullptr);
  bool GrantCopyToGranted(Domain* caller, DomId owner, GrantRef ref, size_t offset,
                          std::span<const uint8_t> src, Vcpu* caller_vcpu = nullptr);
  bool GrantCopyFromGranted(Domain* caller, DomId owner, GrantRef ref, size_t offset,
                            std::span<uint8_t> dst, Vcpu* caller_vcpu = nullptr);

  // --- PCI passthrough. ---
  bool AssignPci(PciDevice* device, Domain* owner);
  void UnassignPci(PciDevice* device);

  // --- Charged xenstore access (used by Domain wrappers). ---
  void ChargeXenstoreOp(Domain* caller);

  // --- Introspection for tests/benches (registry-backed). ---
  uint64_t hypercalls_issued() const { return hypercalls_->value(); }
  uint64_t events_sent() const { return events_sent_->value(); }
  uint64_t events_delivered() const { return events_delivered_->value(); }
  uint64_t grant_maps() const { return grant_maps_->value(); }
  uint64_t grant_unmaps() const { return grant_unmaps_->value(); }
  uint64_t grant_copies() const { return grant_copies_->value(); }
  // Event notifications accepted but dropped by fault injection.
  uint64_t events_dropped() const { return events_dropped_->value(); }
  // Mappings force-dropped because the mapping domain was destroyed.
  uint64_t forced_grant_revocations() const { return forced_grant_revocations_->value(); }
  // GrantMap hypercalls that returned an invalid mapping (injected fault,
  // dead owner, bogus ref, or permission failure). Together with unmaps,
  // forced revocations, and live tables' outstanding maps these make the
  // grant ledger exact: maps == fails + unmaps + forced + outstanding.
  uint64_t grant_map_fails() const { return grant_map_fails_->value(); }
  // Sends absorbed by an already-pending port (no second interrupt).
  uint64_t events_coalesced() const { return events_coalesced_->value(); }
  // Sends accepted but never delivered: the peer was gone at send time, or
  // the port/domain vanished while the delivery was in flight. Once the
  // queue is quiet: delivered == sent - dropped - coalesced - vanished.
  uint64_t events_vanished() const { return events_vanished_->value(); }
  // Allocated event-channel ports of one domain (leak accounting in tests).
  int open_port_count(DomId id) const;
  // Ids of domains currently alive (Dom0 included).
  std::vector<DomId> live_domains() const;
  // (port, peer domain) for every interdomain-bound port of `id` — the
  // invariant checker verifies every peer is still alive.
  std::vector<std::pair<EvtPort, DomId>> BoundPorts(DomId id) const;

 private:
  void Charge(Domain* dom, SimDuration cost, Vcpu* caller_vcpu, const char* op);
  Domain::PortInfo* PortOf(Domain* dom, EvtPort port);

  Executor* executor_;
  // The services come first, so they outlive the store and every domain.
  MetricRegistry metrics_;
  EventTracer tracer_;
  FlightRecorder recorder_;
  HealthMonitor health_;
  FaultInjector faults_;
  XenStore store_;
  bool cpu_attribution_ = false;
  // Indexed by id; a destroyed domain leaves a null slot.
  std::vector<std::unique_ptr<Domain>> domains_;
  // The live domains, in id order: what DestroyDomain and the live-domain
  // queries visit instead of every slot.
  std::vector<Domain*> live_;
  std::vector<PciDevice*> pci_devices_;

  Counter* hypercalls_;
  Counter* events_sent_;
  Counter* events_delivered_;
  Counter* events_dropped_;
  Counter* grant_maps_;
  Counter* grant_unmaps_;
  Counter* grant_copies_;
  Counter* grant_copy_bytes_;
  // Grant copies refused because offset/size fell outside the granted page
  // (the hypervisor is the last line of defense against malformed rings).
  Counter* grant_copy_rejects_;
  Counter* forced_grant_revocations_;
  Counter* grant_map_fails_;
  Counter* events_coalesced_;
  Counter* events_vanished_;
};

}  // namespace kite

#endif  // SRC_HV_HYPERVISOR_H_
