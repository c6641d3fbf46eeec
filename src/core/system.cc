#include "src/core/system.h"

#include <cstdlib>
#include <iostream>
#include <map>

#include "src/base/artifact.h"
#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/core/invariants.h"
#include "src/core/migrate.h"
#include "src/obs/profile.h"

namespace kite {
namespace {

// Driver-domain memory by personality (paper §5: Kite's small footprint).
constexpr int kKiteDriverDomainMemoryMb = 1024;
constexpr int kLinuxDriverDomainMemoryMb = 2048;

// The testbed subnet: the gateway is .1 and the client machine .2.
constexpr Ipv4Addr kSubnetBase = Ipv4Addr::FromOctets(10, 0, 0, 0);

// Writes one env-requested export (KITE_TIMELINE, KITE_PROFILE, KITE_CPU) at
// teardown, or warns; an empty path means the variable was unset.
template <typename Render>
void WriteEnvArtifact(const std::string& path, const char* what, Render render) {
  if (!path.empty() && !WriteArtifactFile(path, render())) {
    KITE_LOG(Warning) << "cannot write " << what << " to " << path;
  }
}

}  // namespace

DriverDomain::DriverDomain(DeviceKind kind, const char* vm_role, bool sharded,
                           DriverDomainConfig config)
    : kind_(kind),
      vm_role_(vm_role),
      sharded_(sharded),
      config_(config),
      os_(&DriverDomainProfile(config.os, /*storage=*/kind == DeviceKind::kVbd)) {}

std::vector<BmkSched*> DriverDomain::scheds() const {
  std::vector<BmkSched*> out;
  for (const auto& s : scheds_) {
    out.push_back(s.get());
  }
  return out;
}

void NetworkDomain::StartServices() {
  driver_ = std::make_unique<NetworkBackendDriver>(
      domain(), scheds(),
      [dom = domain(), costs = &os()->costs, params = netback_](
          BmkSched* sched, DomId frontend_dom, int devid) {
        return std::make_unique<NetbackInstance>(dom, sched, costs, params, frontend_dom,
                                                 devid);
      });
  app_ = std::make_unique<NetworkApp>(scheds().front(), driver_.get(), nic_->netif(),
                                      gateway_ip_);
}

void StorageDomain::StartServices() {
  driver_ = std::make_unique<StorageBackendDriver>(
      domain(), scheds(),
      [dom = domain(), costs = &os()->costs, disk = disk_.get(), params = blkback_](
          BmkSched* sched, DomId frontend_dom, int devid) {
        return std::make_unique<BlkbackInstance>(dom, sched, costs, params, disk,
                                                 frontend_dom, devid);
      });
  app_ = std::make_unique<BlockStatusApp>(scheds().front(), driver_.get());
}

KiteSystem::KiteSystem(Params params)
    : params_(params),
      hv_(std::make_unique<Hypervisor>(&executor_, params_.health, params_.fault_seed)),
      sampler_(&executor_, &hv_->metrics(), params_.sampler) {
  // Health verdicts are published into xenstore next to the device state, so
  // a stalled backend is visible to the same tooling that watches xenbus.
  // Subscribing first puts this ahead of every other subscriber.
  health().Subscribe([this](int32_t dom, const std::string& device, HealthState,
                            HealthState state) {
    if (hv_->domain(static_cast<DomId>(dom)) == nullptr) {
      return;  // Transition raced with domain teardown.
    }
    hv_->store().Write(kDom0,
                       DomainPath(static_cast<DomId>(dom)) + "/health/" + device,
                       HealthStateName(state));
  });
  health().Start();
  migrate_ = std::make_unique<MigrationEngine>(this);
  // Any KITE_CHECK failure anywhere in this process now dumps the full
  // diagnostic bundle to stderr before aborting.
  prev_fatal_ = SetFatalHandler([this] { DumpDiagnostics(std::cerr); });
  gateway_ip_ = Ipv4Addr{kSubnetBase.value + 1};
  client_ip_ = Ipv4Addr{kSubnetBase.value + 2};
  if (const char* path = std::getenv("KITE_TRACE"); path != nullptr && path[0] != '\0') {
    trace_env_path_ = path;
    EnableTracing();
  }
  if (const char* path = std::getenv("KITE_TIMELINE");
      path != nullptr && path[0] != '\0') {
    timeline_env_path_ = path;
  }
  if (const char* path = std::getenv("KITE_CPU"); path != nullptr && path[0] != '\0') {
    cpu_env_path_ = path;
  }
  if (!cpu_env_path_.empty()) {
    EnableCpuAttribution();
  }
  if (!timeline_env_path_.empty()) {
    sampler_.Start();
  }
  if (const char* path = std::getenv("KITE_PROFILE");
      path != nullptr && path[0] != '\0') {
    profile_env_path_ = path;
    executor_.EnableDispatchProfiler();
  }
}

KiteSystem::~KiteSystem() {
  SetFatalHandler(std::move(prev_fatal_));
  if (!trace_env_path_.empty()) {
    DumpTrace(trace_env_path_);
  }
  WriteEnvArtifact(timeline_env_path_, "timeline", [this] { return sampler_.ToJson(); });
  WriteEnvArtifact(profile_env_path_, "dispatch profile",
                   [this] { return DispatchProfileJson(executor_); });
  WriteEnvArtifact(cpu_env_path_, "cpu report", [this] { return CpuReportJson(); });
}

void KiteSystem::EnableCpuAttribution() {
  hv_->EnableCpuAttribution();  // Retrofits live domains, covers new ones.
  if (client_ != nullptr) {
    client_->vcpu_->EnableAttribution();
  }
}

std::vector<CpuActor> KiteSystem::CpuActors() {
  const std::vector<DomId> ids = hv_->live_domains();
  // Two live driver domains can share a personality name ("kite-netdom");
  // dedupe with the domain id so metric keys and report lines stay distinct.
  std::map<std::string, int> name_count;
  for (DomId id : ids) {
    ++name_count[hv_->domain(id)->name()];
  }
  std::vector<CpuActor> actors;
  for (DomId id : ids) {
    Domain* dom = hv_->domain(id);
    std::string label = dom->name();
    if (name_count[label] > 1) {
      label += StrFormat("#%d", static_cast<int>(id));
    }
    for (int i = 0; i < dom->vcpu_count(); ++i) {
      actors.push_back({label, i, dom->vcpu(i)});
    }
  }
  if (client_ != nullptr) {
    actors.push_back({"client", 0, client_->vcpu_.get()});
  }
  return actors;
}

std::string KiteSystem::CpuReportJson() {
  return kite::CpuReportJson(CpuActors(), Now());
}

std::string KiteSystem::FormatMetrics(bool skip_zero, const std::string& prefix) {
  // The tracer keeps its own drop count; sync it into a counter before
  // rendering.
  metric_registry().counter("obs", "tracer", "events_dropped")->Set(tracer().dropped());
  return metric_registry().FormatTable(skip_zero, prefix);
}

void KiteSystem::DumpDiagnostics(std::ostream& out) {
  out << "==== KITE DIAGNOSTICS (t=" << StrFormat("%.9f", Now().seconds())
      << "s) ====\n";
  out << "---- health ----\n" << health().FormatTable();
  out << "---- placement ----\n" << FormatPlacement();
  out << "---- flight recorder ----\n" << recorder().FormatAll();
  out << "---- pending events ----\n" << executor_.FormatPendingEvents() << "\n";
  out << "---- invariants ----\n";
  // Mid-run (e.g. a crash inside a traffic phase) the checker reports
  // not-quiesced and skips the ledgers — the right answer for a dump taken
  // while work is in flight.
  std::vector<Violation> violations = InvariantChecker(this).Check();
  if (violations.empty()) {
    out << "  all invariants hold\n";
  } else {
    out << InvariantChecker::Format(violations);
  }
  out << "---- cpu ----\n" << FormatCpuAttribution(CpuActors(), Now());
  out << "---- metrics ----\n" << FormatMetrics();
  out << "---- dispatch profile ----\n" << FormatDispatchProfile(executor_);
  out << "==== END KITE DIAGNOSTICS ====\n";
  out.flush();
}

std::string KiteSystem::FormatPlacement() {
  XenStore& store = hv_->store();
  // Rebuilt purely from each guest device's toolstack backend-id, the record
  // LinkedBackend reads, so the table shows what is actually linked — not
  // what any policy object believes. Each device carries the published
  // health verdict of its backend instance (falling back to the live monitor
  // when no transition was ever published).
  const std::vector<std::string> none;
  const std::vector<std::string> doms = store.List(kDom0, "/local/domain").value_or(none);
  std::map<DomId, std::vector<std::string>> shards;
  for (const char* kind : {"vif", "vbd"}) {
    for (const std::string& gid : doms) {
      const std::string devices = "/local/domain/" + gid + "/device/" + kind;
      for (const std::string& devid : store.List(kDom0, devices).value_or(none)) {
        const auto bid = store.ReadInt(kDom0, devices + "/" + devid + "/backend-id");
        if (!bid.has_value()) {
          continue;
        }
        const DomId dom = static_cast<DomId>(*bid);
        const std::string device = StrFormat("%s%s.%s", kind, gid.c_str(), devid.c_str());
        const auto verdict = store.Read(kDom0, DomainPath(dom) + "/health/" + device);
        shards[dom].push_back(
            device + "=" +
            (verdict.has_value() ? *verdict : HealthStateName(health().state(dom, device))));
      }
    }
  }
  if (shards.empty()) {
    return "  (no devices placed)\n";
  }
  std::string out;
  for (const auto& [dom, devices] : shards) {
    out += StrFormat("  shard dom%-4d %2zu device(s):", dom, devices.size());
    for (const std::string& d : devices) {
      out += " " + d;
    }
    out += "\n";
  }
  return out;
}

bool KiteSystem::DumpTrace(const std::string& path) {
  metric_registry().counter("obs", "tracer", "events_dropped")->Set(tracer().dropped());
  if (tracer().dropped() > 0) {
    KITE_LOG(Warning) << "trace dump to " << path << " is truncated: " << tracer().dropped()
                      << " events dropped after hitting the event cap";
  }
  return tracer().DumpTrace(path);
}

NetworkDomain* KiteSystem::CreateNetworkDomain(DriverDomainConfig config,
                                               NetbackParams netback) {
  return Enlist(&network_domains_,
                std::make_unique<NetworkDomain>(config, netback, NewUplink(), gateway_ip_));
}

StorageDomain* KiteSystem::CreateStorageDomain(DriverDomainConfig config,
                                               BlkbackParams blkback) {
  return Enlist(&storage_domains_,
                std::make_unique<StorageDomain>(config, blkback, NewDiskPort()));
}

template <typename D>
D* KiteSystem::Enlist(std::vector<std::unique_ptr<D>>* owned, std::unique_ptr<D> dd) {
  D* raw = dd.get();
  owned->push_back(std::move(dd));
  BringUp(raw);
  return raw;
}

void KiteSystem::BringUp(DriverDomain* dd) {
  const DriverDomainConfig& config = dd->config_;
  const bool kite = config.os == OsKind::kKiteRumprun;
  dd->domain_ = hv_->CreateDomain(StrFormat("%s-%s", kite ? "kite" : "linux", dd->vm_role_),
                                  config.vcpus,
                                  kite ? kKiteDriverDomainMemoryMb : kLinuxDriverDomainMemoryMb);
  const int scheds = dd->sharded_ ? dd->domain_->vcpu_count() : 1;
  for (int i = 0; i < scheds; ++i) {
    dd->scheds_.push_back(std::make_unique<BmkSched>(&executor_, dd->domain_->vcpu(i)));
  }
  hv_->AssignPci(dd->device(), dd->domain_);

  // Services start once the VM is up, unless a restart replaced it meanwhile.
  auto booted = [this, dd, vm = dd->domain_] {
    vm->set_online(true);
    if (dd->domain_ == vm) {
      dd->boot_completed_at_ = Now();
      dd->StartServices();
    }
  };
  if (params_.instant_boot) {
    booted();
    return;
  }
  // Replay the boot phases sequentially.
  SimDuration total;
  for (const BootPhase& phase : dd->os_->boot_phases) {
    total += phase.duration;
  }
  executor_.PostAfter(total, KITE_POST_SITE("system/boot-complete"), booted);
}

std::unique_ptr<Nic> KiteSystem::NewUplink() {
  auto nic = std::make_unique<Nic>(&executor_, StrFormat("0000:03:00.%d", next_nic_fn_++),
                                   "ixg0", MacAddr::FromId(0x100000u + next_mac_id_++),
                                   &faults());
  EnsureClient();
  // Pay-for-use fabric: a single network domain is direct-cabled to the
  // client (the paper's testbed, byte-identical figures); the moment a
  // second uplink appears everything moves behind an EtherSwitch.
  if (switch_ == nullptr && network_domains_.empty()) {
    Nic::ConnectBackToBack(nic.get(), client_->nic_.get());
  } else {
    EnsureSwitch();
    switch_->Plug(nic.get());
  }
  return nic;
}

std::unique_ptr<BlockDevice> KiteSystem::NewDiskPort() {
  // Every storage shard ports the same dual-ported media (fabric-attached
  // storage): per-port timing and queues stay independent, but a write
  // acknowledged through one shard is readable through any other — the
  // property VBD migration relies on.
  if (shared_media_ == nullptr) {
    shared_media_ = std::make_shared<DiskMedia>();
  }
  return std::make_unique<BlockDevice>(&executor_, StrFormat("0000:04:00.%d", next_disk_fn_++),
                                       params_.disk, params_.disk_store_data, shared_media_,
                                       &faults());
}

GuestVm* KiteSystem::CreateGuest(const std::string& name, int vcpus, int memory_mb) {
  auto guest = std::make_unique<GuestVm>();
  guest->domain_ = hv_->CreateDomain(name, vcpus, memory_mb);
  guest->domain_->set_online(true);  // Guests boot outside our measurements.
  GuestVm* raw = guest.get();
  guests_.push_back(std::move(guest));
  return raw;
}

void KiteSystem::DestroyGuest(GuestVm* guest) {
  // Frontend objects first (they hold watches and the Domain pointer), then
  // the domain itself. DestroyDomain removes the guest's xenstore subtree,
  // which fires the backends' frontend-death watches; the drivers reap the
  // orphaned instances on their next wake.
  guest->stack_.reset();
  guest->netfront_.reset();
  guest->blkfront_.reset();
  hv_->DestroyDomain(guest->domain_->id());
  std::erase_if(guests_, [guest](const auto& g) { return g.get() == guest; });
}

void KiteSystem::EnsureClient() {
  if (client_ != nullptr) {
    return;
  }
  client_ = std::make_unique<ClientMachine>();
  client_->vcpu_ = std::make_unique<Vcpu>(&executor_);
  if (hv_->cpu_attribution()) {
    client_->vcpu_->EnableAttribution();
  }
  client_->nic_ = std::make_unique<Nic>(&executor_, "client:0000:02:00.0", "enp2s0",
                                        MacAddr::FromId(0x200000u), &faults());
  client_->nic_->SetProcessingVcpu(client_->vcpu_.get());
  StackParams client_stack;
  if (params_.tcp_metrics) {
    client_stack.metrics = &metric_registry();
    client_stack.metrics_domain = "client";
  }
  client_->stack_ = std::make_unique<EtherStack>(&executor_, client_->vcpu_.get(),
                                                 client_->nic_->netif(), client_stack);
  client_->stack_->ConfigureIp(client_ip_);
}

void KiteSystem::EnsureSwitch() {
  if (switch_ != nullptr) {
    return;
  }
  switch_ = std::make_unique<EtherSwitch>(&executor_, "tor0");
  // Re-cable the existing direct link (client <-> first network domain)
  // through the switch. Frames already on the wire still arrive.
  Nic* client_nic = client_->nic_.get();
  Nic* existing = client_nic->peer();
  if (existing != nullptr) {
    Nic::Disconnect(client_nic);
  }
  switch_->Plug(client_nic);
  if (existing != nullptr) {
    switch_->Plug(existing);
  }
}

GuestVm* KiteSystem::FindGuest(DomId id) {
  for (const auto& g : guests_) {
    if (g->domain_->id() == id) {
      return g.get();
    }
  }
  return nullptr;
}

std::vector<DriverDomain*> KiteSystem::driver_domains() const {
  std::vector<DriverDomain*> all;
  for (const auto& nd : network_domains_) {
    all.push_back(nd.get());
  }
  for (const auto& sd : storage_domains_) {
    all.push_back(sd.get());
  }
  return all;
}

DriverDomain* KiteSystem::FindDriverDomain(DomId id, DeviceKind kind) const {
  for (DriverDomain* dd : driver_domains()) {
    if (dd->domain_->id() == id && dd->kind_ == kind) {
      return dd;
    }
  }
  return nullptr;
}

const XenbusFrontend* GuestVm::frontend(DeviceKind kind) const {
  if (kind == DeviceKind::kVif) {
    return netfront_.get();
  }
  return blkfront_.get();
}

std::optional<DomId> KiteSystem::LinkedBackend(const GuestVm* guest, DeviceKind kind) const {
  const XenbusFrontend* fe = guest->frontend(kind);
  if (fe == nullptr) {
    return std::nullopt;
  }
  auto cur = hv_->store().ReadInt(
      kDom0, FrontendPath(guest->domain_->id(), DeviceTypeName(kind), fe->devid()) +
                 "/backend-id");
  return cur.has_value() ? static_cast<DomId>(*cur) : fe->backend_dom();
}

void KiteSystem::AttachVif(GuestVm* guest, NetworkDomain* netdom, Ipv4Addr ip) {
  KITE_CHECK(guest->netfront_ == nullptr) << "guest already has a VIF";
  const int devid = 0;
  const DomId gid = guest->domain_->id();
  const DomId bid = netdom->domain_->id();
  WriteDeviceLink(gid, DeviceKind::kVif, devid, bid);

  // Guest side: netfront and the network stack on top of it.
  MacAddr mac = MacAddr::FromId(0x300000u + static_cast<uint32_t>(gid));
  guest->netfront_ = std::make_unique<Netfront>(guest->domain_, bid, devid, mac);
  StackParams guest_stack;
  if (params_.tcp_metrics) {
    guest_stack.metrics = &metric_registry();
    guest_stack.metrics_domain = guest->domain_->name();
  }
  guest->stack_ = std::make_unique<EtherStack>(&executor_, guest->domain_->vcpu(0),
                                               guest->netfront_.get(), guest_stack);
  guest->stack_->ConfigureIp(ip);
}

void KiteSystem::AttachVbd(GuestVm* guest, StorageDomain* stordom) {
  KITE_CHECK(guest->blkfront_ == nullptr) << "guest already has a VBD";
  const int devid = 51712;  // xvda.
  const DomId gid = guest->domain_->id();
  const DomId bid = stordom->domain_->id();
  WriteDeviceLink(gid, DeviceKind::kVbd, devid, bid);

  guest->blkfront_ = std::make_unique<Blkfront>(guest->domain_, bid, devid);
}

bool KiteSystem::WaitUntil(const std::function<bool()>& pred, SimDuration timeout) {
  const SimTime deadline = executor_.Now() + timeout;
  while (!pred()) {
    if (executor_.Now() > deadline) {
      // The pending-queue dump turns "stuck seed" reports into actionable
      // ones: it shows what the simulation was still waiting on. The health
      // table names the wedged backend directly (the watchdog usually
      // flagged it long before this timeout fired).
      KITE_LOG(Warning) << "WaitUntil timed out: " << executor_.FormatPendingEvents()
                        << "\n" << health().FormatTable();
      return false;
    }
    if (!executor_.Step()) {
      if (!pred()) {
        KITE_LOG(Warning) << "WaitUntil ran the simulation dry at t="
                          << executor_.Now().seconds()
                          << "s without the predicate holding (0 events pending)";
        return false;
      }
      return true;
    }
  }
  return true;
}

bool KiteSystem::WaitConnected(GuestVm* guest, SimDuration timeout) {
  return WaitUntil(
      [guest] {
        if (guest->netfront() != nullptr && !guest->netfront()->connected()) {
          return false;
        }
        if (guest->blkfront() != nullptr && !guest->blkfront()->connected()) {
          return false;
        }
        return true;
      },
      timeout);
}

void KiteSystem::Migrate(GuestVm* guest, DriverDomain* to, MigrateDone done) {
  KITE_CHECK(to != nullptr);
  KITE_CHECK(guest != nullptr && guest->frontend(to->kind_) != nullptr)
      << "guest has no " << DeviceTypeName(to->kind_);
  migrate_->Migrate(guest->domain_->id(), to->kind_, to->domain_->id(), std::move(done));
}

int KiteSystem::migrations_in_flight() const { return migrate_->in_flight(); }

std::vector<GuestVm*> KiteSystem::LinkedGuests(DeviceKind kind, DomId dom) const {
  std::vector<GuestVm*> linked;
  for (const auto& g : guests_) {
    if (LinkedBackend(g.get(), kind) == dom) {
      linked.push_back(g.get());
    }
  }
  return linked;
}

DriverDomain* KiteSystem::RestartDriverDomain(DriverDomain* dd,
                                              std::function<DriverDomain*(GuestVm*)> place) {
  const DomId old_id = dd->domain_->id();
  const std::vector<GuestVm*> linked = LinkedGuests(dd->kind_, old_id);

  // Tear down the services, then the VM. The device survives the VM: it is
  // unassigned (a disk fails the completions its controller parked for the
  // dead domain) and passed through again to the replacement.
  dd->StopServices();
  hv_->UnassignPci(dd->device());
  hv_->DestroyDomain(old_id);
  dd->scheds_.clear();
  dd->boot_completed_at_ = SimTime();
  BringUp(dd);

  // Restart is "migrate everyone off the corpse": forced moves (the old
  // backend is gone) onto the caller's placement, defaulting to the
  // replacement. The engine serializes per device, so a restart landing
  // mid-migration waits for the move to settle instead of double-relinking.
  for (GuestVm* guest : linked) {
    DriverDomain* target = place ? place(guest) : nullptr;
    migrate_->Migrate(guest->domain_->id(), dd->kind_,
                      (target != nullptr ? target : dd)->domain_->id());
  }
  return dd;
}

bool KiteSystem::Relink(DomId gid, DeviceKind kind, int devid, DomId bid) {
  if (FindDriverDomain(bid, kind) == nullptr) {
    return false;  // Target vanished (destroyed mid-queue).
  }
  WriteDeviceLink(gid, kind, devid, bid);
  return true;
}

void KiteSystem::WriteDeviceLink(DomId gid, DeviceKind kind, int devid, DomId bid) {
  const char* type = DeviceTypeName(kind);
  XenStore& store = hv_->store();
  const std::string fe = FrontendPath(gid, type, devid);
  const std::string be = BackendPath(bid, type, gid, devid);
  store.Write(kDom0, be + "/frontend", fe);
  store.WriteInt(kDom0, be + "/frontend-id", gid);
  store.WriteInt(kDom0, be + "/online", 1);
  if (kind == DeviceKind::kVif) {
    // A vbd's backend node starts without a state.
    store.WriteInt(kDom0, be + "/state", static_cast<int>(XenbusState::kInitialising));
  }
  store.Write(kDom0, fe + "/backend", be);
  // Both directories exist now; children written later inherit the grants.
  store.SetPermission(kDom0, be, gid);
  store.SetPermission(kDom0, fe, bid);
  // Written last: the frontend's relink watch keys on backend-id, and by
  // then the rest of the toolstack state must already be in place.
  store.WriteInt(kDom0, fe + "/backend-id", bid);
}

}  // namespace kite
