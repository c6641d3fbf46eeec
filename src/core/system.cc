#include "src/core/system.h"

#include <algorithm>
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

// Writes one env-requested export (KITE_TIMELINE, KITE_PROFILE, KITE_CPU) at
// teardown, or warns; an empty path means the variable was unset.
template <typename Render>
void WriteEnvArtifact(const std::string& path, const char* what, Render render) {
  if (!path.empty() && !WriteArtifactFile(path, render())) {
    KITE_LOG(Warning) << "cannot write " << what << " to " << path;
  }
}

// The guest or driver domain in `owned` whose VM is `id`, or nullptr.
template <typename T>
T* FindById(const std::vector<std::unique_ptr<T>>& owned, DomId id) {
  for (const auto& p : owned) {
    if (p->domain()->id() == id) {
      return p.get();
    }
  }
  return nullptr;
}

// Drops (and destroys) `victim` from `owned`.
template <typename T>
void EraseOwned(std::vector<std::unique_ptr<T>>* owned, const T* victim) {
  auto it = std::find_if(owned->begin(), owned->end(),
                         [victim](const auto& p) { return p.get() == victim; });
  if (it != owned->end()) {
    owned->erase(it);
  }
}

// Restart is "migrate everyone off the corpse": forced moves (the old
// backend is gone) onto the caller's placement, defaulting to the
// replacement. The engine serializes per device, so a restart landing
// mid-migration waits for the move to settle instead of double-relinking.
template <typename DriverDomain>
void ForceMoves(MigrationEngine* migrate, DeviceKind kind, const std::vector<GuestVm*>& guests,
                DriverDomain* fresh, const std::function<DriverDomain*(GuestVm*)>& place) {
  for (GuestVm* guest : guests) {
    DriverDomain* target = place ? place(guest) : fresh;
    if (target == nullptr) {
      target = fresh;
    }
    migrate->Migrate(guest->domain()->id(), kind, target->domain()->id());
  }
}

}  // namespace

KiteSystem::KiteSystem(Params params)
    : params_(params),
      sampler_(&executor_, &metrics_, params_.sampler),
      recorder_(&executor_),
      health_(&executor_, &metrics_, &recorder_, params_.health),
      faults_(params_.fault_seed, &metrics_) {
  hv_ = std::make_unique<Hypervisor>(&executor_, &metrics_, &tracer_);
  hv_->set_fault_injector(&faults_);
  hv_->set_recorder(&recorder_);
  hv_->set_health(&health_);
  faults_.set_recorder(&recorder_);
  // Health verdicts are published into xenstore next to the device state, so
  // a stalled backend is visible to the same tooling that watches xenbus.
  // Subscribing first puts this ahead of every other subscriber.
  health_.Subscribe([this](int32_t dom, const std::string& device, HealthState,
                           HealthState state) {
    if (hv_->domain(static_cast<DomId>(dom)) == nullptr) {
      return;  // Transition raced with domain teardown.
    }
    hv_->store().Write(kDom0,
                       DomainPath(static_cast<DomId>(dom)) + "/health/" + device,
                       HealthStateName(state));
  });
  health_.Start();
  migrate_ = std::make_unique<MigrationEngine>(this);
  // Any KITE_CHECK failure anywhere in this process now dumps the full
  // diagnostic bundle to stderr before aborting.
  prev_fatal_ = SetFatalHandler([this] { DumpDiagnostics(std::cerr); });
  gateway_ip_ = Ipv4Addr{params_.subnet_base.value + 1};
  client_ip_ = Ipv4Addr{params_.subnet_base.value + 2};
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
  // Attribution before the sampler starts, so the pre-tick pump is in place
  // for the baseline snapshot.
  if (params_.cpu_attribution || !cpu_env_path_.empty()) {
    EnableCpuAttribution();
  }
  if (params_.sampler.enabled || !timeline_env_path_.empty()) {
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
  hv_->set_cpu_attribution(true);  // Retrofits live domains, covers new ones.
  if (client_ != nullptr) {
    client_->vcpu_->EnableAttribution();
  }
  if (cpu_pump_ == nullptr) {
    cpu_pump_ = std::make_unique<CpuMetricsPump>(&metrics_);
    sampler_.set_pre_tick([this] { cpu_pump_->Pump(CpuActors(), Now()); });
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
  // The tracer is not registry-backed (it predates the registry in
  // construction order), so sync its drop count into a counter before
  // rendering.
  metrics_.counter("obs", "tracer", "events_dropped")->Set(tracer_.dropped());
  return metrics_.FormatTable(skip_zero, prefix);
}

void KiteSystem::DumpDiagnostics(std::ostream& out) {
  out << "==== KITE DIAGNOSTICS (t=" << StrFormat("%.9f", Now().seconds())
      << "s) ====\n";
  out << "---- health ----\n" << health_.FormatTable();
  out << "---- placement ----\n" << FormatPlacement();
  out << "---- flight recorder ----\n" << recorder_.FormatAll();
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
  // Rebuilt purely from the toolstack's placement keys, so the table shows
  // what is actually linked — not what any policy object believes. Each
  // device carries the published health verdict of its backend instance
  // (falling back to the live monitor when no transition was ever published).
  std::map<DomId, std::vector<std::string>> shards;
  for (const char* kind : {"vif", "vbd"}) {
    const std::string root = StrFormat("/local/domain/0/kite/placement/%s", kind);
    const auto guests = store.List(kDom0, root);
    if (!guests.has_value()) {
      continue;
    }
    for (const std::string& gid : *guests) {
      const auto devids = store.List(kDom0, root + "/" + gid);
      if (!devids.has_value()) {
        continue;
      }
      for (const std::string& devid : *devids) {
        const auto bid = store.ReadInt(kDom0, root + "/" + gid + "/" + devid);
        if (!bid.has_value()) {
          continue;
        }
        const DomId dom = static_cast<DomId>(*bid);
        const std::string device = StrFormat("%s%s.%s", kind, gid.c_str(), devid.c_str());
        const auto verdict = store.Read(kDom0, DomainPath(dom) + "/health/" + device);
        shards[dom].push_back(
            device + "=" +
            (verdict.has_value() ? *verdict : HealthStateName(health_.state(dom, device))));
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
  metrics_.counter("obs", "tracer", "events_dropped")->Set(tracer_.dropped());
  if (tracer_.dropped() > 0) {
    KITE_LOG(Warning) << "trace dump to " << path << " is truncated: "
                      << tracer_.dropped()
                      << " events dropped after hitting the event cap";
  }
  return tracer_.DumpTrace(path);
}

void KiteSystem::BootDomain(Domain* dom, const OsProfile* os,
                            std::function<void()> on_booted) {
  if (params_.instant_boot) {
    dom->set_online(true);
    on_booted();
    return;
  }
  // Replay the boot phases sequentially, then bring services up.
  SimDuration total;
  for (const BootPhase& phase : os->boot_phases) {
    total += phase.duration;
  }
  executor_.PostAfter(total, KITE_POST_SITE("system/boot-complete"),
                      [dom, on_booted = std::move(on_booted)] {
    dom->set_online(true);
    on_booted();
  });
}

NetworkDomain* KiteSystem::CreateNetworkDomain(DriverDomainConfig config) {
  return CreateNetworkDomainImpl(config, /*reuse_nic=*/nullptr);
}

NetworkDomain* KiteSystem::CreateNetworkDomainImpl(DriverDomainConfig config,
                                                   std::unique_ptr<Nic> reuse_nic) {
  auto nd = std::make_unique<NetworkDomain>();
  nd->os_ = &DriverDomainProfile(config.os, /*storage=*/false);
  nd->config_ = config;
  const int memory =
      config.memory_mb > 0 ? config.memory_mb
                           : (config.os == OsKind::kKiteRumprun ? 1024 : 2048);
  nd->domain_ = hv_->CreateDomain(
      config.os == OsKind::kKiteRumprun ? "kite-netdom" : "linux-netdom", config.vcpus,
      memory);
  for (int i = 0; i < nd->domain_->vcpu_count(); ++i) {
    nd->scheds_.push_back(std::make_unique<BmkSched>(&executor_, nd->domain_->vcpu(i)));
  }

  // Physical NIC assigned via PCI passthrough (with IOMMU). Across a
  // driver-domain restart the same NIC is handed over, still cabled to the
  // client, so the link (and any frames in flight on it) is preserved.
  if (reuse_nic != nullptr) {
    nd->nic_ = std::move(reuse_nic);
  } else {
    nd->nic_ = std::make_unique<Nic>(&executor_,
                                     StrFormat("0000:03:00.%d", next_nic_fn_++), "ixg0",
                                     MacAddr::FromId(0x100000u + next_mac_id_++));
    nd->nic_->set_fault_injector(&faults_);
  }
  hv_->AssignPci(nd->nic_.get(), nd->domain_, /*iommu=*/true);

  EnsureClient();
  if (nd->nic_->peer() == nullptr) {
    // Pay-for-use fabric: a single network domain is direct-cabled to the
    // client (the paper's testbed, byte-identical figures); the moment a
    // second uplink appears everything moves behind an EtherSwitch.
    if (switch_ == nullptr && network_domains_.empty()) {
      Nic::ConnectBackToBack(nd->nic_.get(), client_->nic_.get());
    } else {
      EnsureSwitch();
      switch_->Plug(nd->nic_.get());
    }
  }

  NetworkDomain* raw = nd.get();
  network_domains_.push_back(std::move(nd));
  BootDomain(raw->domain_, raw->os_, [this, raw, config] {
    raw->boot_completed_at_ = executor_.Now();
    StartNetworkDomainServices(raw, config);
  });
  return raw;
}

void KiteSystem::StartNetworkDomainServices(NetworkDomain* nd, DriverDomainConfig config) {
  std::vector<BmkSched*> scheds;
  for (auto& s : nd->scheds_) {
    scheds.push_back(s.get());
  }
  nd->driver_ = std::make_unique<NetworkBackendDriver>(
      nd->domain_, std::move(scheds),
      [dom = nd->domain_, costs = &nd->os_->costs, params = config.netback](
          BmkSched* sched, DomId frontend_dom, int devid) {
        return std::make_unique<NetbackInstance>(dom, sched, costs, params, frontend_dom,
                                                 devid);
      });
  nd->app_ = std::make_unique<NetworkApp>(nd->scheds_.front().get(), nd->driver_.get(),
                                          nd->nic_->netif(), gateway_ip_);
}

StorageDomain* KiteSystem::CreateStorageDomain(DriverDomainConfig config) {
  return CreateStorageDomainImpl(config, /*reuse_disk=*/nullptr);
}

StorageDomain* KiteSystem::CreateStorageDomainImpl(DriverDomainConfig config,
                                                   std::unique_ptr<BlockDevice> reuse_disk) {
  auto sd = std::make_unique<StorageDomain>();
  sd->os_ = &DriverDomainProfile(config.os, /*storage=*/true);
  sd->config_ = config;
  const int memory =
      config.memory_mb > 0 ? config.memory_mb
                           : (config.os == OsKind::kKiteRumprun ? 1024 : 2048);
  sd->domain_ = hv_->CreateDomain(
      config.os == OsKind::kKiteRumprun ? "kite-stordom" : "linux-stordom", config.vcpus,
      memory);
  sd->sched_ = std::make_unique<BmkSched>(&executor_, sd->domain_->vcpu(0));

  // Across a restart the same physical disk is handed over, so every write
  // acknowledged before the crash is still there afterwards.
  if (reuse_disk != nullptr) {
    sd->disk_ = std::move(reuse_disk);
  } else {
    // Every storage shard ports the same dual-ported media (fabric-attached
    // storage): per-port timing and queues stay independent, but a write
    // acknowledged through one shard is readable through any other — the
    // property VBD migration relies on.
    if (shared_media_ == nullptr) {
      shared_media_ = std::make_shared<DiskMedia>();
    }
    sd->disk_ = std::make_unique<BlockDevice>(
        &executor_, StrFormat("0000:04:00.%d", next_disk_fn_++), params_.disk,
        params_.disk_store_data, shared_media_);
    sd->disk_->set_fault_injector(&faults_);
  }
  hv_->AssignPci(sd->disk_.get(), sd->domain_, /*iommu=*/true);

  StorageDomain* raw = sd.get();
  storage_domains_.push_back(std::move(sd));
  BootDomain(raw->domain_, raw->os_, [this, raw, config] {
    raw->boot_completed_at_ = executor_.Now();
    StartStorageDomainServices(raw, config);
  });
  return raw;
}

void KiteSystem::StartStorageDomainServices(StorageDomain* sd, DriverDomainConfig config) {
  sd->driver_ = std::make_unique<StorageBackendDriver>(
      sd->domain_, std::vector<BmkSched*>{sd->sched_.get()},
      [dom = sd->domain_, costs = &sd->os_->costs, disk = sd->disk_.get(),
       params = config.blkback](BmkSched* sched, DomId frontend_dom, int devid) {
        return std::make_unique<BlkbackInstance>(dom, sched, costs, params, disk,
                                                 frontend_dom, devid);
      });
  sd->app_ = std::make_unique<BlockStatusApp>(sd->sched_.get(), sd->driver_.get(),
                                              sd->disk_->bdf());
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
  const DomId gid = guest->domain_->id();
  hv_->store().RemoveSubtree(kDom0,
                             StrFormat("/local/domain/0/kite/placement/vif/%d", gid));
  hv_->store().RemoveSubtree(kDom0,
                             StrFormat("/local/domain/0/kite/placement/vbd/%d", gid));
  // Frontend objects first (they hold watches and the Domain pointer), then
  // the domain itself. DestroyDomain removes the guest's xenstore subtree,
  // which fires the backends' frontend-death watches; the drivers reap the
  // orphaned instances on their next scan.
  guest->stack_.reset();
  guest->netfront_.reset();
  guest->blkfront_.reset();
  hv_->DestroyDomain(gid);
  EraseOwned(&guests_, guest);
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
                                        MacAddr::FromId(0x200000u));
  client_->nic_->set_fault_injector(&faults_);
  client_->nic_->SetProcessingVcpu(client_->vcpu_.get());
  StackParams client_stack;
  if (params_.tcp_metrics) {
    client_stack.metrics = &metrics_;
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

void KiteSystem::WritePlacement(const char* kind, DomId gid, int devid, DomId bid) {
  hv_->store().WriteInt(kDom0,
                        StrFormat("/local/domain/0/kite/placement/%s/%d/%d", kind,
                                  gid, devid),
                        bid);
}

GuestVm* KiteSystem::FindGuest(DomId id) { return FindById(guests_, id); }

NetworkDomain* KiteSystem::FindNetworkDomain(DomId id) {
  return FindById(network_domains_, id);
}

StorageDomain* KiteSystem::FindStorageDomain(DomId id) {
  return FindById(storage_domains_, id);
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
  XenStore& store = hv_->store();

  // Toolstack (`xl`) operations from Dom0: create both device directories,
  // cross-link them, and grant cross-domain read permissions.
  const std::string fe = FrontendPath(gid, "vif", devid);
  const std::string be = BackendPath(bid, "vif", gid, devid);
  store.Write(kDom0, fe + "/backend", be);
  store.WriteInt(kDom0, fe + "/backend-id", bid);
  store.WriteInt(kDom0, fe + "/state", static_cast<int>(XenbusState::kInitialising));
  store.Write(kDom0, be + "/frontend", fe);
  store.WriteInt(kDom0, be + "/frontend-id", gid);
  store.WriteInt(kDom0, be + "/online", 1);
  store.WriteInt(kDom0, be + "/state", static_cast<int>(XenbusState::kInitialising));
  store.SetPermission(kDom0, fe, bid);
  store.SetPermission(kDom0, be, gid);
  WritePlacement("vif", gid, devid, bid);

  // Guest side: netfront and the network stack on top of it.
  MacAddr mac = MacAddr::FromId(0x300000u + static_cast<uint32_t>(gid));
  guest->netfront_ = std::make_unique<Netfront>(guest->domain_, bid, devid, mac);
  StackParams guest_stack;
  if (params_.tcp_metrics) {
    guest_stack.metrics = &metrics_;
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
  XenStore& store = hv_->store();

  const std::string fe = FrontendPath(gid, "vbd", devid);
  const std::string be = BackendPath(bid, "vbd", gid, devid);
  store.Write(kDom0, fe + "/backend", be);
  store.WriteInt(kDom0, fe + "/backend-id", bid);
  store.Write(kDom0, be + "/frontend", fe);
  store.WriteInt(kDom0, be + "/frontend-id", gid);
  store.WriteInt(kDom0, be + "/online", 1);
  store.SetPermission(kDom0, fe, bid);
  store.SetPermission(kDom0, be, gid);
  WritePlacement("vbd", gid, devid, bid);

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
                        << "\n" << health_.FormatTable();
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

void KiteSystem::MigrateVif(GuestVm* guest, NetworkDomain* from, NetworkDomain* to,
                            MigrateDone done) {
  KITE_CHECK(guest != nullptr && guest->netfront() != nullptr) << "guest has no VIF";
  KITE_CHECK(to != nullptr);
  (void)from;  // Documentation of intent; the engine re-resolves the source.
  migrate_->Migrate(guest->domain_->id(), DeviceKind::kVif, to->domain_->id(),
                    std::move(done));
}

void KiteSystem::MigrateVbd(GuestVm* guest, StorageDomain* from, StorageDomain* to,
                            MigrateDone done) {
  KITE_CHECK(guest != nullptr && guest->blkfront() != nullptr) << "guest has no VBD";
  KITE_CHECK(to != nullptr);
  (void)from;
  migrate_->Migrate(guest->domain_->id(), DeviceKind::kVbd, to->domain_->id(),
                    std::move(done));
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

NetworkDomain* KiteSystem::RestartNetworkDomain(
    NetworkDomain* netdom, std::function<NetworkDomain*(GuestVm*)> place) {
  const DomId old_id = netdom->domain_->id();
  const DriverDomainConfig config = netdom->config_;
  const std::vector<GuestVm*> attached = LinkedGuests(DeviceKind::kVif, old_id);

  // Tear down: services first, then the VM itself. The physical NIC is
  // detached and survives the domain (it stays cabled to the client).
  netdom->app_.reset();
  netdom->driver_.reset();
  std::unique_ptr<Nic> nic = std::move(netdom->nic_);
  hv_->UnassignPci(nic.get());
  hv_->DestroyDomain(old_id);
  EraseOwned(&network_domains_, netdom);

  NetworkDomain* fresh = CreateNetworkDomainImpl(config, std::move(nic));
  ForceMoves(migrate_.get(), DeviceKind::kVif, attached, fresh, place);
  return fresh;
}

StorageDomain* KiteSystem::RestartStorageDomain(
    StorageDomain* stordom, std::function<StorageDomain*(GuestVm*)> place) {
  const DomId old_id = stordom->domain_->id();
  const DriverDomainConfig config = stordom->config_;
  const std::vector<GuestVm*> attached = LinkedGuests(DeviceKind::kVbd, old_id);

  stordom->app_.reset();
  stordom->driver_.reset();
  std::unique_ptr<BlockDevice> disk = std::move(stordom->disk_);
  hv_->UnassignPci(disk.get());
  // A completion the controller parked belongs to the dead domain: the
  // frontend requeues that request through the replacement, so the stale
  // op must never land after it.
  disk->AbortHungIo();
  hv_->DestroyDomain(old_id);
  EraseOwned(&storage_domains_, stordom);

  StorageDomain* fresh = CreateStorageDomainImpl(config, std::move(disk));
  ForceMoves(migrate_.get(), DeviceKind::kVbd, attached, fresh, place);
  return fresh;
}

bool KiteSystem::Relink(DomId gid, DeviceKind kind, int devid, DomId bid) {
  const bool vif = kind == DeviceKind::kVif;
  if (vif ? FindNetworkDomain(bid) == nullptr : FindStorageDomain(bid) == nullptr) {
    return false;  // Target vanished (destroyed mid-queue).
  }
  const char* type = DeviceTypeName(kind);
  XenStore& store = hv_->store();
  const std::string fe = FrontendPath(gid, type, devid);
  const std::string be = BackendPath(bid, type, gid, devid);
  store.Write(kDom0, be + "/frontend", fe);
  store.WriteInt(kDom0, be + "/frontend-id", gid);
  store.WriteInt(kDom0, be + "/online", 1);
  if (vif) {
    // As AttachVif does; a vbd's backend node starts without a state.
    store.WriteInt(kDom0, be + "/state", static_cast<int>(XenbusState::kInitialising));
  }
  store.SetPermission(kDom0, be, gid);
  store.SetPermission(kDom0, fe, bid);
  store.Write(kDom0, fe + "/backend", be);
  // Written last: the frontend's relink watch keys on backend-id, and by
  // then the rest of the toolstack state must already be in place.
  store.WriteInt(kDom0, fe + "/backend-id", bid);
  WritePlacement(type, gid, devid, bid);
  return true;
}

}  // namespace kite
