// KiteSystem: assembles the full testbed of the paper (Table 2): a server
// machine running Xen with Dom0, driver domains (Kite or Linux personality),
// guest DomUs, and a directly-attached client machine — all in one
// deterministic simulation.
//
// This is the library's primary entry point: construct a KiteSystem, create
// a network and/or storage driver domain, create guests, attach
// VIFs/VBDs, and drive traffic.
#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/blk/disk.h"
#include "src/blkdrv/blkback.h"
#include "src/fault/fault.h"
#include "src/blkdrv/blkfront.h"
#include "src/bmk/sched.h"
#include "src/core/blkapp.h"
#include "src/core/netapp.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus.h"
#include "src/net/nic.h"
#include "src/net/stack.h"
#include "src/net/switch.h"
#include "src/net/tcp.h"
#include "src/netdrv/netback.h"
#include "src/netdrv/netfront.h"
#include "src/base/log.h"
#include "src/obs/cpuattr.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/sampler.h"
#include "src/obs/trace.h"
#include "src/os/profile.h"

namespace kite {

class MigrationEngine;

// What both kinds of driver domain are configured with. Memory follows the
// personality (paper §5: Kite domains get 1 GB, Linux 2 GB); each kind's
// backend params are an argument of its create.
struct DriverDomainConfig {
  OsKind os = OsKind::kKiteRumprun;
  int vcpus = 1;
};

// What the network and the storage driver domain share (paper §4): a VM
// that owns one PCI device and runs one xenbus backend driver and one
// configuration app on its BMK schedulers. KiteSystem creates, restarts,
// finds and migrates both kinds through this type. A restart keeps the
// object and the device and replaces the VM under them.
class DriverDomain {
 public:
  virtual ~DriverDomain() = default;

  // A posted boot event holds the object's address.
  DriverDomain(const DriverDomain&) = delete;
  DriverDomain& operator=(const DriverDomain&) = delete;

  DeviceKind kind() const { return kind_; }
  Domain* domain() const { return domain_; }
  const OsProfile* os() const { return os_; }
  SimTime boot_completed_at() const { return boot_completed_at_; }
  bool booted() const { return domain_->online(); }
  // Reaped or retired backend instances still draining their threads.
  virtual int dying_instance_count() const = 0;

 protected:
  // The VM is named "<personality>-<vm_role>". A `sharded` backend gets one
  // scheduler per vCPU, any other one on vCPU 0.
  DriverDomain(DeviceKind kind, const char* vm_role, bool sharded, DriverDomainConfig config);
  const DriverDomainConfig& config() const { return config_; }
  std::vector<BmkSched*> scheds() const;

 private:
  friend class KiteSystem;
  // What stays per kind: the device passed through, which outlives the VM,
  // and building the backend driver and the app on the booted VM.
  virtual PciDevice* device() const = 0;
  virtual void StartServices() = 0;
  virtual void StopServices() = 0;  // The app, then the driver.

  const DeviceKind kind_;
  const char* const vm_role_;
  const bool sharded_;
  const DriverDomainConfig config_;  // What a restart replays.
  const OsProfile* const os_;
  Domain* domain_ = nullptr;
  std::vector<std::unique_ptr<BmkSched>> scheds_;
  SimTime boot_completed_at_;
};

// A driver domain running the network backend, the bridge, and the network
// application, with the physical NIC assigned via PCI passthrough.
class NetworkDomain : public DriverDomain {
 public:
  NetworkDomain(DriverDomainConfig config, NetbackParams netback, std::unique_ptr<Nic> nic,
                Ipv4Addr gateway_ip)
      : DriverDomain(DeviceKind::kVif, "netdom", /*sharded=*/true, config),
        netback_(netback),
        nic_(std::move(nic)),
        gateway_ip_(gateway_ip) {}

  Nic* nic() const { return nic_.get(); }
  Bridge* bridge() const { return app_->bridge(); }
  NetworkBackendDriver* driver() const { return driver_.get(); }
  NetworkApp* app() const { return app_.get(); }
  int dying_instance_count() const override {
    return driver_ == nullptr ? 0 : driver_->dying_instance_count();
  }

 private:
  PciDevice* device() const override { return nic_.get(); }
  void StartServices() override;
  void StopServices() override {
    app_.reset();
    driver_.reset();
  }

  const NetbackParams netback_;  // What a restart replays.
  std::unique_ptr<Nic> nic_;
  const Ipv4Addr gateway_ip_;
  std::unique_ptr<NetworkBackendDriver> driver_;
  std::unique_ptr<NetworkApp> app_;
};

// A driver domain running the block backend and the block status app, with
// the NVMe device assigned via PCI passthrough. Blkback is not sharded.
class StorageDomain : public DriverDomain {
 public:
  StorageDomain(DriverDomainConfig config, BlkbackParams blkback,
                std::unique_ptr<BlockDevice> disk)
      : DriverDomain(DeviceKind::kVbd, "stordom", /*sharded=*/false, config),
        blkback_(blkback),
        disk_(std::move(disk)) {}

  BlockDevice* disk() const { return disk_.get(); }
  StorageBackendDriver* driver() const { return driver_.get(); }
  BlockStatusApp* app() const { return app_.get(); }
  int dying_instance_count() const override {
    return driver_ == nullptr ? 0 : driver_->dying_instance_count();
  }

 private:
  PciDevice* device() const override { return disk_.get(); }
  void StartServices() override;
  void StopServices() override {
    app_.reset();
    driver_.reset();
  }

  const BlkbackParams blkback_;  // What a restart replays.
  std::unique_ptr<BlockDevice> disk_;
  std::unique_ptr<StorageBackendDriver> driver_;
  std::unique_ptr<BlockStatusApp> app_;
};

// A guest DomU: Ubuntu application VM with a network stack behind netfront
// and/or a block device behind blkfront.
class GuestVm {
 public:
  Domain* domain() const { return domain_; }
  Netfront* netfront() const { return netfront_.get(); }
  EtherStack* stack() const { return stack_.get(); }
  Blkfront* blkfront() const { return blkfront_.get(); }
  Ipv4Addr ip() const { return stack_ ? stack_->ip() : Ipv4Addr{}; }

  // The guest's `kind` device as its frontend sees it (its backend_dom()
  // lags the toolstack by a posted watch). Null when there is none.
  const XenbusFrontend* frontend(DeviceKind kind) const;

 private:
  friend class KiteSystem;
  Domain* domain_ = nullptr;
  std::unique_ptr<Netfront> netfront_;
  std::unique_ptr<EtherStack> stack_;
  std::unique_ptr<Blkfront> blkfront_;
};

// The client load-generator machine (Core i5, Table 2), directly connected
// to the server NIC.
class ClientMachine {
 public:
  Nic* nic() const { return nic_.get(); }
  EtherStack* stack() const { return stack_.get(); }
  Vcpu* vcpu() const { return vcpu_.get(); }
  Ipv4Addr ip() const { return stack_->ip(); }

 private:
  friend class KiteSystem;
  std::unique_ptr<Vcpu> vcpu_;
  std::unique_ptr<Nic> nic_;
  std::unique_ptr<EtherStack> stack_;
};

class KiteSystem {
 public:
  struct Params {
    DiskParams disk;
    bool disk_store_data = false;
    // When true (default for tests/benches), domain boot completes
    // immediately; when false the full boot-phase sequence is simulated
    // (used by the boot-time experiment and the restart example).
    bool instant_boot = true;
    // Seed for the fault injector (all rates default to zero = no faults).
    uint64_t fault_seed = kDefaultFaultSeed;
    // Watchdog probe cadence and stall thresholds (always on).
    HealthParams health;
    // Publish per-stack TCP counters (segs, retransmits, acked/delivered
    // bytes) into the registry. Off by default so metric snapshots of
    // TCP-free configurations stay byte-identical to historical output.
    bool tcp_metrics = false;
    // Continuous registry sampling into per-metric timelines (DESIGN.md
    // §15): the sampler's period, ring size and label filter. It ticks once
    // sampler().Start() runs (or KITE_TIMELINE is set).
    SamplerParams sampler;
  };

  KiteSystem() : KiteSystem(Params{}) {}
  explicit KiteSystem(Params params);
  ~KiteSystem();

  Executor& executor() { return executor_; }
  Hypervisor& hv() { return *hv_; }
  SimTime Now() const { return executor_.Now(); }
  // Fault-injection knobs shared by the hypervisor, every NIC, and every
  // disk. Set rates before (or during) a scenario to script failures.
  FaultInjector& faults() { return hv_->faults(); }

  // --- Observability (src/obs). The services are the hypervisor's. ---
  // The single registry every component in this system reports into.
  MetricRegistry& metric_registry() { return hv_->metrics(); }
  // Snapshot of every metric, in deterministic key order.
  std::vector<MetricRegistry::Sample> metrics() { return hv_->metrics().Snapshot(); }
  // `prefix` (when non-empty) restricts the table to labels starting with it,
  // e.g. "obs/health" for just the watchdog aggregates.
  std::string FormatMetrics(bool skip_zero = true, const std::string& prefix = "");
  // The always-on flight recorder: every domain's recent structured events
  // (lifecycle, grants, ring pushes, faults), dumped by DumpDiagnostics.
  FlightRecorder& recorder() { return hv_->recorder(); }
  // The backend health watchdog (started at construction; see Params::health).
  HealthMonitor& health() { return hv_->health(); }
  // One-shot failure diagnostics: health table, shard placement, per-domain
  // flight-recorder tails, pending events, invariant audit, and the full
  // metric table. Installed as the KITE_CHECK fatal handler (dumped to
  // stderr on any assertion failure in this process) and callable on demand.
  void DumpDiagnostics(std::ostream& out);
  // Per-shard placement, one line per backend domain, rebuilt from each guest
  // device's toolstack backend-id (the record LinkedBackend reads) with the
  // device's published health verdict — what an operator's `xenstore-ls`
  // would show.
  std::string FormatPlacement();
  EventTracer& tracer() { return hv_->tracer(); }
  // The registry sampler (armed at construction when KITE_TIMELINE=<path> is
  // set, which also dumps ToJson() to <path> at destruction, mirroring
  // KITE_TRACE; otherwise call sampler().Start()).
  MetricSampler& sampler() { return sampler_; }
  // Tracing is compiled in but off by default; when off the per-event cost
  // is a single branch. Setting KITE_TRACE=<path> in the environment enables
  // tracing at construction and dumps to <path> on destruction, so any
  // bench/example/explore run can produce a trace without a code change.
  void EnableTracing(bool on = true) { hv_->tracer().set_enabled(on); }
  // Writes the recorded events as Chrome trace_event JSON (load in Perfetto
  // or chrome://tracing). Returns false if the file could not be written.
  // Logs a warning when the tracer's event cap truncated the recording.
  bool DumpTrace(const std::string& path);
  // CPU attribution (DESIGN.md §16). Turns on the per-category ledgers for
  // every live vCPU (driver domains, guests, Dom0, the client machine) and
  // for all future domains. Accounting-only: never perturbs the schedule.
  // KITE_CPU=<path> turns it on at construction and dumps CpuReportJson()
  // to <path> at destruction, mirroring KITE_TRACE.
  void EnableCpuAttribution();
  // Every live vCPU with a stable report label, in deterministic order:
  // domains by id (label deduped with "#<id>" when two live domains share a
  // name), then the client machine.
  std::vector<CpuActor> CpuActors();
  // Deterministic per-vCPU ledger report (see src/obs/cpuattr.h).
  std::string CpuReportJson();

  // --- Topology construction. ---
  // A driver domain's backend driver and app start once its VM has booted.
  NetworkDomain* CreateNetworkDomain(DriverDomainConfig config = DriverDomainConfig{},
                                     NetbackParams netback = NetbackParams{});
  StorageDomain* CreateStorageDomain(DriverDomainConfig config = DriverDomainConfig{},
                                     BlkbackParams blkback = BlkbackParams{});
  GuestVm* CreateGuest(const std::string& name, int vcpus = 22, int memory_mb = 5120);
  // Destroys a guest VM (`xl destroy`): tears down its frontends and stack,
  // whose registry rows fold into the machine-wide (guests, <type>-retired)
  // rows, destroys the domain, and lets the backend drivers reap the paired
  // instances on their next wake. The pointer is invalid afterwards.
  void DestroyGuest(GuestVm* guest);

  // Toolstack operations (what `xl` does in the artifact, §A.4).
  // Attaches a VIF: creates xenstore device directories, instantiates
  // netfront, and brings up the guest's network stack at `ip`.
  void AttachVif(GuestVm* guest, NetworkDomain* netdom, Ipv4Addr ip);
  // Attaches a VBD and instantiates blkfront.
  void AttachVbd(GuestVm* guest, StorageDomain* stordom);
  // The toolstack keys that link a guest's device to backend `bid`, written
  // by Dom0 for an attach and a relink alike: the backend's node, the
  // frontend's link to it, both cross-domain grants, then backend-id. The
  // fuzz frontends (src/check) write these and nothing else of an attach.
  void WriteDeviceLink(DomId gid, DeviceKind kind, int devid, DomId bid);

  // --- Topology introspection (invariant checker, src/check). ---
  const std::vector<std::unique_ptr<NetworkDomain>>& network_domains() const {
    return network_domains_;
  }
  const std::vector<std::unique_ptr<StorageDomain>>& storage_domains() const {
    return storage_domains_;
  }
  // Both kinds: the network domains, then the storage domains.
  std::vector<DriverDomain*> driver_domains() const;
  const std::vector<std::unique_ptr<GuestVm>>& guests() const { return guests_; }
  // By-id lookups (nullptr when no such domain is alive). Guests die and a
  // restart moves a driver domain onto a new VM id, so long-lived policies
  // (the migration engine, the rebalancer) hold DomIds and resolve per use.
  GuestVm* FindGuest(DomId id);
  // The live driver domain `id` serving `kind` devices.
  DriverDomain* FindDriverDomain(DomId id, DeviceKind kind) const;
  NetworkDomain* FindNetworkDomain(DomId id) const {
    return static_cast<NetworkDomain*>(FindDriverDomain(id, DeviceKind::kVif));
  }
  StorageDomain* FindStorageDomain(DomId id) const {
    return static_cast<StorageDomain*>(FindDriverDomain(id, DeviceKind::kVbd));
  }
  // Where the guest's `kind` device is linked: Dom0's xenstore backend-id
  // record, which the toolstack rewrites first, or the frontend's view when
  // the key is missing. Nullopt when the guest has no such device.
  std::optional<DomId> LinkedBackend(const GuestVm* guest, DeviceKind kind) const;
  // Guests whose `kind` device is linked to `dom`, in creation order. A
  // restart collects them before the teardown; the xenstore record, not the
  // frontends' lagging view, decides, so back-to-back restarts find the
  // right set even before the relink watches fire.
  std::vector<GuestVm*> LinkedGuests(DeviceKind kind, DomId dom) const;
  // The server-side fabric. Null while at most one network domain exists
  // (direct cable, the paper's testbed); created pay-for-use the moment a
  // second uplink is needed.
  EtherSwitch* ether_switch() { return switch_.get(); }

  // Seeded schedule exploration: randomize tie-breaking among
  // same-timestamp events (see Executor::EnableShuffle). Call before any
  // topology construction so the whole run is explored.
  void EnableScheduleShuffle(uint64_t seed) { executor_.EnableShuffle(seed); }

  // The client machine exists once a network domain is created.
  ClientMachine* client() { return client_.get(); }
  Ipv4Addr client_ip() const { return client_ip_; }
  Ipv4Addr gateway_ip() const { return gateway_ip_; }

  // --- Simulation control. ---
  void RunFor(SimDuration d) { executor_.RunFor(d); }
  void RunUntilIdle() { executor_.RunUntilIdle(); }
  // Steps the simulation until pred() holds; false on timeout.
  bool WaitUntil(const std::function<bool()>& pred, SimDuration timeout = Seconds(10));
  // Convenience: wait for a guest's netfront (and blkfront, if any) to
  // connect.
  bool WaitConnected(GuestVm* guest, SimDuration timeout = Seconds(10));

  // --- VIF/VBD migration (live shard moves). ---
  using MigrateDone = std::function<void(bool ok)>;
  // Gracefully moves the guest's device of `to`'s kind onto `to`: the old
  // backend, re-resolved from the toolstack record when the (possibly
  // queued) move starts, is marked offline, drains what it already accepted,
  // retires (releasing its grant mappings), and only then is the device
  // relinked — so no acknowledged packet is lost across a VIF move, and every
  // acknowledged write is readable through the new path of a VBD (shards port
  // the same dual-ported media; the frontend requeues unacknowledged
  // requests). Asynchronous: drive the simulation for it to progress;
  // `done(ok)` fires when the device settles.
  void Migrate(GuestVm* guest, DriverDomain* to, MigrateDone done = {});
  void MigrateVif(GuestVm* guest, NetworkDomain* to, MigrateDone done = {}) {
    Migrate(guest, to, std::move(done));
  }
  void MigrateVbd(GuestVm* guest, StorageDomain* to, MigrateDone done = {}) {
    Migrate(guest, to, std::move(done));
  }
  // Active plus queued migrations across all devices (0 at quiesce).
  int migrations_in_flight() const;
  MigrationEngine& migrator() { return *migrate_; }

  // --- Driver-domain restart (experiment E1 / failure recovery). ---
  // Destroys the driver domain's VM and boots a fresh one with the same
  // configuration, handing the device over: the NIC stays cabled, and the
  // disk keeps every acknowledged write (blkfront requeues in-flight
  // requests, so unacknowledged writes are retried, not lost). Every guest
  // device linked to the dead VM is migrated (forced mode — the backend is
  // already gone) onto `place(guest)` when given, else onto the replacement:
  // the frontends detect the backend death, tear down their rings, and
  // reconnect automatically — no manual re-attach. Returns `dd`, now on the
  // new VM; measures boot via boot_completed_at().
  DriverDomain* RestartDriverDomain(DriverDomain* dd,
                                    std::function<DriverDomain*(GuestVm*)> place = {});
  NetworkDomain* RestartNetworkDomain(
      NetworkDomain* netdom, std::function<NetworkDomain*(GuestVm*)> place = {}) {
    return static_cast<NetworkDomain*>(RestartDriverDomain(netdom, std::move(place)));
  }
  StorageDomain* RestartStorageDomain(
      StorageDomain* stordom, std::function<StorageDomain*(GuestVm*)> place = {}) {
    return static_cast<StorageDomain*>(RestartDriverDomain(stordom, std::move(place)));
  }

  const Params& params() const { return params_; }

 private:
  friend class MigrationEngine;

  // Adds a new driver domain to `owned` and brings it up.
  template <typename D>
  D* Enlist(std::vector<std::unique_ptr<D>>* owned, std::unique_ptr<D> dd);
  // Creation and restart alike: the VM, its schedulers, the device passed
  // through, then the boot.
  void BringUp(DriverDomain* dd);
  // The devices of new driver domains: a NIC cabled to the client, and a
  // port onto the shared disk media.
  std::unique_ptr<Nic> NewUplink();
  std::unique_ptr<BlockDevice> NewDiskPort();
  void EnsureClient();
  // Pay-for-use fabric: re-cables the client's direct link through a fresh
  // EtherSwitch (no-op when the switch already exists).
  void EnsureSwitch();
  // Re-points an existing guest device at driver domain `bid` by rewriting
  // the toolstack xenstore keys (what `xl network-attach` leaves in place
  // after a backend respawn). The frontend's relink watch does the rest.
  // False, with nothing written, when `bid` is no live driver domain of the
  // device's kind.
  bool Relink(DomId gid, DeviceKind kind, int devid, DomId bid);

  Params params_;
  Executor executor_;
  // Owns the machine-wide services, so it outlives the sampler (which reads
  // its registry) and every driver domain (whose backend instances
  // unregister from its watchdog as they die).
  std::unique_ptr<Hypervisor> hv_;
  MetricSampler sampler_;
  // The fatal handler installed before ours, restored at destruction so
  // stacked KiteSystems (tests) unwind cleanly.
  FatalHandler prev_fatal_;
  std::vector<std::unique_ptr<NetworkDomain>> network_domains_;
  std::vector<std::unique_ptr<StorageDomain>> storage_domains_;
  std::vector<std::unique_ptr<GuestVm>> guests_;
  std::unique_ptr<ClientMachine> client_;
  // Created on the second network domain (see ether_switch()).
  std::unique_ptr<EtherSwitch> switch_;
  // One dual-ported media shared by every storage shard's BlockDevice:
  // timing stays per-port, content is common, so a VBD migrated to another
  // shard reads exactly the bytes whose writes were acknowledged.
  std::shared_ptr<DiskMedia> shared_media_;
  std::unique_ptr<MigrationEngine> migrate_;
  Ipv4Addr gateway_ip_;
  Ipv4Addr client_ip_;
  int next_mac_id_ = 1;
  int next_nic_fn_ = 0;   // PCI function suffix for additional NICs.
  int next_disk_fn_ = 0;  // PCI function suffix for additional disks.
  // Non-empty when KITE_TRACE=<path> was set at construction; the trace is
  // dumped there on destruction.
  std::string trace_env_path_;
  // Same idiom for KITE_TIMELINE (sampler JSON), KITE_PROFILE (dispatch
  // profile JSON), and KITE_CPU (CpuReportJson).
  std::string timeline_env_path_;
  std::string profile_env_path_;
  std::string cpu_env_path_;
};

}  // namespace kite

#endif  // SRC_CORE_SYSTEM_H_
