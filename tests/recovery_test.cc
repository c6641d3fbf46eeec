// Driver-domain crash recovery: the frontend reconnect state machine must
// restore service to the *same* guest after a backend restart — no manual
// re-attach — without losing acknowledged writes, and without leaking
// grants, event channels, or xenstore watches even across many cycles or
// under injected faults.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "src/base/bytes.h"
#include "src/core/invariants.h"
#include "src/core/kite.h"

namespace kite {
namespace {

const Ipv4Addr kGuestIp = Ipv4Addr::FromOctets(10, 0, 0, 10);

class RecoveryTest : public ::testing::TestWithParam<OsKind> {
 protected:
  void BuildNet() {
    KiteSystem::Params params;
    sys_ = std::make_unique<KiteSystem>(params);
    DriverDomainConfig config;
    config.os = GetParam();
    netdom_ = sys_->CreateNetworkDomain(config);
    guest_ = sys_->CreateGuest("app-vm");
    sys_->AttachVif(guest_, netdom_, kGuestIp);
    ASSERT_TRUE(sys_->WaitConnected(guest_));
  }

  void BuildStorage(bool store_data = true) {
    KiteSystem::Params params;
    params.disk_store_data = store_data;
    sys_ = std::make_unique<KiteSystem>(params);
    DriverDomainConfig config;
    config.os = GetParam();
    stordom_ = sys_->CreateStorageDomain(config);
    guest_ = sys_->CreateGuest("db-vm");
    sys_->AttachVbd(guest_, stordom_);
    ASSERT_TRUE(sys_->WaitConnected(guest_));
  }

  bool PingGuest() {
    bool ok = false;
    sys_->client()->stack()->Ping(kGuestIp, 56, [&](bool r, SimDuration) { ok = r; });
    sys_->WaitUntil([&] { return ok; }, Seconds(5));
    return ok;
  }

  // After a restart the death/relink watch events are still queued; step the
  // simulation until the frontend has actually gone through `want`
  // recoveries and reconnected.
  [[nodiscard]] bool WaitNetRecovered(uint64_t want) {
    return sys_->WaitUntil(
        [&] {
          return guest_->netfront()->recoveries() == want && guest_->netfront()->connected();
        },
        Seconds(10));
  }
  [[nodiscard]] bool WaitBlkRecovered(uint64_t want) {
    return sys_->WaitUntil(
        [&] {
          return guest_->blkfront()->recoveries() == want && guest_->blkfront()->connected();
        },
        Seconds(10));
  }

  std::unique_ptr<KiteSystem> sys_;
  NetworkDomain* netdom_ = nullptr;
  StorageDomain* stordom_ = nullptr;
  GuestVm* guest_ = nullptr;
};

TEST_P(RecoveryTest, NetworkRestartReconnectsSameGuest) {
  BuildNet();
  ASSERT_TRUE(PingGuest());
  const DomId old_backend = guest_->netfront()->backend_dom();
  EXPECT_EQ(guest_->netfront()->recoveries(), 0u);

  NetworkDomain* fresh = sys_->RestartNetworkDomain(netdom_);
  ASSERT_TRUE(WaitNetRecovered(1));

  // Same netfront object, new backend domain, one recovery — and the guest
  // answers pings again without any re-attach.
  EXPECT_NE(guest_->netfront()->backend_dom(), old_backend);
  EXPECT_EQ(guest_->netfront()->backend_dom(), fresh->domain()->id());
  EXPECT_TRUE(PingGuest());
}

TEST_P(RecoveryTest, NetworkRestartWithTrafficInFlight) {
  BuildNet();
  ASSERT_TRUE(PingGuest());

  // Blast UDP while the backend dies; packets in flight may be dropped
  // (network semantics), but service must come back for the same guest.
  auto sock = sys_->client()->stack()->OpenUdp();
  for (int i = 0; i < 64; ++i) {
    sock->SendTo(kGuestIp, 9000, Buffer(1000, 0x11));
  }
  sys_->RestartNetworkDomain(netdom_);
  ASSERT_TRUE(WaitNetRecovered(1));
  EXPECT_TRUE(PingGuest());
}

TEST_P(RecoveryTest, StorageRestartLosesNoAcknowledgedWrite) {
  BuildStorage();
  Rng rng(42);
  Buffer data(64 * 1024);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  const uint64_t digest = Fnv1a(data);

  bool wrote = false;
  guest_->blkfront()->Write(1024 * 1024, data, [&](bool ok) { wrote = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return wrote; }, Seconds(2)));

  // Crash after the ack: the write is on the physical device, which survives
  // the driver domain.
  sys_->RestartStorageDomain(stordom_);
  ASSERT_TRUE(WaitBlkRecovered(1));

  Buffer readback;
  bool read_done = false;
  guest_->blkfront()->Read(1024 * 1024, data.size(), &readback,
                           [&](bool ok) { read_done = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return read_done; }, Seconds(2)));
  ASSERT_EQ(readback.size(), data.size());
  EXPECT_EQ(Fnv1a(readback), digest);
}

TEST_P(RecoveryTest, RestartsReplayEachKindsBackendParams) {
  sys_ = std::make_unique<KiteSystem>();
  DriverDomainConfig config;
  config.os = GetParam();
  NetbackParams netback;
  netback.use_hv_copy = false;  // Netback maps guest pages instead of copying.
  BlkbackParams blkback;
  blkback.indirect_segments = false;
  netdom_ = sys_->CreateNetworkDomain(config, netback);
  stordom_ = sys_->CreateStorageDomain(config, blkback);
  guest_ = sys_->CreateGuest("replay-vm");
  sys_->AttachVif(guest_, netdom_, kGuestIp);
  sys_->AttachVbd(guest_, stordom_);
  ASSERT_TRUE(sys_->WaitConnected(guest_));

  sys_->RestartNetworkDomain(netdom_);
  sys_->RestartStorageDomain(stordom_);
  ASSERT_TRUE(WaitNetRecovered(1));
  ASSERT_TRUE(WaitBlkRecovered(1));

  EXPECT_FALSE(guest_->blkfront()->indirect_supported());
  const uint64_t copies = sys_->hv().grant_copies();
  const uint64_t maps = sys_->hv().grant_maps();
  ASSERT_TRUE(PingGuest());
  EXPECT_EQ(sys_->hv().grant_copies(), copies);
  EXPECT_GT(sys_->hv().grant_maps(), maps);
}

TEST_P(RecoveryTest, StorageRestartRequeuesInFlightWrites) {
  BuildStorage();
  // Submit a burst and crash the backend before it drains: blkfront must
  // requeue what was on the ring and every callback must still fire exactly
  // once, successfully, against the new backend.
  int completed = 0;
  int failed = 0;
  constexpr int kWrites = 40;
  for (int i = 0; i < kWrites; ++i) {
    guest_->blkfront()->Write(static_cast<int64_t>(i) * 64 * 1024, Buffer(16 * 1024, 0x5a),
                              [&](bool ok) { ok ? ++completed : ++failed; });
  }
  sys_->RestartStorageDomain(stordom_);
  ASSERT_TRUE(WaitBlkRecovered(1));
  ASSERT_TRUE(sys_->WaitUntil([&] { return completed + failed == kWrites; }, Seconds(10)));
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(completed, kWrites);
  EXPECT_GT(guest_->blkfront()->requests_requeued(), 0u);
}

TEST_P(RecoveryTest, StorageRestartAbortsHungCompletions) {
  BuildStorage();
  // The controller parks the completion of one write; the backend dies
  // with it outstanding.
  sys_->faults().set_rate(FaultSite::kDiskHang, 1.0);
  bool first_acked = false;
  guest_->blkfront()->Write(0, Buffer(4096, 0x11), [&](bool ok) { first_acked = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return stordom_->disk()->hung_io_count() == 1; }));
  sys_->faults().set_rate(FaultSite::kDiskHang, 0.0);

  // The hand-over fails the parked op (an I/O error that frees its slot);
  // blkfront requeues the write, and the replacement acks it.
  StorageDomain* fresh = sys_->RestartStorageDomain(stordom_);
  ASSERT_TRUE(WaitBlkRecovered(1));
  ASSERT_TRUE(sys_->WaitUntil([&] { return first_acked; }));
  EXPECT_EQ(fresh->disk()->hung_io_count(), 0);
  EXPECT_EQ(fresh->disk()->io_errors(), 1u);

  // Every op the backends submitted has completed, the aborted one as an
  // error, and the stale op must never land over a later acknowledged write.
  bool second_acked = false;
  guest_->blkfront()->Write(0, Buffer(4096, 0x22), [&](bool ok) { second_acked = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return second_acked; }));
  sys_->RunUntilIdle();
  const std::vector<Violation> violations = InvariantChecker(sys_.get()).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
  fresh->disk()->ReleaseHungIo();
  sys_->RunUntilIdle();
  Buffer readback;
  bool read_done = false;
  guest_->blkfront()->Read(0, 4096, &readback, [&](bool ok) { read_done = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return read_done; }));
  EXPECT_EQ(Fnv1a(readback), Fnv1a(Buffer(4096, 0x22)));
}

TEST_P(RecoveryTest, TenCyclesLeakNothing) {
  BuildNet();
  ASSERT_TRUE(PingGuest());
  const DomId gid = guest_->domain()->id();
  Hypervisor& hv = sys_->hv();

  // Steady-state footprint of one connected VIF, measured after the first
  // connect. Every later cycle must return to exactly this footprint (the
  // live backend legitimately holds the tx/rx ring mappings).
  const int base_grants = guest_->domain()->grant_table().active_entry_count();
  const int base_maps = guest_->domain()->grant_table().total_maps_outstanding();
  const int base_ports = hv.open_port_count(gid);
  const int base_watches = hv.store().watch_count(gid);

  NetworkDomain* dom = netdom_;
  for (int cycle = 0; cycle < 10; ++cycle) {
    dom = sys_->RestartNetworkDomain(dom);
    ASSERT_TRUE(WaitNetRecovered(cycle + 1)) << "cycle " << cycle;
    ASSERT_TRUE(PingGuest()) << "cycle " << cycle;
    EXPECT_EQ(guest_->domain()->grant_table().active_entry_count(), base_grants)
        << "grant leak at cycle " << cycle;
    EXPECT_EQ(guest_->domain()->grant_table().total_maps_outstanding(), base_maps)
        << "stale mapping of guest pages at cycle " << cycle;
    EXPECT_EQ(hv.open_port_count(gid), base_ports) << "port leak at cycle " << cycle;
    EXPECT_EQ(hv.store().watch_count(gid), base_watches)
        << "watch leak at cycle " << cycle;
    EXPECT_EQ(dom->driver()->pending_fe_watch_count(), 0)
        << "backend fe-watch leak at cycle " << cycle;
  }
  EXPECT_EQ(guest_->netfront()->recoveries(), 10u);
}

TEST_P(RecoveryTest, TenStorageCyclesLeakNothing) {
  BuildStorage(/*store_data=*/false);
  const DomId gid = guest_->domain()->id();
  Hypervisor& hv = sys_->hv();

  auto write_once = [&] {
    bool done = false;
    guest_->blkfront()->Write(0, Buffer(16 * 1024, 0x2a), [&](bool ok) { done = ok; });
    return sys_->WaitUntil([&] { return done; }, Seconds(2));
  };
  ASSERT_TRUE(write_once());
  const int base_maps = guest_->domain()->grant_table().total_maps_outstanding();
  const int base_ports = hv.open_port_count(gid);
  const int base_watches = hv.store().watch_count(gid);

  StorageDomain* dom = stordom_;
  for (int cycle = 0; cycle < 10; ++cycle) {
    dom = sys_->RestartStorageDomain(dom);
    ASSERT_TRUE(WaitBlkRecovered(cycle + 1)) << "cycle " << cycle;
    ASSERT_TRUE(write_once()) << "cycle " << cycle;
    EXPECT_EQ(guest_->domain()->grant_table().total_maps_outstanding(), base_maps)
        << "stale mapping of guest pages at cycle " << cycle;
    EXPECT_EQ(hv.open_port_count(gid), base_ports) << "port leak at cycle " << cycle;
    EXPECT_EQ(hv.store().watch_count(gid), base_watches)
        << "watch leak at cycle " << cycle;
    EXPECT_EQ(dom->driver()->pending_fe_watch_count(), 0)
        << "backend fe-watch leak at cycle " << cycle;
  }
  EXPECT_EQ(guest_->blkfront()->recoveries(), 10u);
}

TEST_P(RecoveryTest, DeadDomainStateIsSweptFromXenstore) {
  BuildNet();
  const DomId old_id = netdom_->domain()->id();
  const std::string old_home = netdom_->domain()->store_home();
  ASSERT_TRUE(sys_->hv().store().Exists(old_home + "/backend"));

  sys_->RestartNetworkDomain(netdom_);
  ASSERT_TRUE(WaitNetRecovered(1));

  // The dead domain's entire subtree is gone, its watches are deregistered,
  // and its event channels are closed.
  EXPECT_FALSE(sys_->hv().store().Exists(old_home));
  EXPECT_EQ(sys_->hv().store().watch_count(old_id), 0);
  EXPECT_EQ(sys_->hv().open_port_count(old_id), 0);
}

TEST_P(RecoveryTest, DestroyedMapperLetsOwnerReclaimGrants) {
  // Hypervisor-level teardown contract: when a domain dies holding mappings
  // into a survivor's pages (no graceful driver shutdown — a true crash),
  // the mappings are force-dropped so the owner's EndAccess succeeds.
  BuildNet();
  Domain* mapper = sys_->hv().CreateDomain("crasher", 1, 256);
  mapper->set_online(true);
  PageRef page = AllocPage();
  GrantRef ref =
      guest_->domain()->grant_table().GrantAccess(mapper->id(), page, /*readonly=*/false);
  MappedGrant map = sys_->hv().GrantMap(mapper, guest_->domain()->id(), ref,
                                        /*write_access=*/true);
  ASSERT_TRUE(map.valid());

  // While mapped, the owner cannot revoke.
  EXPECT_FALSE(guest_->domain()->grant_table().EndAccess(ref));

  sys_->hv().DestroyDomain(mapper->id());
  EXPECT_GT(sys_->hv().forced_grant_revocations(), 0u);
  EXPECT_TRUE(guest_->domain()->grant_table().EndAccess(ref));
  map.Unmap();  // Stale handle from the dead mapper: must be a no-op.
}

TEST_P(RecoveryTest, RecoversUnderInjectedFaults) {
  KiteSystem::Params params;
  params.disk_store_data = true;
  sys_ = std::make_unique<KiteSystem>(params);
  // Acceptance floor from the issue: ≥1% grant-map failures and packet loss,
  // on top of xenstore read flakiness and disk I/O errors.
  sys_->faults().set_rate(FaultSite::kGrantMap, 0.02);
  sys_->faults().set_rate(FaultSite::kNicLoss, 0.02);
  sys_->faults().set_rate(FaultSite::kXenstoreRead, 0.01);
  sys_->faults().set_rate(FaultSite::kDiskIo, 0.01);

  DriverDomainConfig config;
  config.os = GetParam();
  netdom_ = sys_->CreateNetworkDomain(config);
  stordom_ = sys_->CreateStorageDomain(config);
  guest_ = sys_->CreateGuest("app-vm");
  sys_->AttachVif(guest_, netdom_, kGuestIp);
  sys_->AttachVbd(guest_, stordom_);
  ASSERT_TRUE(sys_->WaitConnected(guest_));

  // Application-level retry, as a real guest would: a ping may be eaten by
  // injected loss, a write may fail with an injected I/O error.
  auto ping_with_retry = [&] {
    for (int attempt = 0; attempt < 20; ++attempt) {
      if (PingGuest()) {
        return true;
      }
    }
    return false;
  };
  auto write_with_retry = [&](int64_t offset, const Buffer& data) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      bool done = false;
      bool ok = false;
      guest_->blkfront()->Write(offset, data, [&](bool r) {
        done = true;
        ok = r;
      });
      if (sys_->WaitUntil([&] { return done; }, Seconds(5)) && ok) {
        return true;
      }
    }
    return false;
  };

  ASSERT_TRUE(ping_with_retry());
  ASSERT_TRUE(write_with_retry(0, Buffer(32 * 1024, 0x77)));

  netdom_ = sys_->RestartNetworkDomain(netdom_);
  stordom_ = sys_->RestartStorageDomain(stordom_);
  ASSERT_TRUE(WaitNetRecovered(1));
  ASSERT_TRUE(WaitBlkRecovered(1));

  ASSERT_TRUE(ping_with_retry());
  ASSERT_TRUE(write_with_retry(64 * 1024, Buffer(32 * 1024, 0x88)));

  // The injector actually fired: we recovered *through* faults, not around
  // them.
  EXPECT_GT(sys_->faults().total_trips(), 0u);
}

TEST_P(RecoveryTest, FaultInjectorIsDeterministic) {
  // Two identical runs with the same seed must trip the same sites the same
  // number of times — the property that makes fault scenarios replayable.
  auto run = [&]() -> std::vector<uint64_t> {
    KiteSystem::Params params;
    KiteSystem sys(params);
    sys.faults().set_rate(FaultSite::kNicLoss, 0.05);
    sys.faults().set_rate(FaultSite::kGrantMap, 0.02);
    DriverDomainConfig config;
    config.os = GetParam();
    NetworkDomain* nd = sys.CreateNetworkDomain(config);
    GuestVm* guest = sys.CreateGuest("app-vm");
    sys.AttachVif(guest, nd, kGuestIp);
    sys.WaitConnected(guest);
    auto sock = sys.client()->stack()->OpenUdp();
    for (int i = 0; i < 100; ++i) {
      sock->SendTo(kGuestIp, 9000, Buffer(1000, 0x11));
    }
    sys.RunFor(Millis(50));
    std::vector<uint64_t> counts;
    for (int s = 0; s < static_cast<int>(FaultSite::kCount); ++s) {
      counts.push_back(sys.faults().trips(static_cast<FaultSite>(s)));
      counts.push_back(sys.faults().rolls(static_cast<FaultSite>(s)));
    }
    return counts;
  };
  EXPECT_EQ(run(), run());
}

// --- Guest death (the inverse direction: frontends die, backends clean up). ---

TEST_P(RecoveryTest, GuestDeathReapsNetbackInstance) {
  BuildNet();
  ASSERT_TRUE(PingGuest());
  NetworkBackendDriver* driver = netdom_->driver();
  EXPECT_EQ(driver->instance_count(), 1);
  EXPECT_EQ(driver->paired_fe_watch_count(), 1);
  EXPECT_EQ(netdom_->bridge()->port_count(), 2);  // Physical NIC + vif.
  const DomId gid = guest_->domain()->id();
  const std::string be = BackendPath(netdom_->domain()->id(), "vif", gid, 0);

  sys_->DestroyGuest(guest_);
  guest_ = nullptr;
  // The death watch wakes the driver's scan thread; the instance drains its
  // worker threads and must be fully freed — count back to zero, no corpses
  // in the graveyard, no leaked watches, the vif unbridged, and the backend
  // xenstore subtree gone.
  ASSERT_TRUE(sys_->WaitUntil([&] {
    return driver->instance_count() == 0 && driver->dying_instance_count() == 0;
  }));
  EXPECT_EQ(driver->instances_reaped(), 1u);
  EXPECT_EQ(driver->paired_fe_watch_count(), 0);
  EXPECT_EQ(driver->pending_fe_watch_count(), 0);
  EXPECT_EQ(netdom_->bridge()->port_count(), 1);
  EXPECT_FALSE(sys_->hv().store().Exists(be + "/state"));

  // The driver domain must still serve other guests: attach a fresh one.
  GuestVm* next = sys_->CreateGuest("next-vm");
  sys_->AttachVif(next, netdom_, kGuestIp);
  ASSERT_TRUE(sys_->WaitConnected(next));
  guest_ = next;
  EXPECT_TRUE(PingGuest());
  EXPECT_EQ(driver->instance_count(), 1);
}

TEST_P(RecoveryTest, GuestDeathReapsBlkbackInstance) {
  BuildStorage();
  // Push some I/O so the instance has in-flight machinery to drain.
  bool wrote = false;
  guest_->blkfront()->Write(0, Buffer(16 * 1024, 0xab), [&](bool ok) { wrote = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return wrote; }));
  StorageBackendDriver* driver = stordom_->driver();
  EXPECT_EQ(driver->instance_count(), 1);
  EXPECT_EQ(driver->paired_fe_watch_count(), 1);
  const DomId gid = guest_->domain()->id();
  const std::string be = BackendPath(stordom_->domain()->id(), "vbd", gid, 51712);

  sys_->DestroyGuest(guest_);
  guest_ = nullptr;
  ASSERT_TRUE(sys_->WaitUntil([&] {
    return driver->instance_count() == 0 && driver->dying_instance_count() == 0;
  }));
  EXPECT_EQ(driver->instances_reaped(), 1u);
  EXPECT_EQ(driver->paired_fe_watch_count(), 0);
  EXPECT_EQ(driver->pending_fe_watch_count(), 0);
  EXPECT_FALSE(sys_->hv().store().Exists(be + "/state"));
  // The status app forgets the dead vbd.
  EXPECT_TRUE(stordom_->app()->Status().empty());

  GuestVm* next = sys_->CreateGuest("next-db-vm");
  sys_->AttachVbd(next, stordom_);
  ASSERT_TRUE(sys_->WaitConnected(next));
  guest_ = next;
  EXPECT_EQ(driver->instance_count(), 1);
}

TEST_P(RecoveryTest, GuestDeathBeforePairingReapsBlkbackInstance) {
  // Kill the guest in the window where the toolstack attached the device but
  // the frontend never published: the blkback instance already exists (it
  // advertises at attach), and must still be reaped.
  KiteSystem::Params params;
  sys_ = std::make_unique<KiteSystem>(params);
  DriverDomainConfig config;
  config.os = GetParam();
  stordom_ = sys_->CreateStorageDomain(config);
  GuestVm* doomed = sys_->CreateGuest("doomed-vm");
  const DomId gid = doomed->domain()->id();
  const DomId bid = stordom_->domain()->id();
  XenStore& store = sys_->hv().store();
  // Toolstack half of AttachVbd only — no Blkfront is ever constructed.
  const std::string fe = FrontendPath(gid, "vbd", 51712);
  const std::string be = BackendPath(bid, "vbd", gid, 51712);
  store.Write(kDom0, fe + "/backend", be);
  store.WriteInt(kDom0, fe + "/backend-id", bid);
  store.Write(kDom0, be + "/frontend", fe);
  store.WriteInt(kDom0, be + "/frontend-id", gid);
  store.SetPermission(kDom0, fe, bid);
  store.SetPermission(kDom0, be, gid);
  StorageBackendDriver* driver = stordom_->driver();
  ASSERT_TRUE(sys_->WaitUntil([&] { return driver->instance_count() == 1; }));
  EXPECT_EQ(driver->pending_fe_watch_count(), 1);

  sys_->DestroyGuest(doomed);
  ASSERT_TRUE(sys_->WaitUntil([&] {
    return driver->instance_count() == 0 && driver->dying_instance_count() == 0;
  }));
  EXPECT_EQ(driver->pending_fe_watch_count(), 0);
  EXPECT_EQ(driver->paired_fe_watch_count(), 0);
}

TEST_P(RecoveryTest, GuestDeathBeforePairingReapsNetbackInstance) {
  // The netback twin: the toolstack attached a vif but no Netfront ever
  // published. The instance exists from the moment its backend node appears,
  // so the guest's death must reap it, its frontend watch and its node.
  KiteSystem::Params params;
  sys_ = std::make_unique<KiteSystem>(params);
  DriverDomainConfig config;
  config.os = GetParam();
  netdom_ = sys_->CreateNetworkDomain(config);
  GuestVm* doomed = sys_->CreateGuest("doomed-vm");
  const DomId gid = doomed->domain()->id();
  const DomId bid = netdom_->domain()->id();
  XenStore& store = sys_->hv().store();
  // Toolstack half of AttachVif only — no Netfront is ever constructed.
  const std::string fe = FrontendPath(gid, "vif", 0);
  const std::string be = BackendPath(bid, "vif", gid, 0);
  store.Write(kDom0, fe + "/backend", be);
  store.WriteInt(kDom0, fe + "/backend-id", bid);
  store.WriteInt(kDom0, fe + "/state", static_cast<int>(XenbusState::kInitialising));
  store.Write(kDom0, be + "/frontend", fe);
  store.WriteInt(kDom0, be + "/frontend-id", gid);
  store.WriteInt(kDom0, be + "/online", 1);
  store.WriteInt(kDom0, be + "/state", static_cast<int>(XenbusState::kInitialising));
  store.SetPermission(kDom0, fe, bid);
  store.SetPermission(kDom0, be, gid);
  NetworkBackendDriver* driver = netdom_->driver();
  ASSERT_TRUE(sys_->WaitUntil([&] { return driver->pending_fe_watch_count() == 1; }));
  EXPECT_EQ(driver->instance_count(), 1);

  sys_->DestroyGuest(doomed);
  ASSERT_TRUE(sys_->WaitUntil([&] {
    return driver->instance_count() == 0 && driver->dying_instance_count() == 0;
  }));
  EXPECT_EQ(driver->instances_reaped(), 1u);
  EXPECT_EQ(driver->pending_fe_watch_count(), 0);
  EXPECT_EQ(driver->paired_fe_watch_count(), 0);
  EXPECT_FALSE(store.Exists(be + "/state"));
  sys_->RunUntilIdle();
  const std::vector<Violation> violations = InvariantChecker(sys_.get()).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

TEST_P(RecoveryTest, ConnectRetryIsPacedByTimerForBothKinds) {
  // While every grant map fails, both backends keep their unconnected
  // instance and rescan on the 1 ms retry timer — not on their own xenstore
  // writes — then connect once the fault clears.
  KiteSystem::Params params;
  sys_ = std::make_unique<KiteSystem>(params);
  DriverDomainConfig config;
  config.os = GetParam();
  netdom_ = sys_->CreateNetworkDomain(config);
  stordom_ = sys_->CreateStorageDomain(config);
  guest_ = sys_->CreateGuest("app-vm");
  sys_->faults().set_rate(FaultSite::kGrantMap, 1.0);
  sys_->AttachVif(guest_, netdom_, kGuestIp);
  sys_->AttachVbd(guest_, stordom_);
  sys_->RunFor(Millis(5));
  EXPECT_GE(netdom_->driver()->connect_retries(), 1u);
  EXPECT_LE(netdom_->driver()->connect_retries(), 12u);
  EXPECT_GE(stordom_->driver()->connect_retries(), 1u);
  EXPECT_LE(stordom_->driver()->connect_retries(), 12u);

  sys_->faults().set_rate(FaultSite::kGrantMap, 0.0);
  ASSERT_TRUE(sys_->WaitConnected(guest_));
  EXPECT_EQ(netdom_->driver()->instance_count(), 1);
  EXPECT_EQ(netdom_->driver()->pending_fe_watch_count(), 0);
  EXPECT_EQ(netdom_->driver()->paired_fe_watch_count(), 1);
  EXPECT_EQ(stordom_->driver()->instance_count(), 1);
  EXPECT_EQ(stordom_->driver()->pending_fe_watch_count(), 0);
  EXPECT_EQ(stordom_->driver()->paired_fe_watch_count(), 1);
  EXPECT_TRUE(PingGuest());
  bool read_ok = false;
  guest_->blkfront()->Read(0, 4096, nullptr, [&](bool ok) { read_ok = ok; });
  EXPECT_TRUE(sys_->WaitUntil([&] { return read_ok; }));
  sys_->RunUntilIdle();
  const std::vector<Violation> violations = InvariantChecker(sys_.get()).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

// A relinking frontend keeps the Closed state its dead backend left until
// its relink watch reads the new backend-id. Fail that one read: the retry
// is 1 ms away, and meanwhile the replacement's InitWait write rescans the
// bus. The new, unpaired instance must survive that scan.
TEST_P(RecoveryTest, FailedRelinkReadDoesNotStrandNetworkGuest) {
  BuildNet();
  ASSERT_TRUE(PingGuest());
  const DomId old_backend = guest_->netfront()->backend_dom();
  sys_->faults().set_rate(FaultSite::kXenstoreRead, 1.0);
  NetworkDomain* fresh = sys_->RestartNetworkDomain(netdom_);
  ASSERT_TRUE(sys_->WaitUntil(
      [&] { return sys_->faults().trips(FaultSite::kXenstoreRead) == 1; }));
  sys_->faults().set_rate(FaultSite::kXenstoreRead, 0.0);
  EXPECT_EQ(guest_->netfront()->backend_dom(), old_backend);
  EXPECT_EQ(guest_->netfront()->recoveries(), 0u);

  ASSERT_TRUE(WaitNetRecovered(1));
  EXPECT_EQ(guest_->netfront()->backend_dom(), fresh->domain()->id());
  EXPECT_EQ(fresh->driver()->instances_reaped(), 0u);
  EXPECT_EQ(sys_->migrator().failed(), 0u);
  EXPECT_TRUE(PingGuest());
}

TEST_P(RecoveryTest, FailedRelinkReadDoesNotStrandStorageGuest) {
  BuildStorage();
  const DomId old_backend = guest_->blkfront()->backend_dom();
  sys_->faults().set_rate(FaultSite::kXenstoreRead, 1.0);
  StorageDomain* fresh = sys_->RestartStorageDomain(stordom_);
  ASSERT_TRUE(sys_->WaitUntil(
      [&] { return sys_->faults().trips(FaultSite::kXenstoreRead) == 1; }));
  sys_->faults().set_rate(FaultSite::kXenstoreRead, 0.0);
  EXPECT_EQ(guest_->blkfront()->backend_dom(), old_backend);
  EXPECT_EQ(guest_->blkfront()->recoveries(), 0u);

  ASSERT_TRUE(WaitBlkRecovered(1));
  EXPECT_EQ(guest_->blkfront()->backend_dom(), fresh->domain()->id());
  EXPECT_EQ(fresh->driver()->instances_reaped(), 0u);
  EXPECT_EQ(sys_->migrator().failed(), 0u);
  bool wrote = false;
  guest_->blkfront()->Write(0, Buffer(4096, 0x5a), [&](bool ok) { wrote = ok; });
  EXPECT_TRUE(sys_->WaitUntil([&] { return wrote; }));
}

// A guest destroyed while its frontend's relink read is waiting on the 1 ms
// retry: the retry must find the frontend gone instead of calling into the
// freed device, and the replacement backend must reap the relinked device.
TEST_P(RecoveryTest, GuestDestroyedWithRelinkRetryPendingLeavesNoResidue) {
  for (const DeviceKind kind : {DeviceKind::kVif, DeviceKind::kVbd}) {
    SCOPED_TRACE(DeviceTypeName(kind));
    if (kind == DeviceKind::kVif) {
      BuildNet();
    } else {
      BuildStorage();
    }
    const DomId old_backend = guest_->frontend(kind)->backend_dom();
    sys_->faults().set_rate(FaultSite::kXenstoreRead, 1.0);
    if (kind == DeviceKind::kVif) {
      sys_->RestartNetworkDomain(netdom_);
    } else {
      sys_->RestartStorageDomain(stordom_);
    }
    ASSERT_TRUE(sys_->WaitUntil(
        [&] { return sys_->faults().trips(FaultSite::kXenstoreRead) == 1; }));
    sys_->faults().set_rate(FaultSite::kXenstoreRead, 0.0);
    ASSERT_EQ(guest_->frontend(kind)->backend_dom(), old_backend);  // The retry is pending.

    sys_->DestroyGuest(guest_);
    guest_ = nullptr;
    sys_->RunFor(Millis(5));
    sys_->RunUntilIdle();
    const std::vector<Violation> violations = InvariantChecker(sys_.get()).Check();
    EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
  }
}

// A vbd publishes at its backend's first InitWait. Restart the storage
// domain before that: the vbd still watches the dead backend's state when
// the toolstack relinks it, and the relink must replace that watch rather
// than add a second one: the guest then holds two watches, its relink watch
// and one backend-state watch.
TEST_P(RecoveryTest, StorageRestartBeforePublishLeavesOneBackendWatch) {
  KiteSystem::Params params;
  sys_ = std::make_unique<KiteSystem>(params);
  DriverDomainConfig config;
  config.os = GetParam();
  stordom_ = sys_->CreateStorageDomain(config);
  guest_ = sys_->CreateGuest("db-vm");
  sys_->AttachVbd(guest_, stordom_);
  const DomId gid = guest_->domain()->id();
  const std::string fe_state = FrontendPath(gid, "vbd", guest_->blkfront()->devid()) + "/state";
  ASSERT_EQ(sys_->hv().store().ReadInt(kDom0, fe_state),
            static_cast<int>(XenbusState::kInitialising));  // Not yet published.
  stordom_ = sys_->RestartStorageDomain(stordom_);
  ASSERT_TRUE(sys_->WaitConnected(guest_));
  EXPECT_EQ(guest_->blkfront()->recoveries(), 1u);
  EXPECT_EQ(sys_->hv().store().watch_count(gid), 2);
  sys_->RunUntilIdle();
  const std::vector<Violation> violations = InvariantChecker(sys_.get()).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

// Driver-domain xenstore ops (15 us each) charged by one guest lifecycle of
// `kind` beside a standing fleet of `fleet` guests: create, attach,
// connect, destroy, reap.
uint64_t LifecycleXenstoreOps(OsKind os, DeviceKind kind, int fleet) {
  KiteSystem sys;
  sys.EnableCpuAttribution();
  DriverDomainConfig config;
  config.os = os;
  NetworkDomain* netdom = nullptr;
  StorageDomain* stordom = nullptr;
  DriverDomain* dd = nullptr;
  if (kind == DeviceKind::kVif) {
    dd = netdom = sys.CreateNetworkDomain(config);
  } else {
    dd = stordom = sys.CreateStorageDomain(config);
  }
  auto attach = [&](GuestVm* g, int host) {
    if (netdom != nullptr) {
      sys.AttachVif(g, netdom, Ipv4Addr::FromOctets(10, 0, 0, static_cast<uint8_t>(host)));
    } else {
      sys.AttachVbd(g, stordom);
    }
    EXPECT_TRUE(sys.WaitConnected(g));
  };
  for (int i = 0; i < fleet; ++i) {
    attach(sys.CreateGuest("fleet-" + std::to_string(i)), 20 + i);
  }
  sys.RunFor(Millis(10));
  const CpuCategory* xenstore_op = KITE_CPU_CATEGORY("hv/xenstore_op");
  Vcpu* vcpu = dd->domain()->vcpu(0);
  const SimDuration before = vcpu->attributed_busy(xenstore_op->index);
  auto reaped = [&] {
    return netdom != nullptr ? netdom->driver()->instances_reaped()
                             : stordom->driver()->instances_reaped();
  };
  GuestVm* guest = sys.CreateGuest("churn");
  attach(guest, 200);
  const uint64_t reaped_before = reaped();
  sys.DestroyGuest(guest);
  EXPECT_TRUE(sys.WaitUntil([&] { return reaped() > reaped_before; }));
  return static_cast<uint64_t>((vcpu->attributed_busy(xenstore_op->index) - before).ns() /
                               XenStore::kOpLatency.ns());
}

// A watch event names one device, and the backend's wake visits only that
// device: what a guest lifecycle costs the driver domain in xenstore ops
// does not grow with the guests already attached.
TEST_P(RecoveryTest, LifecycleXenstoreOpsDoNotGrowWithTheFleet) {
  for (const DeviceKind kind : {DeviceKind::kVif, DeviceKind::kVbd}) {
    SCOPED_TRACE(DeviceTypeName(kind));
    const uint64_t beside_two = LifecycleXenstoreOps(GetParam(), kind, 2);
    const uint64_t beside_sixteen = LifecycleXenstoreOps(GetParam(), kind, 16);
    EXPECT_GT(beside_two, 0u);
    EXPECT_EQ(beside_sixteen, beside_two);
  }
}

// Attach both kinds while every xenstore read fails: each backend's probe of
// the device its watch named fails on a node that exists, so the device must
// stay named and be probed again on the 1 ms retry until the fault clears.
TEST_P(RecoveryTest, DevicesPairOnceFailedProbesClear) {
  KiteSystem::Params params;
  sys_ = std::make_unique<KiteSystem>(params);
  DriverDomainConfig config;
  config.os = GetParam();
  netdom_ = sys_->CreateNetworkDomain(config);
  stordom_ = sys_->CreateStorageDomain(config);
  sys_->RunFor(Millis(1));  // The root watches' registration fires list empty roots.
  guest_ = sys_->CreateGuest("app-vm");
  sys_->faults().set_rate(FaultSite::kXenstoreRead, 1.0);
  sys_->AttachVif(guest_, netdom_, kGuestIp);
  sys_->AttachVbd(guest_, stordom_);
  sys_->RunFor(Millis(5));
  EXPECT_EQ(netdom_->driver()->instance_count(), 0);
  EXPECT_EQ(stordom_->driver()->instance_count(), 0);
  EXPECT_GE(sys_->faults().trips(FaultSite::kXenstoreRead), 4u);

  sys_->faults().set_rate(FaultSite::kXenstoreRead, 0.0);
  ASSERT_TRUE(sys_->WaitConnected(guest_));
  EXPECT_EQ(netdom_->driver()->instance_count(), 1);
  EXPECT_EQ(stordom_->driver()->instance_count(), 1);
  EXPECT_EQ(netdom_->driver()->pending_fe_watch_count(), 0);
  EXPECT_EQ(netdom_->driver()->paired_fe_watch_count(), 1);
  EXPECT_EQ(stordom_->driver()->pending_fe_watch_count(), 0);
  EXPECT_EQ(stordom_->driver()->paired_fe_watch_count(), 1);
  EXPECT_TRUE(PingGuest());
  bool read_ok = false;
  guest_->blkfront()->Read(0, 4096, nullptr, [&](bool ok) { read_ok = ok; });
  EXPECT_TRUE(sys_->WaitUntil([&] { return read_ok; }));
  sys_->RunUntilIdle();
  const std::vector<Violation> violations = InvariantChecker(sys_.get()).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

// A system with one driver domain of `kind` that runs guest lifecycles one
// at a time: create a guest, attach a device, connect, destroy the guest,
// wait for the reap, and settle.
class LifecycleRig {
 public:
  LifecycleRig(OsKind os, DeviceKind kind) {
    DriverDomainConfig config;
    config.os = os;
    if (kind == DeviceKind::kVif) {
      netdom_ = sys_.CreateNetworkDomain(config);
    } else {
      stordom_ = sys_.CreateStorageDomain(config);
    }
  }

  KiteSystem& sys() { return sys_; }

  void Run(int lifecycles) {
    for (int i = 0; i < lifecycles; ++i) {
      GuestVm* guest = sys_.CreateGuest("churn-" + std::to_string(serial_++));
      if (netdom_ != nullptr) {
        sys_.AttachVif(guest, netdom_, Ipv4Addr::FromOctets(10, 0, 0, 200));
      } else {
        sys_.AttachVbd(guest, stordom_);
      }
      ASSERT_TRUE(sys_.WaitConnected(guest));
      const uint64_t before = reaped();
      sys_.DestroyGuest(guest);
      ASSERT_TRUE(sys_.WaitUntil([&] { return reaped() > before; }));
    }
    sys_.RunUntilIdle();
  }

 private:
  uint64_t reaped() const {
    return netdom_ != nullptr ? netdom_->driver()->instances_reaped()
                              : stordom_->driver()->instances_reaped();
  }

  KiteSystem sys_;
  NetworkDomain* netdom_ = nullptr;
  StorageDomain* stordom_ = nullptr;
  int serial_ = 0;
};

// Nothing a lifecycle registers outlives it: the frontend's rows and the
// reaped instance's rows fold into retired rows as they die, so the
// registry holds after 40 lifecycles what it held after one.
TEST_P(RecoveryTest, RegistryDoesNotGrowWithLifecycles) {
  for (const DeviceKind kind : {DeviceKind::kVif, DeviceKind::kVbd}) {
    SCOPED_TRACE(DeviceTypeName(kind));
    LifecycleRig rig(GetParam(), kind);
    rig.Run(1);
    const size_t after_one = rig.sys().metric_registry().size();
    rig.Run(39);
    EXPECT_EQ(rig.sys().metric_registry().size(), after_one);
    EXPECT_EQ(rig.sys().metric_registry().counter(
                  MetricRegistry::kGuestsRetired,
                  StrFormat("%s-retired", DeviceTypeName(kind)), "recoveries")->value(),
              0u);
    const std::vector<Violation> violations = InvariantChecker(&rig.sys()).Check();
    EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
  }
}

// The flight recorder keeps the live domains' rings and the last
// kDeadRings dead ones: past that many deaths its ring count stops growing.
TEST_P(RecoveryTest, RecorderRingsStopGrowingPastTheDeadRingAllowance) {
  for (const DeviceKind kind : {DeviceKind::kVif, DeviceKind::kVbd}) {
    SCOPED_TRACE(DeviceTypeName(kind));
    LifecycleRig rig(GetParam(), kind);
    rig.Run(20);
    const size_t after_twenty = rig.sys().recorder().ring_count();
    EXPECT_LE(after_twenty, rig.sys().hv().live_domains().size() + FlightRecorder::kDeadRings);
    rig.Run(20);
    EXPECT_EQ(rig.sys().recorder().ring_count(), after_twenty);
  }
}

// A restart destroys the old driver with its instances, folding their rows
// into the driver domain's vbd-retired rows: with writes in flight, every
// counter's total and every stage histogram's count and sum under the
// storage domain are the same just after the restart as just before, and
// the replacement instance counts from zero.
TEST_P(RecoveryTest, StorageRestartUnderLoadKeepsEveryCounterTotal) {
  BuildStorage();
  constexpr int kWrites = 64;
  int done = 0;
  for (int i = 0; i < kWrites; ++i) {
    guest_->blkfront()->Write(int64_t{i} * 4096, Buffer(4096, static_cast<uint8_t>(i)),
                              [&](bool) { ++done; });
  }
  ASSERT_TRUE(sys_->WaitUntil([&] { return done >= kWrites / 4; }));
  ASSERT_LT(done, kWrites);
  const std::string name = stordom_->domain()->name();
  MetricRegistry& reg = sys_->metric_registry();
  // Per metric name: counter totals, and histogram counts and sums.
  auto totals = [&] {
    std::map<std::string, std::pair<uint64_t, uint64_t>> out;
    for (const MetricRegistry::Sample& s : reg.Snapshot()) {
      if (s.key.domain != name) {
        continue;
      }
      if (s.kind == MetricRegistry::Kind::kCounter) {
        out[s.key.name].first += static_cast<uint64_t>(s.value);
      } else if (s.kind == MetricRegistry::Kind::kLatency) {
        out[s.key.name].first += s.count;
        out[s.key.name].second += reg.latency(s.key.domain, s.key.device, s.key.name)->sum();
      }
    }
    return out;
  };
  const auto before = totals();
  ASSERT_GT(before.at("requests_handled").first, 0u);
  ASSERT_GT(before.at("device_ns").first, 0u);
  const uint64_t handled = before.at("requests_handled").first;
  stordom_ = sys_->RestartStorageDomain(stordom_);
  EXPECT_EQ(totals(), before);
  EXPECT_EQ(reg.counter(name, "vbd-retired", "requests_handled")->value(), handled);

  ASSERT_TRUE(WaitBlkRecovered(1));
  ASSERT_TRUE(sys_->WaitUntil([&] { return done == kWrites; }, Seconds(10)));
  const BlkbackInstance* vbd =
      stordom_->driver()->instance(guest_->domain()->id(), guest_->blkfront()->devid());
  ASSERT_NE(vbd, nullptr);
  EXPECT_GT(vbd->requests_handled(), 0u);
  EXPECT_LT(vbd->requests_handled(), handled + kWrites);
  EXPECT_EQ(totals().at("requests_handled").first, handled + vbd->requests_handled());
  sys_->RunUntilIdle();
  const std::vector<Violation> violations = InvariantChecker(sys_.get()).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

INSTANTIATE_TEST_SUITE_P(Personalities, RecoveryTest,
                         ::testing::Values(OsKind::kKiteRumprun, OsKind::kUbuntuLinux),
                         [](const ::testing::TestParamInfo<OsKind>& info) {
                           return std::string(OsKindName(info.param));
                         });

}  // namespace
}  // namespace kite
