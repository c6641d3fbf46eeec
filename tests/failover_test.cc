// Sharded driver domains with health-driven failover: live VIF/VBD migration
// between backend shards must lose nothing the guest was told succeeded —
// every acknowledged packet reaches the wire, every acknowledged write is
// readable through the new path — and the Rebalancer must drain a degraded
// shard and evacuate a stalled one without operator intervention.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/strings.h"
#include "src/core/invariants.h"
#include "src/core/kite.h"

namespace kite {
namespace {

const Ipv4Addr kGuestIp = Ipv4Addr::FromOctets(10, 0, 0, 10);

Ipv4Addr GuestIpFor(int i) { return Ipv4Addr::FromOctets(10, 0, 0, 10 + i); }

void ExpectCoherent(KiteSystem* sys) {
  sys->RunUntilIdle();
  InvariantChecker checker(sys);
  const std::vector<Violation> violations = checker.Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

bool PingFrom(KiteSystem* sys, GuestVm* guest) {
  bool ok = false;
  guest->stack()->Ping(sys->client_ip(), 56, [&](bool r, SimDuration) { ok = r; });
  sys->WaitUntil([&] { return ok; }, Seconds(5));
  return ok;
}

TEST(FailoverTest, GracefulVifMigrationLosesNoAckedPacket) {
  KiteSystem sys;
  NetworkDomain* a = sys.CreateNetworkDomain();
  NetworkDomain* b = sys.CreateNetworkDomain();  // Forces the fabric switch in.
  ASSERT_NE(sys.ether_switch(), nullptr);
  GuestVm* guest = sys.CreateGuest("app-vm");
  sys.AttachVif(guest, a, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));

  // nuttcp-style stream guest -> client while the VIF moves shards.
  auto server = sys.client()->stack()->OpenUdp();
  server->Bind(9000);
  uint64_t client_rx = 0;
  server->SetRecvCallback([&](Ipv4Addr, uint16_t, const Buffer&) { ++client_rx; });
  auto sock = guest->stack()->OpenUdp();
  constexpr int kPackets = 400;
  for (int i = 0; i < kPackets; ++i) {
    sys.executor().PostAfter(Micros(20) * i, [&sys, &sock] {
      sock->SendTo(sys.client_ip(), 9000, Buffer(512, 0x42));
    });
  }

  bool done = false;
  bool ok = false;
  sys.executor().PostAfter(Micros(20) * (kPackets / 2), [&] {
    sys.MigrateVif(guest, b, [&](bool r) {
      done = true;
      ok = r;
    });
  });
  ASSERT_TRUE(sys.WaitUntil([&] { return done; }, Seconds(5)));
  EXPECT_TRUE(ok);
  sys.RunUntilIdle();

  EXPECT_TRUE(guest->netfront()->connected());
  EXPECT_EQ(guest->netfront()->backend_dom(), b->domain()->id());
  // Exact conservation: every packet the guest wasn't told was dropped made
  // it to the client. The only legal losses are the explicitly counted ones.
  const uint64_t accounted =
      kPackets - guest->netfront()->tx_dropped() - guest->netfront()->recovery_drops();
  EXPECT_EQ(client_rx, accounted);
  EXPECT_GT(client_rx, 0u);

  EXPECT_EQ(sys.migrator().completed(), 1u);
  EXPECT_EQ(sys.migrator().failed(), 0u);
  EXPECT_EQ(sys.migrations_in_flight(), 0);
  // The move left its mark in the guest's flight-recorder ring.
  const std::string tail = sys.recorder().FormatTail(guest->domain()->id());
  EXPECT_NE(tail.find("migrate-start"), std::string::npos);
  EXPECT_NE(tail.find("migrate-done"), std::string::npos);

  EXPECT_TRUE(PingFrom(&sys, guest));
  ExpectCoherent(&sys);
}

TEST(FailoverTest, GracefulVbdMigrationKeepsEveryAckedWrite) {
  KiteSystem::Params params;
  params.disk_store_data = true;
  KiteSystem sys(params);
  StorageDomain* a = sys.CreateStorageDomain();
  StorageDomain* b = sys.CreateStorageDomain();  // Both port the shared media.
  GuestVm* guest = sys.CreateGuest("db-vm");
  sys.AttachVbd(guest, a);
  ASSERT_TRUE(sys.WaitConnected(guest));

  // Burst of distinct-pattern writes, then migrate while they are in flight:
  // acked writes ride the shared media, unacked ones are requeued by the
  // frontend against the new shard. Every callback fires exactly once, ok.
  constexpr int kWrites = 48;
  int completed = 0;
  int failed = 0;
  for (int i = 0; i < kWrites; ++i) {
    guest->blkfront()->Write(static_cast<int64_t>(i) * 64 * 1024,
                             Buffer(16 * 1024, static_cast<uint8_t>(i + 1)),
                             [&](bool ok) { ok ? ++completed : ++failed; });
  }
  bool done = false;
  bool ok = false;
  sys.MigrateVbd(guest, b, [&](bool r) {
    done = true;
    ok = r;
  });
  ASSERT_TRUE(sys.WaitUntil([&] { return completed + failed == kWrites; }, Seconds(10)));
  EXPECT_EQ(failed, 0);
  ASSERT_TRUE(sys.WaitUntil([&] { return done; }, Seconds(5)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(guest->blkfront()->backend_dom(), b->domain()->id());

  // Every acknowledged write must be readable, byte for byte, through the
  // new shard's port onto the media.
  for (int i = 0; i < kWrites; ++i) {
    Buffer readback;
    bool read_done = false;
    guest->blkfront()->Read(static_cast<int64_t>(i) * 64 * 1024, 16 * 1024, &readback,
                            [&](bool r) { read_done = r; });
    ASSERT_TRUE(sys.WaitUntil([&] { return read_done; }, Seconds(5))) << "block " << i;
    ASSERT_EQ(readback.size(), 16u * 1024u);
    EXPECT_EQ(Fnv1a(readback), Fnv1a(Buffer(16 * 1024, static_cast<uint8_t>(i + 1))))
        << "block " << i;
  }
  EXPECT_EQ(sys.migrator().completed(), 1u);
  ExpectCoherent(&sys);
}

TEST(FailoverTest, BackToBackMigrationsSerializePerDevice) {
  KiteSystem sys;
  NetworkDomain* a = sys.CreateNetworkDomain();
  NetworkDomain* b = sys.CreateNetworkDomain();
  NetworkDomain* c = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("app-vm");
  sys.AttachVif(guest, a, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));

  // The second move is issued while the first is still draining; it must
  // queue behind it (never a double-relink) and run after it completes.
  std::vector<std::string> order;
  sys.MigrateVif(guest, b, [&](bool ok) { order.push_back(ok ? "a->b ok" : "a->b fail"); });
  sys.MigrateVif(guest, c, [&](bool ok) { order.push_back(ok ? "b->c ok" : "b->c fail"); });
  EXPECT_EQ(sys.migrations_in_flight(), 2);
  ASSERT_TRUE(sys.WaitUntil([&] { return order.size() == 2; }, Seconds(10)));
  EXPECT_EQ(order[0], "a->b ok");
  EXPECT_EQ(order[1], "b->c ok");
  EXPECT_EQ(guest->netfront()->backend_dom(), c->domain()->id());
  EXPECT_EQ(sys.migrator().completed(), 2u);
  EXPECT_TRUE(PingFrom(&sys, guest));
  ExpectCoherent(&sys);
}

TEST(FailoverTest, MigrationRacingRestartSettles) {
  KiteSystem sys;
  NetworkDomain* a = sys.CreateNetworkDomain();
  NetworkDomain* b = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("app-vm");
  sys.AttachVif(guest, a, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));

  // Start a graceful move off `a`, then restart `a` before the drain
  // finishes. The restart's forced move queues behind the graceful one; the
  // graceful move finds its source dead and relinks to `b`; the forced move
  // then finds its recorded source alive (the guest settled on `b`) and must
  // drain it rather than strand its mappings.
  bool done = false;
  bool ok = false;
  sys.MigrateVif(guest, b, [&](bool r) {
    done = true;
    ok = r;
  });
  NetworkDomain* fresh = sys.RestartNetworkDomain(a);
  ASSERT_TRUE(sys.WaitUntil(
      [&] { return done && sys.migrations_in_flight() == 0; }, Seconds(10)));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(guest->netfront()->connected());
  // The restart's move ran last: the guest ends on the replacement.
  EXPECT_EQ(guest->netfront()->backend_dom(), fresh->domain()->id());
  EXPECT_EQ(sys.migrator().completed(), 2u);
  EXPECT_EQ(sys.migrator().failed(), 0u);
  EXPECT_TRUE(PingFrom(&sys, guest));
  ExpectCoherent(&sys);
}

TEST(FailoverTest, RebalancerDrainsDegradedShard) {
  KiteSystem::Params params;
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Seconds(10);  // Degraded-only in this test.
  KiteSystem sys(params);
  NetworkDomain* a = sys.CreateNetworkDomain();
  NetworkDomain* b = sys.CreateNetworkDomain();
  DomainPool pool(&sys);
  pool.AddShard(a);
  pool.AddShard(b);
  RebalancerParams rp;
  rp.degraded_hysteresis = Millis(10);
  Rebalancer reb(&sys, &pool, rp);

  GuestVm* guest = sys.CreateGuest("app-vm");
  pool.Pin(guest->domain()->id(), DeviceKind::kVif, a->domain()->id());  // Known victim.
  ASSERT_EQ(pool.AttachVif(guest, kGuestIp), a);
  ASSERT_TRUE(sys.WaitConnected(guest));
  EXPECT_EQ(pool.Load(a->domain()->id(), DeviceKind::kVif), 1);
  pool.Unpin(guest->domain()->id(), DeviceKind::kVif);  // Let the drain re-place it freely.

  // Swallow the one kick that matters: netback never learns about the
  // request, the stall age grows, and the shard goes degraded (never
  // stalled — the threshold is far away).
  sys.faults().set_rate(FaultSite::kEventNotify, 1.0);
  guest->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  sys.RunFor(Millis(5));
  sys.faults().set_rate(FaultSite::kEventNotify, 0.0);

  // Hysteresis elapses, the Rebalancer closes the shard and drains the VIF
  // onto the healthy one — gracefully, so the retired instance leaves no
  // stranded state behind.
  ASSERT_TRUE(sys.WaitUntil(
      [&] {
        return guest->netfront()->connected() &&
               guest->netfront()->backend_dom() == b->domain()->id();
      },
      Seconds(10)));
  EXPECT_GE(reb.drains_started(), 1u);
  EXPECT_GE(reb.moves_started(), 1u);
  EXPECT_EQ(pool.Load(b->domain()->id(), DeviceKind::kVif), 1);

  // Once empty and healthy again, the shard is re-admitted for placement.
  ASSERT_TRUE(sys.WaitUntil([&] { return reb.readmissions() >= 1; }, Seconds(10)));
  EXPECT_TRUE(pool.IsShardOpen(a->domain()->id()));
  EXPECT_TRUE(PingFrom(&sys, guest));
  ExpectCoherent(&sys);
}

// The retire path cleans up as the reap path does: once the Rebalancer has
// drained a VIF off a shard, that shard holds no backend/vif/<gid>
// directory for the guest, empty or not.
TEST(FailoverTest, MigratedVifLeavesNoBackendDirectoryOnItsOldShard) {
  KiteSystem::Params params;
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Seconds(10);
  KiteSystem sys(params);
  NetworkDomain* a = sys.CreateNetworkDomain();
  NetworkDomain* b = sys.CreateNetworkDomain();
  DomainPool pool(&sys);
  pool.AddShard(a);
  pool.AddShard(b);
  RebalancerParams rp;
  rp.degraded_hysteresis = Millis(10);
  Rebalancer reb(&sys, &pool, rp);

  GuestVm* guest = sys.CreateGuest("app-vm");
  const DomId gid = guest->domain()->id();
  pool.Pin(gid, DeviceKind::kVif, a->domain()->id());
  ASSERT_EQ(pool.AttachVif(guest, kGuestIp), a);
  ASSERT_TRUE(sys.WaitConnected(guest));
  pool.Unpin(gid, DeviceKind::kVif);
  const std::string old_dir = StrFormat("/local/domain/%d/backend/vif/%d", a->domain()->id(), gid);
  ASSERT_TRUE(sys.hv().store().Exists(old_dir));

  sys.faults().set_rate(FaultSite::kEventNotify, 1.0);
  guest->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  sys.RunFor(Millis(5));
  sys.faults().set_rate(FaultSite::kEventNotify, 0.0);
  ASSERT_TRUE(sys.WaitUntil(
      [&] {
        return guest->netfront()->connected() &&
               guest->netfront()->backend_dom() == b->domain()->id();
      },
      Seconds(10)));
  EXPECT_GE(reb.moves_started(), 1u);
  EXPECT_FALSE(sys.hv().store().Exists(old_dir));
  EXPECT_TRUE(sys.hv().store().Exists(
      BackendPath(b->domain()->id(), "vif", gid, guest->netfront()->devid())));
  ExpectCoherent(&sys);
}

TEST(FailoverTest, RebalancerEvacuatesStalledShard) {
  KiteSystem::Params params;
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Millis(20);
  KiteSystem sys(params);
  NetworkDomain* a = sys.CreateNetworkDomain();
  NetworkDomain* b = sys.CreateNetworkDomain();
  const DomId a_id = a->domain()->id();
  DomainPool pool(&sys);
  pool.AddShard(a);
  pool.AddShard(b);
  RebalancerParams rp;
  // Hysteresis longer than the stall threshold: the degraded drain never
  // confirms, so the stalled path (forced evacuation) must handle it.
  rp.degraded_hysteresis = Seconds(1);
  Rebalancer reb(&sys, &pool, rp);

  GuestVm* guest = sys.CreateGuest("app-vm");
  pool.Pin(guest->domain()->id(), DeviceKind::kVif, a_id);
  ASSERT_EQ(pool.AttachVif(guest, kGuestIp), a);
  ASSERT_TRUE(sys.WaitConnected(guest));
  pool.Unpin(guest->domain()->id(), DeviceKind::kVif);

  sys.faults().set_rate(FaultSite::kEventNotify, 1.0);
  guest->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  sys.RunFor(Millis(5));
  sys.faults().set_rate(FaultSite::kEventNotify, 0.0);

  // A wedged kick is unrecoverable in place: the watchdog escalates to
  // stalled and the Rebalancer force-evacuates the shard. The guest lands on
  // the healthy survivor; a replacement domain takes the dead shard's slot.
  ASSERT_TRUE(sys.WaitUntil([&] { return reb.evacuations() >= 1; }, Seconds(10)));
  ASSERT_TRUE(sys.WaitUntil(
      [&] {
        return sys.migrations_in_flight() == 0 && guest->netfront()->connected();
      },
      Seconds(10)));
  EXPECT_EQ(reb.evacuations(), 1u);
  EXPECT_EQ(guest->netfront()->backend_dom(), b->domain()->id());
  EXPECT_FALSE(pool.HasShard(a_id));  // Old id replaced...
  EXPECT_EQ(pool.Shards(DeviceKind::kVif).size(), 2u);  // ...but the slot survives.
  EXPECT_TRUE(PingFrom(&sys, guest));
  ExpectCoherent(&sys);
}

// Hangs one 4 KB write of `pattern` at `offset` in the disk controller, so
// the blkback instance serving it stops answering; `acked` flips once the
// write is finally acknowledged.
void HangOneWrite(KiteSystem* sys, GuestVm* guest, StorageDomain* shard, int64_t offset,
                  uint8_t pattern, bool* acked) {
  sys->faults().set_rate(FaultSite::kDiskHang, 1.0);
  guest->blkfront()->Write(offset, Buffer(4096, pattern), [acked](bool ok) { *acked = ok; });
  ASSERT_TRUE(sys->WaitUntil([&] { return shard->disk()->hung_io_count() == 1; }));
  sys->faults().set_rate(FaultSite::kDiskHang, 0.0);
}

void ExpectReadBack(KiteSystem* sys, GuestVm* guest, int64_t offset, uint8_t pattern) {
  Buffer readback;
  bool read_done = false;
  guest->blkfront()->Read(offset, 4096, &readback, [&](bool ok) { read_done = ok; });
  ASSERT_TRUE(sys->WaitUntil([&] { return read_done; }, Seconds(5)));
  EXPECT_EQ(Fnv1a(readback), Fnv1a(Buffer(4096, pattern)));
}

TEST(FailoverTest, RebalancerDrainsDegradedStorageShard) {
  KiteSystem::Params params;
  params.disk_store_data = true;
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Seconds(10);  // Degraded-only in this test.
  KiteSystem sys(params);
  StorageDomain* a = sys.CreateStorageDomain();
  StorageDomain* b = sys.CreateStorageDomain();
  DomainPool pool(&sys);
  pool.AddShard(a);
  pool.AddShard(b);
  RebalancerParams rp;
  rp.degraded_hysteresis = Millis(10);
  Rebalancer reb(&sys, &pool, rp);

  GuestVm* guest = sys.CreateGuest("db-vm");
  pool.Pin(guest->domain()->id(), DeviceKind::kVbd, a->domain()->id());
  ASSERT_EQ(pool.AttachVbd(guest), a);
  ASSERT_TRUE(sys.WaitConnected(guest));
  pool.Unpin(guest->domain()->id(), DeviceKind::kVbd);

  // A hung write leaves the shard slow, not dead. The drain cannot retire
  // the instance while the write is outstanding; once the controller
  // answers, the write is acked and the VBD moves to the healthy shard.
  bool acked = false;
  HangOneWrite(&sys, guest, a, 0, 0x33, &acked);
  ASSERT_TRUE(sys.WaitUntil([&] { return reb.drains_started() >= 1; }, Seconds(10)));
  a->disk()->ReleaseHungIo();
  ASSERT_TRUE(sys.WaitUntil(
      [&] {
        return sys.migrations_in_flight() == 0 && guest->blkfront()->connected() &&
               guest->blkfront()->backend_dom() == b->domain()->id();
      },
      Seconds(10)));
  EXPECT_TRUE(acked);
  EXPECT_EQ(reb.moves_failed(), 0u);
  EXPECT_EQ(pool.Load(b->domain()->id(), DeviceKind::kVbd), 1);
  ASSERT_TRUE(sys.WaitUntil([&] { return reb.readmissions() >= 1; }, Seconds(10)));
  EXPECT_TRUE(pool.IsShardOpen(a->domain()->id()));
  ExpectReadBack(&sys, guest, 0, 0x33);
  ExpectCoherent(&sys);
}

TEST(FailoverTest, RebalancerEvacuatesStalledStorageShard) {
  KiteSystem::Params params;
  params.disk_store_data = true;
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Millis(20);
  KiteSystem sys(params);
  StorageDomain* a = sys.CreateStorageDomain();
  StorageDomain* b = sys.CreateStorageDomain();
  const DomId a_id = a->domain()->id();
  DomainPool pool(&sys);
  pool.AddShard(a);
  pool.AddShard(b);
  RebalancerParams rp;
  rp.degraded_hysteresis = Seconds(1);  // The stalled path owns the wedge.
  Rebalancer reb(&sys, &pool, rp);

  GuestVm* guest = sys.CreateGuest("db-vm");
  pool.Pin(guest->domain()->id(), DeviceKind::kVbd, a_id);
  ASSERT_EQ(pool.AttachVbd(guest), a);
  ASSERT_TRUE(sys.WaitConnected(guest));
  pool.Unpin(guest->domain()->id(), DeviceKind::kVbd);

  // The controller never answers: the shard is evacuated, its parked
  // completion dies with it, and blkfront requeues the write through the
  // survivor.
  bool acked = false;
  HangOneWrite(&sys, guest, a, 0, 0x44, &acked);
  ASSERT_TRUE(sys.WaitUntil([&] { return reb.evacuations() >= 1; }, Seconds(10)));
  ASSERT_TRUE(sys.WaitUntil(
      [&] {
        return sys.migrations_in_flight() == 0 && guest->blkfront()->connected() && acked;
      },
      Seconds(10)));
  EXPECT_EQ(reb.evacuations(), 1u);
  EXPECT_EQ(guest->blkfront()->backend_dom(), b->domain()->id());
  EXPECT_FALSE(pool.HasShard(a_id));
  EXPECT_EQ(pool.Shards(DeviceKind::kVbd).size(), 2u);
  ExpectReadBack(&sys, guest, 0, 0x44);
  ExpectCoherent(&sys);
}

// A one-shard storage pool under tight thresholds: an evacuation restarts
// the shard and relinks its guest to the replacement, so the same guest can
// wedge the same slot again and again.
struct OneStorageShard {
  OneStorageShard() : sys(Tuned()), pool(&sys) {
    shard = sys.CreateStorageDomain();
    pool.AddShard(shard);
    RebalancerParams rp;
    rp.degraded_hysteresis = Seconds(1);  // A degraded blip never drains.
    reb = std::make_unique<Rebalancer>(&sys, &pool, rp);
    guest = sys.CreateGuest("db-vm");
    EXPECT_EQ(pool.AttachVbd(guest), shard);
    EXPECT_TRUE(sys.WaitConnected(guest));
  }
  static KiteSystem::Params Tuned() {
    KiteSystem::Params params;
    params.disk_store_data = true;
    params.health.probe_period = Millis(1);
    params.health.degraded_after = Millis(5);
    params.health.stalled_after = Millis(20);
    return params;
  }
  HealthState ShardState() {
    HealthState worst = HealthState::kHealthy;
    for (const auto& inst : sys.health().Instances()) {
      if (inst.dom == shard->domain()->id() && inst.state > worst) {
        worst = inst.state;
      }
    }
    return worst;
  }
  void RunUntil(SimTime t) {
    ASSERT_LT(sys.Now(), t);
    sys.RunFor(t - sys.Now());
  }
  uint64_t backoff_defers() {
    return sys.metric_registry().counter("core", "rebalance", "backoff_defers")->value();
  }
  // Hangs one write and waits for the evacuation it causes; the write is
  // requeued through the replacement and acked there.
  SimTime StallUntilEvacuated(uint8_t pattern) {
    const uint64_t before = reb->evacuations();
    bool acked = false;
    HangOneWrite(&sys, guest, shard, 0, pattern, &acked);
    EXPECT_TRUE(sys.WaitUntil([&] { return reb->evacuations() > before; }, Seconds(10)));
    const SimTime at = sys.Now();
    EXPECT_TRUE(sys.WaitUntil([&] { return acked && guest->blkfront()->connected(); }));
    return at;
  }

  KiteSystem sys;
  DomainPool pool;
  StorageDomain* shard = nullptr;
  std::unique_ptr<Rebalancer> reb;
  GuestVm* guest = nullptr;
};

TEST(FailoverTest, HealthyShardRestartsItsEvacuationBackoff) {
  OneStorageShard t;
  const SimTime first = t.StallUntilEvacuated(0x51);

  // Degraded, then healthy again before it stalls: the streak resets.
  bool acked = false;
  HangOneWrite(&t.sys, t.guest, t.shard, 0, 0x52, &acked);
  ASSERT_TRUE(t.sys.WaitUntil([&] { return t.ShardState() == HealthState::kDegraded; }));
  t.shard->disk()->ReleaseHungIo();
  ASSERT_TRUE(t.sys.WaitUntil([&] { return acked && t.ShardState() == HealthState::kHealthy; }));
  t.RunUntil(first + Millis(100));  // The first backoff window is over.

  // With the streak reset this evacuation is the first again, so the next
  // one waits only the base backoff; without it, 200 ms.
  const SimTime second = t.StallUntilEvacuated(0x53);
  t.RunUntil(second + Millis(85));
  t.StallUntilEvacuated(0x54);
  EXPECT_EQ(t.reb->evacuations(), 3u);
  EXPECT_EQ(t.backoff_defers(), 0u);
  ExpectReadBack(&t.sys, t.guest, 0, 0x54);
  ExpectCoherent(&t.sys);
}

TEST(FailoverTest, StallInsideBackoffWindowEvacuatesWhenItEndsIfStillStalled) {
  OneStorageShard t;
  const SimTime first = t.StallUntilEvacuated(0x61);

  // Wedged again inside the 100 ms window: deferred, then evacuated the
  // moment the window ends.
  bool acked = false;
  HangOneWrite(&t.sys, t.guest, t.shard, 0, 0x62, &acked);
  ASSERT_TRUE(t.sys.WaitUntil([&] { return t.backoff_defers() == 1; }));
  EXPECT_LT(t.sys.Now(), first + Millis(100));
  EXPECT_EQ(t.reb->evacuations(), 1u);
  ASSERT_TRUE(t.sys.WaitUntil([&] { return t.reb->evacuations() == 2; }));
  const SimTime second = t.sys.Now();
  EXPECT_EQ(second, first + Millis(100));
  ASSERT_TRUE(t.sys.WaitUntil([&] { return acked && t.guest->blkfront()->connected(); }));

  // Wedged inside the next (200 ms) window but answering again before it
  // ends: the deferred retry finds the shard healthy and leaves it alone.
  acked = false;
  HangOneWrite(&t.sys, t.guest, t.shard, 0, 0x63, &acked);
  ASSERT_TRUE(t.sys.WaitUntil([&] { return t.backoff_defers() == 2; }));
  EXPECT_LT(t.sys.Now(), second + Millis(200));
  t.shard->disk()->ReleaseHungIo();
  ASSERT_TRUE(t.sys.WaitUntil([&] { return acked && t.ShardState() == HealthState::kHealthy; }));
  t.RunUntil(second + Millis(300));
  EXPECT_EQ(t.reb->evacuations(), 2u);
  EXPECT_EQ(t.backoff_defers(), 2u);
  ExpectReadBack(&t.sys, t.guest, 0, 0x63);
  ExpectCoherent(&t.sys);
}

TEST(FailoverTest, MixedPoolKeepsDeviceKindsApart) {
  KiteSystem sys;
  NetworkDomain* n1 = sys.CreateNetworkDomain();
  StorageDomain* s1 = sys.CreateStorageDomain();
  NetworkDomain* n2 = sys.CreateNetworkDomain();
  StorageDomain* s2 = sys.CreateStorageDomain();
  const DomId n1_id = n1->domain()->id();
  const DomId n2_id = n2->domain()->id();
  const DomId s1_id = s1->domain()->id();
  const DomId s2_id = s2->domain()->id();
  DomainPool pool(&sys);
  pool.AddShard(n1);
  pool.AddShard(s1);
  pool.AddShard(n2);
  pool.AddShard(s2);

  // One list, two kinds: each listing keeps its own registration order.
  auto doms = [](const std::vector<DomainPool::ShardInfo>& shards) {
    std::vector<DomId> out;
    for (const auto& info : shards) {
      out.push_back(info.dom);
    }
    return out;
  };
  EXPECT_EQ(doms(pool.Shards(DeviceKind::kVif)), (std::vector<DomId>{n1_id, n2_id}));
  EXPECT_EQ(doms(pool.Shards(DeviceKind::kVbd)), (std::vector<DomId>{s1_id, s2_id}));
  EXPECT_EQ(pool.KindOf(n1_id), DeviceKind::kVif);
  EXPECT_EQ(pool.KindOf(s2_id), DeviceKind::kVbd);
  EXPECT_FALSE(pool.KindOf(0).has_value());

  constexpr DomId kFirstGuest = 100;
  constexpr int kGuests = 16;
  std::vector<std::optional<DomId>> storage_before;
  for (DomId g = kFirstGuest; g < kFirstGuest + kGuests; ++g) {
    storage_before.push_back(pool.PickShard(g, DeviceKind::kVbd));
  }

  // Closing a network shard moves network placement only.
  pool.SetShardOpen(n1_id, false);
  EXPECT_FALSE(pool.IsShardOpen(n1_id));
  EXPECT_TRUE(pool.IsShardOpen(s1_id));
  for (DomId g = kFirstGuest; g < kFirstGuest + kGuests; ++g) {
    EXPECT_EQ(pool.PickShard(g, DeviceKind::kVbd), storage_before[g - kFirstGuest]);
    EXPECT_EQ(pool.PickShard(g, DeviceKind::kVif), n2_id);
  }
  EXPECT_EQ(pool.LeastLoadedShard(DeviceKind::kVif), n2_id);
  EXPECT_FALSE(pool.LeastLoadedShard(DeviceKind::kVif, n2_id).has_value());

  // A domain of the other kind is no shard for this device.
  pool.Pin(kFirstGuest, DeviceKind::kVbd, n2_id);
  EXPECT_FALSE(pool.PickShard(kFirstGuest, DeviceKind::kVbd).has_value());
  pool.Unpin(kFirstGuest, DeviceKind::kVbd);

  GuestVm* guest = sys.CreateGuest("app-vm");
  ASSERT_EQ(pool.AttachVif(guest, kGuestIp), n2);
  ASSERT_NE(pool.AttachVbd(guest), nullptr);
  ASSERT_TRUE(sys.WaitConnected(guest));
  const DomId stor = guest->blkfront()->backend_dom();
  EXPECT_EQ(pool.Load(n2_id, DeviceKind::kVif), 1);
  EXPECT_EQ(pool.Load(n2_id, DeviceKind::kVbd), 0);
  EXPECT_EQ(pool.Load(stor, DeviceKind::kVbd), 1);
  EXPECT_EQ(pool.Load(stor, DeviceKind::kVif), 0);

  // Leaving the pool is per domain too: the storage list stays whole.
  pool.RemoveShard(n1_id);
  EXPECT_FALSE(pool.HasShard(n1_id));
  EXPECT_EQ(doms(pool.Shards(DeviceKind::kVif)), (std::vector<DomId>{n2_id}));
  EXPECT_EQ(doms(pool.Shards(DeviceKind::kVbd)), (std::vector<DomId>{s1_id, s2_id}));
  EXPECT_TRUE(PingFrom(&sys, guest));
  ExpectCoherent(&sys);
}

// The headline scenario: 64 guests sharded over 4 network + 2 storage
// domains; one network shard is wedged to stalled mid-run; the Rebalancer
// evacuates it; no acknowledged packet or write is lost, and the quiesced
// system passes the full invariant audit.
TEST(FailoverTest, HeadlineSixtyFourGuestsSurviveStalledShard) {
  KiteSystem::Params params;
  params.disk_store_data = true;
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Millis(20);
  KiteSystem sys(params);

  constexpr int kNetShards = 4;
  constexpr int kStorShards = 2;
  constexpr int kGuests = 64;
  DomainPool pool(&sys);
  std::vector<NetworkDomain*> netdoms;
  for (int i = 0; i < kNetShards; ++i) {
    netdoms.push_back(sys.CreateNetworkDomain());
    pool.AddShard(netdoms.back());
  }
  for (int i = 0; i < kStorShards; ++i) {
    pool.AddShard(sys.CreateStorageDomain());
  }
  RebalancerParams rp;
  rp.degraded_hysteresis = Seconds(1);  // Stall wins: evacuation path.
  Rebalancer reb(&sys, &pool, rp);

  std::vector<GuestVm*> guests;
  for (int i = 0; i < kGuests; ++i) {
    GuestVm* g = sys.CreateGuest(StrFormat("vm%02d", i));
    ASSERT_NE(pool.AttachVif(g, GuestIpFor(i)), nullptr);
    ASSERT_NE(pool.AttachVbd(g), nullptr);
    guests.push_back(g);
  }
  for (GuestVm* g : guests) {
    ASSERT_TRUE(sys.WaitConnected(g));
  }
  // The hash spread every shard some guests.
  for (const auto& info : pool.Shards(DeviceKind::kVif)) {
    EXPECT_GT(info.load, 0) << "empty shard dom" << info.dom;
  }

  auto server = sys.client()->stack()->OpenUdp();
  server->Bind(9000);
  uint64_t client_rx = 0;
  server->SetRecvCallback([&](Ipv4Addr, uint16_t, const Buffer&) { ++client_rx; });
  std::vector<std::unique_ptr<UdpSocket>> socks;
  for (GuestVm* g : guests) {
    socks.push_back(g->stack()->OpenUdp());
  }
  constexpr int kPacketsPerPhase = 25;
  auto blast = [&] {
    for (size_t gi = 0; gi < guests.size(); ++gi) {
      UdpSocket* sock = socks[gi].get();
      for (int i = 0; i < kPacketsPerPhase; ++i) {
        sys.executor().PostAfter(Micros(100) * i + Micros(gi), [&sys, sock] {
          sock->SendTo(sys.client_ip(), 9000, Buffer(256, 0x5c));
        });
      }
    }
    sys.RunFor(Millis(10));
  };

  // Phase 1: all shards healthy. Plus one acked write per guest.
  blast();
  // The storage shards port one shared (dual-ported) media, so guests carve
  // it up: one disjoint slab per guest, like partitions on a shared volume.
  constexpr int64_t kSlab = 1 << 20;
  int writes_done = 0;
  for (int i = 0; i < kGuests; ++i) {
    guests[i]->blkfront()->Write(i * kSlab, Buffer(8 * 1024, static_cast<uint8_t>(i + 1)),
                                 [&](bool ok) { writes_done += ok ? 1 : 0; });
  }
  ASSERT_TRUE(sys.WaitUntil([&] { return writes_done == kGuests; }, Seconds(10)));

  // Wedge the shard serving guest 0: swallow the kick for one ping, so only
  // that netback misses an irreplaceable notification.
  const DomId victim = guests[0]->netfront()->backend_dom();
  sys.faults().set_rate(FaultSite::kEventNotify, 1.0);
  guests[0]->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  sys.RunFor(Millis(5));
  sys.faults().set_rate(FaultSite::kEventNotify, 0.0);

  // The Rebalancer evacuates; every displaced guest reconnects somewhere.
  ASSERT_TRUE(sys.WaitUntil([&] { return reb.evacuations() >= 1; }, Seconds(10)));
  ASSERT_TRUE(sys.WaitUntil(
      [&] {
        if (sys.migrations_in_flight() != 0) {
          return false;
        }
        for (GuestVm* g : guests) {
          if (!g->netfront()->connected() || g->netfront()->backend_dom() == victim) {
            return false;
          }
        }
        return true;
      },
      Seconds(30)));
  EXPECT_FALSE(pool.HasShard(victim));
  EXPECT_EQ(pool.Shards(DeviceKind::kVif).size(), static_cast<size_t>(kNetShards));

  // Phase 2: service restored across the rebuilt pool.
  blast();
  sys.RunUntilIdle();

  // Zero acked-packet loss. Across a *crash* evacuation the ledger is
  // one-sided: a frame the dead backend forwarded whose completion the guest
  // never saw is counted dropped by the frontend yet still reached the wire
  // (the crash severed the ack, not the packet). So: everything not counted
  // lost arrived, and nothing arrived that was never sent.
  uint64_t dropped = 0;
  for (GuestVm* g : guests) {
    dropped += g->netfront()->tx_dropped() + g->netfront()->recovery_drops();
  }
  const uint64_t sent = static_cast<uint64_t>(kGuests) * 2 * kPacketsPerPhase;
  EXPECT_GE(client_rx, sent - dropped);
  EXPECT_LE(client_rx, sent);
  EXPECT_GT(client_rx, 0u);

  // Zero acked-write loss: phase-1 writes read back intact (some through a
  // different storage port than they were written through, had any VBD
  // moved; all through the shared media).
  for (int i = 0; i < kGuests; ++i) {
    Buffer readback;
    bool read_done = false;
    guests[i]->blkfront()->Read(i * kSlab, 8 * 1024, &readback,
                                [&](bool r) { read_done = r; });
    ASSERT_TRUE(sys.WaitUntil([&] { return read_done; }, Seconds(5))) << "guest " << i;
    EXPECT_EQ(Fnv1a(readback), Fnv1a(Buffer(8 * 1024, static_cast<uint8_t>(i + 1))))
        << "guest " << i;
  }
  ExpectCoherent(&sys);
}

}  // namespace
}  // namespace kite
