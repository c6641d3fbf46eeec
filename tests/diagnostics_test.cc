// One-shot failure diagnostics, end to end: the watchdog must flag a wedged
// backend as stalled within its probe budget, recovery must bring the state
// machine back to healthy (in place for a released disk, via driver-domain
// restart for a swallowed kick), a KITE_CHECK abort must leave the full
// diagnostic bundle on stderr, and the always-on flight recorder must stay
// byte-for-byte deterministic even after its rings wrap.
#include <gtest/gtest.h>

#include <string>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/check/frontends.h"
#include "src/core/kite.h"

namespace kite {
namespace {

const Ipv4Addr kGuestIp = Ipv4Addr::FromOctets(10, 0, 0, 10);

// Tight thresholds so a stall is flagged in simulated milliseconds; the
// no-false-positive test below runs real traffic under these same values.
KiteSystem::Params TightWatchdogParams() {
  KiteSystem::Params params;
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Millis(20);
  return params;
}

class DiagnosticsTest : public ::testing::Test {
 protected:
  void Build(bool net, bool storage) {
    sys_ = std::make_unique<KiteSystem>(TightWatchdogParams());
    if (net) {
      netdom_ = sys_->CreateNetworkDomain();
    }
    if (storage) {
      stordom_ = sys_->CreateStorageDomain();
    }
    guest_ = sys_->CreateGuest("app-vm");
    if (net) {
      sys_->AttachVif(guest_, netdom_, kGuestIp);
    }
    if (storage) {
      sys_->AttachVbd(guest_, stordom_);
    }
    ASSERT_TRUE(sys_->WaitConnected(guest_));
    gid_ = guest_->domain()->id();
    vif_ = StrFormat("vif%d.0", gid_);
    vbd_ = StrFormat("vbd%d.51712", gid_);
  }

  bool PingGuest() {
    bool ok = false;
    sys_->client()->stack()->Ping(kGuestIp, 56, [&](bool r, SimDuration) { ok = r; });
    sys_->WaitUntil([&] { return ok; }, Seconds(5));
    return ok;
  }

  uint64_t StalledTransitions() {
    return sys_->metric_registry().counter("obs", "health", "stalled_transitions")->value();
  }
  double InstancesStalled() {
    return sys_->metric_registry().gauge("obs", "health", "instances_stalled")->value();
  }

  std::unique_ptr<KiteSystem> sys_;
  NetworkDomain* netdom_ = nullptr;
  StorageDomain* stordom_ = nullptr;
  GuestVm* guest_ = nullptr;
  DomId gid_ = 0;
  std::string vif_;
  std::string vbd_;
};

TEST_F(DiagnosticsTest, WedgedNetbackReachesStalledAndRestartRecovers) {
  Build(/*net=*/true, /*storage=*/false);
  ASSERT_TRUE(PingGuest());
  const DomId netdom_id = netdom_->domain()->id();
  EXPECT_EQ(StalledTransitions(), 0u);

  // Swallow every event-channel kick for a window: notification suppression
  // makes the one kick that crosses req_event irreplaceable, so netback
  // never learns about the request the guest pushes here.
  sys_->faults().set_rate(FaultSite::kEventNotify, 1.0);
  guest_->stack()->Ping(sys_->client_ip(), 56, [](bool, SimDuration) {});
  sys_->RunFor(Millis(5));
  sys_->faults().set_rate(FaultSite::kEventNotify, 0.0);
  EXPECT_GE(sys_->faults().trips(FaultSite::kEventNotify), 1u);

  // The watchdog must flag the vif stalled within its probe budget — the
  // stalled threshold is 20ms and WaitUntil's default deadline is seconds.
  ASSERT_TRUE(sys_->WaitUntil(
      [&] { return sys_->health().state(netdom_id, vif_) == HealthState::kStalled; }));
  EXPECT_EQ(StalledTransitions(), 1u);
  EXPECT_EQ(InstancesStalled(), 1.0);
  EXPECT_EQ(sys_->metric_registry().gauge("kite-netdom", vif_, "health_state")->value(),
            2.0);
  // The transition is published into xenstore under the backend domain.
  EXPECT_EQ(sys_->hv().store().Read(kDom0, DomainPath(netdom_id) + "/health/" + vif_)
                .value_or("missing"),
            "stalled");

  // A swallowed kick is unrecoverable in place; Kite's answer is a driver
  // domain restart. The stalled instance dies with the domain (its gauge is
  // unregistered) and the fresh pairing starts healthy.
  NetworkDomain* fresh = sys_->RestartNetworkDomain(netdom_);
  ASSERT_TRUE(sys_->WaitUntil([&] {
    return guest_->netfront()->recoveries() == 1 && guest_->netfront()->connected();
  }));
  const DomId fresh_id = fresh->domain()->id();
  ASSERT_TRUE(sys_->WaitUntil([&] {
    return sys_->health().state(fresh_id, vif_) == HealthState::kHealthy &&
           InstancesStalled() == 0.0;
  }));
  EXPECT_TRUE(PingGuest());
  // The stall count is cumulative history, not current state.
  EXPECT_EQ(StalledTransitions(), 1u);
  EXPECT_EQ(sys_->metric_registry().gauge("obs", "health", "instances")->value(), 1.0);
}

TEST_F(DiagnosticsTest, StuckDiskReachesStalledAndReleaseRecoversInPlace) {
  Build(/*net=*/false, /*storage=*/true);
  const DomId stordom_id = stordom_->domain()->id();
  BlockDevice* disk = stordom_->disk();

  // Hang the disk controller: the completion parks without releasing its
  // queue-depth slot, so blkback's in-flight count freezes above zero.
  sys_->faults().set_rate(FaultSite::kDiskHang, 1.0);
  bool write_done = false;
  bool write_ok = false;
  guest_->blkfront()->Write(0, Buffer(4096, 0x5a), [&](bool ok) {
    write_done = true;
    write_ok = ok;
  });
  ASSERT_TRUE(sys_->WaitUntil([&] { return disk->hung_io_count() > 0; }));
  sys_->faults().set_rate(FaultSite::kDiskHang, 0.0);
  EXPECT_EQ(disk->hung_io_count(), 1);
  EXPECT_FALSE(write_done);

  ASSERT_TRUE(sys_->WaitUntil(
      [&] { return sys_->health().state(stordom_id, vbd_) == HealthState::kStalled; }));
  EXPECT_EQ(StalledTransitions(), 1u);
  EXPECT_EQ(InstancesStalled(), 1.0);
  EXPECT_EQ(sys_->metric_registry().gauge("kite-stordom", vbd_, "health_state")->value(),
            2.0);
  EXPECT_GE(sys_->metric_registry().gauge("kite-stordom", vbd_, "ring_backlog")->value(),
            1.0);
  EXPECT_EQ(sys_->hv().store().Read(kDom0, DomainPath(stordom_id) + "/health/" + vbd_)
                .value_or("missing"),
            "stalled");

  // Un-hang the controller: the parked completion fires, the write acks, and
  // the *same* instance must collapse back to healthy — no restart.
  disk->ReleaseHungIo();
  ASSERT_TRUE(sys_->WaitUntil([&] { return write_done; }));
  EXPECT_TRUE(write_ok);
  ASSERT_TRUE(sys_->WaitUntil(
      [&] { return sys_->health().state(stordom_id, vbd_) == HealthState::kHealthy; }));
  ASSERT_TRUE(sys_->WaitUntil([&] { return InstancesStalled() == 0.0; }));
  EXPECT_EQ(disk->hung_io_count(), 0);
  EXPECT_EQ(guest_->blkfront()->recoveries(), 0u);
  EXPECT_EQ(StalledTransitions(), 1u);
  EXPECT_EQ(sys_->hv().store().Read(kDom0, DomainPath(stordom_id) + "/health/" + vbd_)
                .value_or("missing"),
            "healthy");
}

TEST_F(DiagnosticsTest, TightThresholdsNeverFalseFlagRealTraffic) {
  Build(/*net=*/true, /*storage=*/true);
  // Sustained pings and writes under pathologically tight thresholds: every
  // probe must see either progress or an empty backlog, so the state machine
  // never leaves healthy.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(PingGuest()) << "iteration " << i;
    bool done = false;
    guest_->blkfront()->Write(static_cast<int64_t>(i) * 64 * 1024, Buffer(32 * 1024, 0x7c),
                              [&](bool ok) { done = ok; });
    ASSERT_TRUE(sys_->WaitUntil([&] { return done; })) << "iteration " << i;
  }
  sys_->RunUntilIdle();
  EXPECT_GT(sys_->health().probes_run(), 0u);
  EXPECT_EQ(sys_->metric_registry().counter("obs", "health", "transitions")->value(), 0u);
  for (const HealthMonitor::InstanceInfo& info : sys_->health().Instances()) {
    EXPECT_EQ(info.state, HealthState::kHealthy) << info.domain_name << "/" << info.device;
  }
}

// The placement table reads each guest device's backend-id, the one record of
// where a device is linked. A vif that a raw frontend pairs by hand (the
// toolstack keys of AttachVif, no Netfront) is listed under its backend too.
TEST_F(DiagnosticsTest, PlacementListsAVifPairedByARawFrontend) {
  sys_ = std::make_unique<KiteSystem>(TightWatchdogParams());
  netdom_ = sys_->CreateNetworkDomain();
  guest_ = sys_->CreateGuest("raw-vm");
  RawNetFrontend raw(sys_.get(), netdom_, guest_);
  ASSERT_TRUE(raw.Connect());
  EXPECT_EQ(sys_->FormatPlacement(),
            StrFormat("  shard dom%-4d  1 device(s): vif%d.0=healthy\n",
                      netdom_->domain()->id(), guest_->domain()->id()));
}

// Same seed, same scenario — the flight recorder dump must be byte-identical
// even after every ring has wrapped (320 writes push well past the 256-slot
// per-domain capacity).
TEST(FlightRecorderDeterminismTest, WrappedRingsDumpByteIdentically) {
  struct Outcome {
    std::string dump;
    uint64_t stordom_recorded = 0;
    size_t capacity = 0;
  };
  auto run = []() -> Outcome {
    KiteSystem sys;
    StorageDomain* stordom = sys.CreateStorageDomain();
    GuestVm* guest = sys.CreateGuest("wrap-vm");
    sys.AttachVbd(guest, stordom);
    EXPECT_TRUE(sys.WaitConnected(guest));
    constexpr int kWrites = 320;
    int completed = 0;
    for (int i = 0; i < kWrites; ++i) {
      guest->blkfront()->Write(static_cast<int64_t>(i) * 4096, Buffer(4096, 0x33),
                               [&](bool ok) { completed += ok ? 1 : 0; });
    }
    EXPECT_TRUE(sys.WaitUntil([&] { return completed == kWrites; }, Seconds(60)));
    sys.RunUntilIdle();
    Outcome out;
    const DomId sid = stordom->domain()->id();
    out.dump = sys.recorder().FormatAll();
    out.stordom_recorded = sys.recorder().recorded(sid);
    out.capacity = sys.recorder().ring(sid)->capacity();
    return out;
  };
  const Outcome first = run();
  const Outcome second = run();
  // The ring really wrapped — otherwise this asserts nothing interesting.
  ASSERT_GT(first.stordom_recorded, first.capacity);
  EXPECT_EQ(first.stordom_recorded, second.stordom_recorded);
  EXPECT_EQ(first.dump, second.dump);
  EXPECT_NE(first.dump.find("ring-push"), std::string::npos);
}

// Any KITE_CHECK failure in a process that owns a KiteSystem must leave the
// full diagnostic bundle on stderr: health table, flight-recorder tails,
// pending events, invariant audit, metrics.
TEST(DiagnosticsDeathTest, KiteCheckFailureEmitsDiagnosticBundle) {
  ASSERT_DEATH(
      {
        KiteSystem sys(TightWatchdogParams());
        NetworkDomain* netdom = sys.CreateNetworkDomain();
        GuestVm* guest = sys.CreateGuest("doomed-vm");
        sys.AttachVif(guest, netdom, kGuestIp);
        sys.WaitConnected(guest);
        KITE_CHECK(false) << "intentional failure for the diagnostics test";
      },
      "intentional failure for the diagnostics test.*"
      "KITE DIAGNOSTICS.*---- health ----.*---- flight recorder ----.*"
      "---- pending events ----.*---- invariants ----.*---- metrics ----.*"
      "END KITE DIAGNOSTICS");
}

}  // namespace
}  // namespace kite
