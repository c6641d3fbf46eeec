// End-to-end integration tests: client machine ↔ guest DomU through a
// network driver domain (Kite and Linux personalities) — exercising the
// full path: NIC → bridge → netback rings/grants/events → netfront → guest
// stack, and back.
#include <gtest/gtest.h>

#include "src/core/kite.h"

namespace kite {
namespace {

const Ipv4Addr kGuestIp = Ipv4Addr::FromOctets(10, 0, 0, 10);

class NetIntegrationTest : public ::testing::TestWithParam<OsKind> {
 protected:
  void Build() {
    sys_ = std::make_unique<KiteSystem>();
    DriverDomainConfig config;
    config.os = GetParam();
    netdom_ = sys_->CreateNetworkDomain(config);
    guest_ = sys_->CreateGuest("server-guest");
    sys_->AttachVif(guest_, netdom_, kGuestIp);
    ASSERT_TRUE(sys_->WaitConnected(guest_));
  }

  std::unique_ptr<KiteSystem> sys_;
  NetworkDomain* netdom_ = nullptr;
  GuestVm* guest_ = nullptr;
};

TEST_P(NetIntegrationTest, FrontendConnectsThroughXenbus) {
  Build();
  EXPECT_TRUE(guest_->netfront()->connected());
  EXPECT_EQ(netdom_->driver()->instance_count(), 1);
  // The network app added the VIF to the bridge: physical IF + 1 VIF.
  sys_->RunFor(Millis(1));
  EXPECT_EQ(netdom_->bridge()->port_count(), 2);
  EXPECT_EQ(netdom_->app()->configured(), 1);
}

TEST_P(NetIntegrationTest, ClientCanPingGuest) {
  Build();
  bool ok = false;
  SimDuration rtt;
  sys_->client()->stack()->Ping(kGuestIp, 56, [&](bool r, SimDuration d) {
    ok = r;
    rtt = d;
  });
  ASSERT_TRUE(sys_->WaitUntil([&] { return ok; }, Seconds(2)));
  EXPECT_GT(rtt.ns(), 0);
  EXPECT_LT(rtt.ms(), 2.0);
}

TEST_P(NetIntegrationTest, GuestCanPingClient) {
  Build();
  bool ok = false;
  guest_->stack()->Ping(sys_->client_ip(), 56, [&](bool r, SimDuration) { ok = r; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return ok; }, Seconds(2)));
}

TEST_P(NetIntegrationTest, UdpPayloadIntegrityThroughDomain) {
  Build();
  auto server = guest_->stack()->OpenUdp();
  server->Bind(9000);
  Buffer got;
  server->SetRecvCallback(
      [&](Ipv4Addr, uint16_t, const Buffer& payload) { got = payload; });

  Rng rng(5);
  Buffer sent(4096);
  for (auto& b : sent) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  auto client_sock = sys_->client()->stack()->OpenUdp();
  client_sock->SendTo(kGuestIp, 9000, sent);
  ASSERT_TRUE(sys_->WaitUntil([&] { return !got.empty(); }, Seconds(2)));
  EXPECT_EQ(Fnv1a(got), Fnv1a(sent));
}

TEST_P(NetIntegrationTest, TcpEchoThroughDomain) {
  Build();
  guest_->stack()->ListenTcp(7777, [](TcpConn* conn) {
    conn->SetDataCallback([conn](std::span<const uint8_t> data) {
      conn->Send(Buffer(data.begin(), data.end()));
    });
  });
  Buffer reply;
  Buffer msg(20000, 0x77);
  TcpConn* c = sys_->client()->stack()->ConnectTcp(
      kGuestIp, 7777, [&](TcpConn* conn) { conn->Send(msg); });
  c->SetDataCallback([&](std::span<const uint8_t> data) {
    reply.insert(reply.end(), data.begin(), data.end());
  });
  ASSERT_TRUE(sys_->WaitUntil([&] { return reply.size() >= msg.size(); }, Seconds(5)));
  EXPECT_EQ(Fnv1a(reply), Fnv1a(msg));
}

TEST_P(NetIntegrationTest, MultipleGuestsShareTheNic) {
  Build();
  GuestVm* guest2 = sys_->CreateGuest("guest2");
  sys_->AttachVif(guest2, netdom_, Ipv4Addr::FromOctets(10, 0, 0, 11));
  ASSERT_TRUE(sys_->WaitConnected(guest2));
  EXPECT_EQ(netdom_->driver()->instance_count(), 2);
  sys_->RunFor(Millis(1));
  EXPECT_EQ(netdom_->bridge()->port_count(), 3);

  // Both guests reachable from the client.
  int pings_ok = 0;
  sys_->client()->stack()->Ping(kGuestIp, 56,
                                [&](bool r, SimDuration) { pings_ok += r; });
  sys_->client()->stack()->Ping(Ipv4Addr::FromOctets(10, 0, 0, 11), 56,
                                [&](bool r, SimDuration) { pings_ok += r; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return pings_ok == 2; }, Seconds(2)));

  // Guest-to-guest traffic is bridged inside the driver domain.
  bool g2g = false;
  guest_->stack()->Ping(Ipv4Addr::FromOctets(10, 0, 0, 11), 56,
                        [&](bool r, SimDuration) { g2g = r; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return g2g; }, Seconds(2)));
}

TEST_P(NetIntegrationTest, SustainedBidirectionalTraffic) {
  Build();
  auto server = guest_->stack()->OpenUdp();
  server->Bind(9000);
  uint64_t server_rx = 0;
  server->SetRecvCallback([&](Ipv4Addr src, uint16_t port, const Buffer& payload) {
    ++server_rx;
  });
  auto client_sock = sys_->client()->stack()->OpenUdp();
  // 500 datagrams paced at 20 us (well under capacity: no loss expected).
  for (int i = 0; i < 500; ++i) {
    sys_->executor().PostAfter(Micros(20 * i), [&client_sock] {
      client_sock->SendTo(kGuestIp, 9000, Buffer(1000, 0x11));
    });
  }
  sys_->RunFor(Millis(100));
  EXPECT_EQ(server_rx, 500u);
  EXPECT_EQ(guest_->netfront()->rx_errors(), 0u);
}

TEST_P(NetIntegrationTest, EventAndGrantAccountingNonzero) {
  Build();
  bool ok = false;
  sys_->client()->stack()->Ping(kGuestIp, 56, [&](bool r, SimDuration) { ok = r; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return ok; }, Seconds(2)));
  // The data moved via hypervisor copies, not mappings (rx-copy mode).
  EXPECT_GT(sys_->hv().grant_copies(), 0u);
  EXPECT_GT(sys_->hv().events_sent(), 0u);
  EXPECT_GT(sys_->hv().events_delivered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Personalities, NetIntegrationTest,
                         ::testing::Values(OsKind::kKiteRumprun, OsKind::kUbuntuLinux),
                         [](const ::testing::TestParamInfo<OsKind>& info) {
                           return std::string(OsKindName(info.param));
                         });

TEST(NetLatencyComparisonTest, KiteHasLowerPingLatencyThanLinux) {
  // The paper's Fig 7 headline: Kite's netback answers pings faster.
  auto measure = [](OsKind os) {
    KiteSystem sys;
    DriverDomainConfig config;
    config.os = os;
    NetworkDomain* nd = sys.CreateNetworkDomain(config);
    GuestVm* guest = sys.CreateGuest("g");
    sys.AttachVif(guest, nd, kGuestIp);
    EXPECT_TRUE(sys.WaitConnected(guest));
    // Warm up ARP.
    bool warm = false;
    sys.client()->stack()->Ping(kGuestIp, 56, [&](bool, SimDuration) { warm = true; });
    sys.WaitUntil([&] { return warm; }, Seconds(2));
    // Paced pings (1 s apart → cold path, as in the paper's ping test).
    Stats rtt_ms;
    for (int i = 0; i < 5; ++i) {
      sys.RunFor(Seconds(1));
      bool done = false;
      sys.client()->stack()->Ping(kGuestIp, 56, [&](bool r, SimDuration d) {
        done = true;
        if (r) {
          rtt_ms.Add(d.ms());
        }
      });
      sys.WaitUntil([&] { return done; }, Seconds(2));
    }
    return rtt_ms.Mean();
  };
  const double kite = measure(OsKind::kKiteRumprun);
  const double linux = measure(OsKind::kUbuntuLinux);
  EXPECT_LT(kite, linux);
  // Shape check vs the paper's 0.31 ms / 0.51 ms.
  EXPECT_GT(kite, 0.15);
  EXPECT_LT(kite, 0.45);
  EXPECT_GT(linux, 0.35);
  EXPECT_LT(linux, 0.70);
}

TEST(DriverDomainRestartTest, RestartedDomainServesNewGuests) {
  KiteSystem sys;
  NetworkDomain* nd = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("g1");
  sys.AttachVif(guest, nd, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));

  NetworkDomain* nd2 = sys.RestartNetworkDomain(nd);
  ASSERT_NE(nd2, nullptr);
  GuestVm* guest2 = sys.CreateGuest("g2");
  sys.AttachVif(guest2, nd2, Ipv4Addr::FromOctets(10, 0, 0, 20));
  ASSERT_TRUE(sys.WaitConnected(guest2));
  bool ok = false;
  sys.client()->stack()->Ping(Ipv4Addr::FromOctets(10, 0, 0, 20), 56,
                              [&](bool r, SimDuration) { ok = r; });
  EXPECT_TRUE(sys.WaitUntil([&] { return ok; }, Seconds(2)));
}

TEST(BootTimeTest, KiteBoots10xFasterThanLinux) {
  auto boot_time = [](OsKind os) {
    KiteSystem::Params params;
    params.instant_boot = false;
    KiteSystem sys(params);
    DriverDomainConfig config;
    config.os = os;
    NetworkDomain* nd = sys.CreateNetworkDomain(config);
    EXPECT_TRUE(sys.WaitUntil([&] { return nd->booted(); }, Seconds(200)));
    return nd->boot_completed_at().seconds();
  };
  const double kite = boot_time(OsKind::kKiteRumprun);
  const double linux = boot_time(OsKind::kUbuntuLinux);
  EXPECT_NEAR(kite, 7.0, 0.5);    // Paper Fig 4c.
  EXPECT_NEAR(linux, 75.0, 2.0);  // Paper Fig 4c.
  EXPECT_GE(linux / kite, 10.0);
}

}  // namespace
}  // namespace kite
