// NAT tests: the driver domain's alternative organization to bridging
// (paper §3.1). Two inside hosts share one public IP; flows are rewritten
// and demultiplexed per protocol + port/ident.
#include <gtest/gtest.h>

#include "src/net/nat.h"
#include "src/net/nic.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"

namespace kite {
namespace {

const Ipv4Addr kPublicIp = Ipv4Addr::FromOctets(10, 0, 0, 1);
const Ipv4Addr kClientIp = Ipv4Addr::FromOctets(10, 0, 0, 2);
const Ipv4Addr kInsideA = Ipv4Addr::FromOctets(192, 168, 1, 10);
const Ipv4Addr kInsideB = Ipv4Addr::FromOctets(192, 168, 1, 11);

// Software interface pair: frames output on one side arrive as input on the
// other (like a VIF↔netfront pair without the rings).
class PipeIf : public NetIf {
 public:
  PipeIf(std::string name, MacAddr mac, Executor* ex)
      : NetIf(std::move(name), mac), ex_(ex) {
    SetUp(true);
  }
  void Connect(PipeIf* peer) { peer_ = peer; }
  void Output(EthernetFrame frame) override {
    CountTx(frame);
    ex_->Post([peer = peer_, frame] { peer->InjectInput(frame); });
  }

 private:
  Executor* ex_;
  PipeIf* peer_ = nullptr;
};

class NatTest : public ::testing::Test {
 protected:
  NatTest() {
    // Outside: NAT's NIC back-to-back with the client machine.
    out_nic_ = std::make_unique<Nic>(&ex_, "o", "natout", MacAddr::FromId(1));
    client_nic_ = std::make_unique<Nic>(&ex_, "c", "client", MacAddr::FromId(2));
    Nic::ConnectBackToBack(out_nic_.get(), client_nic_.get());
    client_ = std::make_unique<EtherStack>(&ex_, nullptr, client_nic_->netif());
    client_->ConfigureIp(kClientIp);

    nat_ = std::make_unique<Nat>(nullptr, out_nic_->netif(), kPublicIp);

    // Inside host A and B, each behind a pipe pair whose NAT-side end is an
    // inside port of the NAT.
    MakeInside(&host_a_, &host_a_if_, &nat_a_, kInsideA, 10);
    MakeInside(&host_b_, &host_b_if_, &nat_b_, kInsideB, 20);
  }

  void MakeInside(std::unique_ptr<EtherStack>* stack, std::unique_ptr<PipeIf>* host_if,
                  std::unique_ptr<PipeIf>* nat_if, Ipv4Addr ip, uint32_t mac_base) {
    *host_if = std::make_unique<PipeIf>("h", MacAddr::FromId(mac_base), &ex_);
    *nat_if = std::make_unique<PipeIf>("n", MacAddr::FromId(mac_base + 1), &ex_);
    (*host_if)->Connect(nat_if->get());
    (*nat_if)->Connect(host_if->get());
    nat_->AddInside(nat_if->get());
    *stack = std::make_unique<EtherStack>(&ex_, nullptr, host_if->get());
    (*stack)->ConfigureIp(ip, /*netmask=*/0);  // Everything off-subnet → ARP → NAT answers.
  }

  Executor ex_;
  std::unique_ptr<Nic> out_nic_, client_nic_;
  std::unique_ptr<EtherStack> client_;
  std::unique_ptr<Nat> nat_;
  std::unique_ptr<PipeIf> host_a_if_, nat_a_, host_b_if_, nat_b_;
  std::unique_ptr<EtherStack> host_a_, host_b_;
};

TEST_F(NatTest, OutboundUdpIsRewrittenToPublicIp) {
  auto server = client_->OpenUdp();
  server->Bind(7000);
  Ipv4Addr seen_src;
  server->SetRecvCallback(
      [&](Ipv4Addr src, uint16_t, const Buffer&) { seen_src = src; });
  auto sock = host_a_->OpenUdp();
  sock->SendTo(kClientIp, 7000, Buffer{1, 2, 3});
  ex_.RunUntilIdle();
  EXPECT_EQ(seen_src, kPublicIp);  // Private address hidden.
  EXPECT_EQ(nat_->flow_count(), 1u);
  EXPECT_GE(nat_->translated_out(), 1u);
}

TEST_F(NatTest, UdpReplyIsRoutedBackInside) {
  auto server = client_->OpenUdp();
  server->Bind(7000);
  server->SetRecvCallback([&](Ipv4Addr src, uint16_t src_port, const Buffer&) {
    server->SendTo(src, src_port, Buffer{9, 9});
  });
  auto sock = host_a_->OpenUdp();
  Buffer got;
  sock->SetRecvCallback(
      [&](Ipv4Addr, uint16_t, const Buffer& payload) { got = payload; });
  sock->SendTo(kClientIp, 7000, Buffer{1});
  ex_.RunUntilIdle();
  EXPECT_EQ(got, (Buffer{9, 9}));
  EXPECT_GE(nat_->translated_in(), 1u);
}

TEST_F(NatTest, TwoInsideHostsSharePublicIpWithoutCrosstalk) {
  auto server = client_->OpenUdp();
  server->Bind(7000);
  server->SetRecvCallback([&](Ipv4Addr src, uint16_t src_port, const Buffer& payload) {
    server->SendTo(src, src_port, payload);  // Echo.
  });
  auto sock_a = host_a_->OpenUdp();
  auto sock_b = host_b_->OpenUdp();
  Buffer got_a, got_b;
  sock_a->SetRecvCallback([&](Ipv4Addr, uint16_t, const Buffer& p) { got_a = p; });
  sock_b->SetRecvCallback([&](Ipv4Addr, uint16_t, const Buffer& p) { got_b = p; });
  sock_a->SendTo(kClientIp, 7000, Buffer{0xaa});
  sock_b->SendTo(kClientIp, 7000, Buffer{0xbb});
  ex_.RunUntilIdle();
  EXPECT_EQ(got_a, (Buffer{0xaa}));
  EXPECT_EQ(got_b, (Buffer{0xbb}));
  EXPECT_EQ(nat_->flow_count(), 2u);
}

TEST_F(NatTest, OutboundPingTranslatesIcmpIdent) {
  bool ok = false;
  SimDuration rtt;
  host_a_->Ping(kClientIp, 32, [&](bool r, SimDuration d) {
    ok = r;
    rtt = d;
  });
  ex_.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_GT(rtt.ns(), 0);
}

TEST_F(NatTest, TcpThroughNat) {
  client_->ListenTcp(8080, [](TcpConn* conn) {
    conn->SetDataCallback([conn](std::span<const uint8_t> data) {
      conn->Send(Buffer(data.begin(), data.end()));
    });
  });
  Buffer reply;
  TcpConn* c = host_a_->ConnectTcp(kClientIp, 8080, [](TcpConn* conn) {
    conn->Send(Buffer(20000, 0x42));
  });
  c->SetDataCallback([&](std::span<const uint8_t> d) {
    reply.insert(reply.end(), d.begin(), d.end());
  });
  ex_.RunUntilIdle();
  EXPECT_EQ(reply.size(), 20000u);
}

TEST_F(NatTest, UnsolicitedInboundIsDropped) {
  auto sock = client_->OpenUdp();
  // No flow exists for public port 12345: must be dropped, not forwarded.
  int received = 0;
  auto inside = host_a_->OpenUdp();
  inside->Bind(12345);
  inside->SetRecvCallback([&](Ipv4Addr, uint16_t, const Buffer&) { ++received; });
  sock->SendTo(kPublicIp, 12345, Buffer{1});
  ex_.RunUntilIdle();
  EXPECT_EQ(received, 0);
  EXPECT_GE(nat_->dropped_unmatched(), 1u);
}

TEST_F(NatTest, FlowsAreReusedNotDuplicated) {
  auto server = client_->OpenUdp();
  server->Bind(7000);
  auto sock = host_a_->OpenUdp();
  for (int i = 0; i < 10; ++i) {
    sock->SendTo(kClientIp, 7000, Buffer{static_cast<uint8_t>(i)});
  }
  ex_.RunUntilIdle();
  EXPECT_EQ(nat_->flow_count(), 1u);  // Same 5-tuple → one mapping.
  EXPECT_EQ(nat_->translated_out(), 10u);
}

}  // namespace
}  // namespace kite
