// TCP robustness tests: retransmission under loss, teardown sequences,
// window backpressure, and stress with many concurrent transfers.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/net/nic.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"

namespace kite {
namespace {

const Ipv4Addr kIpA = Ipv4Addr::FromOctets(10, 0, 0, 1);
const Ipv4Addr kIpB = Ipv4Addr::FromOctets(10, 0, 0, 2);

// A NetIf decorator that drops a configurable fraction of frames in each
// direction — for exercising the retransmission machinery.
class LossyIf : public NetIf {
 public:
  LossyIf(NetIf* inner, double loss, uint64_t seed)
      : NetIf("lossy-" + inner->ifname(), inner->mac()),
        inner_(inner),
        loss_(loss),
        rng_(seed) {
    SetUp(true);
    inner_->SetInputHandler([this](EthernetFrame&& frame) {
      if (rng_.NextBool(loss_)) {
        ++dropped_;
        return;
      }
      DeliverInput(std::move(frame));
    });
  }

  void Output(EthernetFrame frame) override {
    if (rng_.NextBool(loss_)) {
      ++dropped_;
      return;
    }
    inner_->Output(std::move(frame));
  }

  uint64_t dropped() const { return dropped_; }

 private:
  NetIf* inner_;
  double loss_;
  Rng rng_;
  uint64_t dropped_ = 0;
};

class TcpLossTest : public ::testing::TestWithParam<int> {
 protected:
  TcpLossTest() {
    nic_a_ = std::make_unique<Nic>(&ex_, "a", "nicA", MacAddr::FromId(1));
    nic_b_ = std::make_unique<Nic>(&ex_, "b", "nicB", MacAddr::FromId(2));
    Nic::ConnectBackToBack(nic_a_.get(), nic_b_.get());
    lossy_ = std::make_unique<LossyIf>(nic_a_->netif(), /*loss=*/0.02,
                                       /*seed=*/GetParam());
    client_ = std::make_unique<EtherStack>(&ex_, nullptr, lossy_.get());
    server_ = std::make_unique<EtherStack>(&ex_, nullptr, nic_b_->netif());
    client_->ConfigureIp(kIpA);
    server_->ConfigureIp(kIpB);
    // Static ARP: ARP itself is not retried, so resolve out of band.
    client_->AddArpEntry(kIpB, nic_b_->mac());
    server_->AddArpEntry(kIpA, nic_a_->mac());
  }

  Executor ex_;
  std::unique_ptr<Nic> nic_a_, nic_b_;
  std::unique_ptr<LossyIf> lossy_;
  std::unique_ptr<EtherStack> client_, server_;
};

TEST_P(TcpLossTest, BulkTransferSurvives2PercentLoss) {
  Rng rng(99);
  Buffer payload(200 * 1024);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  const uint64_t digest = Fnv1a(payload);

  Buffer received;
  server_->ListenTcp(8080, [&](TcpConn* conn) {
    conn->SetDataCallback([&](std::span<const uint8_t> data) {
      received.insert(received.end(), data.begin(), data.end());
    });
  });
  TcpConn* c =
      client_->ConnectTcp(kIpB, 8080, [&](TcpConn* conn) { conn->Send(payload); });
  ex_.RunUntilIdle();
  ASSERT_EQ(received.size(), payload.size()) << "dropped=" << lossy_->dropped();
  EXPECT_EQ(Fnv1a(received), digest);
  // Loss actually exercised recovery: fast retransmit normally repairs it
  // without a timeout, but either path counts.
  EXPECT_GT(c->retransmits() + c->fast_retransmits(), 0u);
  EXPECT_GT(lossy_->dropped(), 0u);
}

TEST_P(TcpLossTest, EchoUnderLossCompletes) {
  server_->ListenTcp(9090, [](TcpConn* conn) {
    conn->SetDataCallback([conn](std::span<const uint8_t> data) {
      conn->Send(Buffer(data.begin(), data.end()));
    });
  });
  Buffer reply;
  TcpConn* c = client_->ConnectTcp(
      kIpB, 9090, [](TcpConn* conn) { conn->Send(Buffer(50000, 0x5a)); });
  c->SetDataCallback([&](std::span<const uint8_t> data) {
    reply.insert(reply.end(), data.begin(), data.end());
  });
  ex_.RunUntilIdle();
  EXPECT_EQ(reply.size(), 50000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpLossTest, ::testing::Range(1, 6));

class TcpPairTest : public ::testing::Test {
 protected:
  TcpPairTest() {
    nic_a_ = std::make_unique<Nic>(&ex_, "a", "nicA", MacAddr::FromId(1));
    nic_b_ = std::make_unique<Nic>(&ex_, "b", "nicB", MacAddr::FromId(2));
    Nic::ConnectBackToBack(nic_a_.get(), nic_b_.get());
    client_ = std::make_unique<EtherStack>(&ex_, nullptr, nic_a_->netif());
    server_ = std::make_unique<EtherStack>(&ex_, nullptr, nic_b_->netif());
    client_->ConfigureIp(kIpA);
    server_->ConfigureIp(kIpB);
  }

  Executor ex_;
  std::unique_ptr<Nic> nic_a_, nic_b_;
  std::unique_ptr<EtherStack> client_, server_;
};

TEST_F(TcpPairTest, SimultaneousCloseBothSidesNotified) {
  bool server_closed = false;
  bool client_closed = false;
  TcpConn* server_conn = nullptr;
  server_->ListenTcp(8080, [&](TcpConn* conn) {
    server_conn = conn;
    conn->SetCloseCallback([&] { server_closed = true; });
  });
  TcpConn* c = client_->ConnectTcp(kIpB, 8080, [](TcpConn*) {});
  c->SetCloseCallback([&] { client_closed = true; });
  ex_.RunUntilIdle();
  ASSERT_NE(server_conn, nullptr);
  c->Close();
  server_conn->Close();
  ex_.RunUntilIdle();
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
}

TEST_F(TcpPairTest, DataBeforeCloseIsFullyDelivered) {
  Buffer received;
  bool closed = false;
  server_->ListenTcp(8080, [&](TcpConn* conn) {
    conn->SetDataCallback([&](std::span<const uint8_t> data) {
      received.insert(received.end(), data.begin(), data.end());
    });
    conn->SetCloseCallback([&] { closed = true; });
  });
  client_->ConnectTcp(kIpB, 8080, [](TcpConn* conn) {
    conn->Send(Buffer(100000, 0x2f));
    conn->Close();  // FIN queued behind the data.
  });
  ex_.RunUntilIdle();
  EXPECT_EQ(received.size(), 100000u);
  EXPECT_TRUE(closed);
}

TEST_F(TcpPairTest, AbortSendsRst) {
  bool server_closed = false;
  server_->ListenTcp(8080, [&](TcpConn* conn) {
    conn->SetCloseCallback([&] { server_closed = true; });
  });
  TcpConn* c = client_->ConnectTcp(kIpB, 8080, [](TcpConn*) {});
  ex_.RunUntilIdle();
  c->Abort();
  ex_.RunUntilIdle();
  EXPECT_TRUE(server_closed);
}

TEST_F(TcpPairTest, SendQueueDrainsUnderWindowBackpressure) {
  // Server never reads slowly — our model always delivers — but the sender's
  // window still bounds in-flight data; a 3 MB send must complete.
  uint64_t received = 0;
  server_->ListenTcp(8080, [&](TcpConn* conn) {
    conn->SetDataCallback(
        [&](std::span<const uint8_t> data) { received += data.size(); });
  });
  TcpConn* c = client_->ConnectTcp(
      kIpB, 8080, [](TcpConn* conn) { conn->Send(Buffer(3 * 1024 * 1024, 1)); });
  ex_.RunUntilIdle();
  EXPECT_EQ(received, 3u * 1024 * 1024);
  EXPECT_EQ(c->send_queue_bytes(), 0u);
}

TEST_F(TcpPairTest, InterleavedConnectionsKeepDataSeparate) {
  // Two connections echo different fill bytes; no cross-talk.
  server_->ListenTcp(8080, [](TcpConn* conn) {
    conn->SetDataCallback([conn](std::span<const uint8_t> data) {
      conn->Send(Buffer(data.begin(), data.end()));
    });
  });
  Buffer reply1;
  Buffer reply2;
  TcpConn* c1 = client_->ConnectTcp(
      kIpB, 8080, [](TcpConn* conn) { conn->Send(Buffer(30000, 0x11)); });
  c1->SetDataCallback([&](std::span<const uint8_t> d) {
    reply1.insert(reply1.end(), d.begin(), d.end());
  });
  TcpConn* c2 = client_->ConnectTcp(
      kIpB, 8080, [](TcpConn* conn) { conn->Send(Buffer(30000, 0x22)); });
  c2->SetDataCallback([&](std::span<const uint8_t> d) {
    reply2.insert(reply2.end(), d.begin(), d.end());
  });
  ex_.RunUntilIdle();
  ASSERT_EQ(reply1.size(), 30000u);
  ASSERT_EQ(reply2.size(), 30000u);
  EXPECT_TRUE(std::all_of(reply1.begin(), reply1.end(),
                          [](uint8_t b) { return b == 0x11; }));
  EXPECT_TRUE(std::all_of(reply2.begin(), reply2.end(),
                          [](uint8_t b) { return b == 0x22; }));
}

TEST_F(TcpPairTest, ServerStackDestructionWithLiveConnsIsSafe) {
  client_->ConnectTcp(kIpB, 8080, [](TcpConn*) {});
  ex_.RunFor(Micros(10));
  server_.reset();  // Mid-handshake teardown.
  ex_.RunFor(Millis(500));
  SUCCEED();
}

}  // namespace
}  // namespace kite
