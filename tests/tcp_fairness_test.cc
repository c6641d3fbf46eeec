// TCP fairness at a shared drop-tail bottleneck.
//
// 100 flows from 100 independent stacks converge on one bridge egress port
// whose queue drains at a fixed line rate with a finite drop-tail limit —
// the canonical congestion-control topology (a 100:1 incast). With honest
// loss behaviour the flows must self-clock into an approximately fair
// share: every flow's goodput within 2x of the mean, no flow starved, and
// the aggregate close to the drain rate. Also exercises the per-flow
// metric gauges end to end.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/bridge.h"
#include "src/net/netif.h"
#include "src/net/queue.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/sim/executor.h"

namespace kite {
namespace {

// Half of a veth pair: Output on one side is input on the other.
class PatchIf : public NetIf {
 public:
  PatchIf(std::string name, MacAddr mac) : NetIf(std::move(name), mac) {
    SetUp(true);
  }
  void SetPeer(NetIf* peer) { peer_ = peer; }
  void Output(EthernetFrame frame) override {
    if (peer_ != nullptr) {
      peer_->InjectInput(frame);
    }
  }

 private:
  NetIf* peer_ = nullptr;
};

constexpr int kFlows = 100;
constexpr uint16_t kServerPort = 7000;
constexpr size_t kSendBytes = 8 * 1024 * 1024;  // More than any flow can finish.
constexpr SimDuration kWindow = Seconds(2);

TEST(TcpFairnessTest, HundredFlowsShareDropTailBottleneckWithin2x) {
  Executor ex;
  MetricRegistry metrics;
  Bridge bridge("br0", nullptr);

  // Server behind the bottleneck port.
  const Ipv4Addr server_ip = Ipv4Addr::FromOctets(10, 0, 0, 1);
  const MacAddr server_mac = MacAddr::FromId(0x1000);
  PatchIf server_if("srv", server_mac);
  PatchIf server_port("srv-port", MacAddr::FromId(0x2000));
  server_if.SetPeer(&server_port);
  server_port.SetPeer(&server_if);
  bridge.AddIf(&server_port);
  StackParams server_params;
  server_params.metrics = &metrics;
  server_params.metrics_domain = "server";
  EtherStack server(&ex, nullptr, &server_if, server_params);
  server.ConfigureIp(server_ip);

  // The bottleneck: everything headed to the server serializes at 1 Gbps
  // through a 256-frame drop-tail queue.
  EgressQueueParams qp;
  qp.limit_frames = 256;
  qp.drain_gbps = 1.0;
  bridge.EnablePortQueue(&ex, &server_port, qp);

  // 100 client stacks, each on its own bridge port.
  std::vector<std::unique_ptr<PatchIf>> client_ifs;
  std::vector<std::unique_ptr<PatchIf>> client_ports;
  std::vector<std::unique_ptr<EtherStack>> clients;
  for (int i = 0; i < kFlows; ++i) {
    const MacAddr mac = MacAddr::FromId(0x100 + static_cast<uint32_t>(i));
    auto cif = std::make_unique<PatchIf>("c" + std::to_string(i), mac);
    auto cport = std::make_unique<PatchIf>("cp" + std::to_string(i),
                                           MacAddr::FromId(0x3000 + static_cast<uint32_t>(i)));
    cif->SetPeer(cport.get());
    cport->SetPeer(cif.get());
    bridge.AddIf(cport.get());
    StackParams sp;
    sp.metrics = &metrics;
    sp.metrics_domain = "client" + std::to_string(i);
    sp.per_flow_metrics = true;
    auto stack = std::make_unique<EtherStack>(&ex, nullptr, cif.get(), sp);
    const Ipv4Addr ip = Ipv4Addr::FromOctets(10, 0, 0, static_cast<uint8_t>(2 + i));
    stack->ConfigureIp(ip);
    stack->AddArpEntry(server_ip, server_mac);
    server.AddArpEntry(ip, mac);
    client_ifs.push_back(std::move(cif));
    client_ports.push_back(std::move(cport));
    clients.push_back(std::move(stack));
  }

  server.ListenTcp(kServerPort, [](TcpConn* conn) {
    conn->SetDataCallback([](std::span<const uint8_t>) {});
  });
  // Establish every connection while the network is quiet: a SYN dropped at
  // an already-full queue retries on the connect RTO (exponentially backed
  // off), so joining mid-congestion measures handshake lockout, not AIMD.
  std::vector<TcpConn*> conns(kFlows, nullptr);
  for (int i = 0; i < kFlows; ++i) {
    clients[i]->ConnectTcp(server_ip, kServerPort,
                           [&conns, i](TcpConn* conn) { conns[i] = conn; });
  }
  ex.RunFor(Millis(50));
  for (int i = 0; i < kFlows; ++i) {
    ASSERT_NE(conns[i], nullptr) << "flow " << i << " failed to connect";
  }

  // Stagger the senders slightly: 100 simultaneous 10-segment initial
  // windows into a 256-frame queue is a pathological synchronized incast
  // that knocks random flows into long RTO backoff before they have an RTT
  // sample. A paced start (one flow per 250 us) still oversubscribes the
  // port many times over, but lets fairness be a property of AIMD rather
  // than of who lost the opening coin toss.
  for (int i = 0; i < kFlows; ++i) {
    TcpConn* conn = conns[i];
    ex.PostAfter(Micros(250 * i),
                 [conn] { conn->Send(Buffer(kSendBytes, 0x5a)); });
  }

  // A fixed measurement window: goodput is what each flow delivered by the
  // cutoff, not time-to-completion (no flow can finish kSendBytes in it).
  ex.RunFor(kWindow);

  std::vector<uint64_t> delivered;
  for (const auto& [key, ledger] : server.tcp_ledgers()) {
    if (key.local_port == kServerPort) {
      delivered.push_back(ledger.delivered);
    }
  }
  ASSERT_EQ(delivered.size(), static_cast<size_t>(kFlows));

  uint64_t total = 0;
  uint64_t min_bytes = delivered[0];
  uint64_t max_bytes = delivered[0];
  for (uint64_t d : delivered) {
    total += d;
    min_bytes = std::min(min_bytes, d);
    max_bytes = std::max(max_bytes, d);
  }
  const double mean = static_cast<double>(total) / kFlows;
  EXPECT_GT(min_bytes, 0u) << "a flow starved at the bottleneck";
  EXPECT_LE(static_cast<double>(max_bytes), 2.0 * mean)
      << "max=" << max_bytes << " mean=" << mean;
  EXPECT_GE(static_cast<double>(min_bytes), 0.5 * mean)
      << "min=" << min_bytes << " mean=" << mean;
  // The bottleneck actually dropped (loss was exercised) yet the aggregate
  // still tracks the drain rate: 1 Gbps over the window is the wire-side
  // upper bound; goodput must be within [40%, 100%] of it.
  EXPECT_GT(bridge.queue_drops(), 0u);
  const double line_bytes = 1e9 / 8 * kWindow.seconds();
  EXPECT_GT(static_cast<double>(total), 0.4 * line_bytes);
  EXPECT_LT(static_cast<double>(total), line_bytes);

  // Per-flow gauges made it into the registry: one cwnd gauge per client
  // flow, and the loss showed up in somebody's retransmit counters.
  int cwnd_gauges = 0;
  double retransmits = 0;
  for (const auto& s : metrics.Snapshot(/*skip_zero=*/false)) {
    if (s.key.name == "cwnd_bytes" && s.key.domain != "server") {
      ++cwnd_gauges;
    }
    if (s.key.name == "retransmits" || s.key.name == "fast_retransmits") {
      retransmits += s.value;
    }
  }
  EXPECT_EQ(cwnd_gauges, kFlows);
  EXPECT_GT(retransmits, 0);
}

}  // namespace
}  // namespace kite
