// TCP goodput and fairness under real loss at a shared drop-tail bottleneck.
//
// Not a paper figure: this sweep characterizes the transport itself. 100
// flows from independent stacks converge on one bridge egress port that
// serializes at 1 Gbps behind a finite drop-tail queue. Each flow's
// application writes at a paced offered rate; the sweep walks the aggregate
// offered load across the line rate (0.25x .. 2x) for two queue depths, and
// repeats every point under two schedule-shuffle seeds.
//
// What the series show:
//   - goodput_gbps tracks offered load while undersubscribed, then saturates
//     at (a little under) line rate once offered load crosses capacity —
//     AIMD keeps the aggregate pinned there instead of collapsing.
//   - queue_drops jumps by orders of magnitude when the knee is crossed:
//     the loss the congestion response is reacting to. (Shallow queues also
//     show a small constant floor from the 100-SYN connect burst.)
//   - fairness (min/mean and max/mean across the 100 per-flow ledgers)
//     stays bounded through overload.
//   - The two shuffle seeds land on nearly identical aggregates: the
//     behaviour is a property of the protocol, not of event-tie ordering.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/net/bridge.h"
#include "src/net/netif.h"
#include "src/net/queue.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/obs/sampler.h"
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
constexpr double kLineGbps = 1.0;
constexpr SimDuration kWindow = Millis(400);
constexpr SimDuration kPaceTick = Millis(1);

struct PointResult {
  double goodput_gbps = 0;
  double min_over_mean = 0;
  double max_over_mean = 0;
  uint64_t queue_drops = 0;
  uint64_t retransmits = 0;
};

// With `report` non-null this point additionally records telemetry: per-flow
// TCP gauges (cwnd/ssthresh/srtt) for the first few flows plus the
// bottleneck queue depth, sampled every 1 ms into `report`'s timelines —
// the cwnd-over-time sawtooth the congestion-control story rests on.
PointResult RunPoint(double offered_x_line, size_t queue_frames, uint64_t seed,
                     BenchReport* report = nullptr) {
  constexpr int kTracedFlows = 3;
  Executor ex;
  ex.EnableShuffle(seed);
  MetricRegistry metrics;
  Bridge bridge("br0", nullptr);

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

  EgressQueueParams qp;
  qp.limit_frames = queue_frames;
  qp.drain_gbps = kLineGbps;
  if (report != nullptr) {
    qp.metrics = &metrics;
    qp.metrics_domain = "bottleneck";
  }
  bridge.EnablePortQueue(&ex, &server_port, qp);

  std::vector<std::unique_ptr<PatchIf>> client_ifs;
  std::vector<std::unique_ptr<PatchIf>> client_ports;
  std::vector<std::unique_ptr<EtherStack>> clients;
  for (int i = 0; i < kFlows; ++i) {
    const MacAddr mac = MacAddr::FromId(0x100 + static_cast<uint32_t>(i));
    auto cif = std::make_unique<PatchIf>("c" + std::to_string(i), mac);
    auto cport = std::make_unique<PatchIf>(
        "cp" + std::to_string(i), MacAddr::FromId(0x3000 + static_cast<uint32_t>(i)));
    cif->SetPeer(cport.get());
    cport->SetPeer(cif.get());
    bridge.AddIf(cport.get());
    StackParams sp;
    sp.metrics = &metrics;
    sp.metrics_domain = "client" + std::to_string(i);
    // Trace the leading flows' congestion state when telemetry is on.
    sp.per_flow_metrics = report != nullptr && i < kTracedFlows;
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

  // Establish every connection while the network is quiet (a SYN dropped at
  // a full queue retries on an exponentially backed-off timer, which would
  // measure handshake lockout rather than steady-state behaviour).
  std::vector<TcpConn*> conns(kFlows, nullptr);
  for (int i = 0; i < kFlows; ++i) {
    clients[i]->ConnectTcp(server_ip, kServerPort,
                           [&conns, i](TcpConn* conn) { conns[i] = conn; });
  }
  ex.RunFor(Millis(50));
  for (int i = 0; i < kFlows; ++i) {
    if (conns[i] == nullptr) {
      std::fprintf(stderr, "FATAL: flow %d failed to connect\n", i);
      std::abort();
    }
  }

  // Telemetry point: sample the traced flows' congestion gauges and the
  // bottleneck queue depth every 1 ms for the whole window.
  SamplerParams samp;
  samp.period = Millis(1);
  samp.ring_points = 1024;
  for (int i = 0; i < kTracedFlows; ++i) {
    samp.prefixes.push_back("client" + std::to_string(i) + "/");
  }
  samp.prefixes.push_back("bottleneck/");
  std::unique_ptr<MetricSampler> sampler;
  if (report != nullptr) {
    sampler = std::make_unique<MetricSampler>(&ex, &metrics, samp);
    sampler->Start();
  }

  // Paced application writes: per flow, offered_x_line * line / kFlows.
  const double per_flow_bps = offered_x_line * kLineGbps * 1e9 / kFlows;
  const size_t chunk =
      std::max<size_t>(1, static_cast<size_t>(per_flow_bps / 8 * kPaceTick.seconds()));
  struct Pacer {
    TcpConn* conn;
    size_t chunk;
    Executor* ex;
    void Tick() {
      conn->Send(Buffer(chunk, 0x5a));
      ex->PostAfter(kPaceTick, [this] { Tick(); });
    }
  };
  std::vector<std::unique_ptr<Pacer>> pacers;
  for (int i = 0; i < kFlows; ++i) {
    auto p = std::make_unique<Pacer>(Pacer{conns[i], chunk, &ex});
    Pacer* raw = p.get();
    // Stagger the first tick across one pace interval so the offered load
    // arrives smeared, not as a 100-flow phase-locked burst.
    ex.PostAfter(kPaceTick * i / kFlows, [raw] { raw->Tick(); });
    pacers.push_back(std::move(p));
  }

  const SimTime start = ex.Now();
  ex.RunUntil(start + kWindow);
  if (sampler != nullptr) {
    sampler->Stop();
    const std::string label =
        StrFormat("q%zu/load%.2f/seed%llu", queue_frames, offered_x_line,
                  static_cast<unsigned long long>(seed));
    report->Timelines(label, *sampler);
  }

  PointResult r;
  uint64_t total = 0;
  uint64_t min_bytes = 0, max_bytes = 0;
  size_t n = 0;
  for (const auto& [key, ledger] : server.tcp_ledgers()) {
    if (key.local_port != kServerPort) {
      continue;
    }
    total += ledger.delivered;
    min_bytes = n == 0 ? ledger.delivered : std::min(min_bytes, ledger.delivered);
    max_bytes = std::max(max_bytes, ledger.delivered);
    ++n;
  }
  const double mean = n == 0 ? 0 : static_cast<double>(total) / static_cast<double>(n);
  r.goodput_gbps = static_cast<double>(total) * 8.0 / kWindow.seconds() / 1e9;
  r.min_over_mean = mean > 0 ? static_cast<double>(min_bytes) / mean : 0;
  r.max_over_mean = mean > 0 ? static_cast<double>(max_bytes) / mean : 0;
  r.queue_drops = bridge.queue_drops();
  for (const auto& s : metrics.Snapshot(/*skip_zero=*/true)) {
    // Counters only: with per-flow telemetry on, the same retransmits also
    // appear as per-connection gauges and must not be double-counted.
    if (s.kind == MetricRegistry::Kind::kCounter &&
        (s.key.name == "retransmits" || s.key.name == "fast_retransmits")) {
      r.retransmits += static_cast<uint64_t>(s.value);
    }
  }
  return r;
}

}  // namespace
}  // namespace kite

int main() {
  using namespace kite;
  PrintHeader("bench_tcp_loss",
              "TCP goodput/fairness vs offered load at a drop-tail bottleneck");
  PrintNote("100 flows, 1 Gbps bottleneck, paced offered load, two shuffle seeds");

  BenchReport report("tcp_loss",
                     "TCP goodput and fairness under drop-tail loss");
  report.Param("flows", static_cast<double>(kFlows));
  report.Param("line_gbps", kLineGbps);
  report.Param("window_ms", kWindow.seconds() * 1e3);

  const double kLoads[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  const size_t kDepths[] = {64, 256};
  const uint64_t kSeeds[] = {1, 2};

  std::printf("%-6s %-6s %-5s %10s %10s %10s %10s %10s\n", "load", "queue",
              "seed", "goodput", "min/mean", "max/mean", "drops", "retrans");
  // One representative overloaded point (shallow queue, at line rate,
  // first seed) records cwnd/queue-depth timelines into the report.
  const auto traced = [](size_t depth, double load, uint64_t seed) {
    return depth == 64 && load == 1.0 && seed == 1;
  };
  for (size_t depth : kDepths) {
    for (double load : kLoads) {
      for (uint64_t seed : kSeeds) {
        const PointResult r =
            RunPoint(load, depth, seed, traced(depth, load, seed) ? &report : nullptr);
        std::printf("%-6.2f %-6zu %-5llu %9.3f %10.3f %10.3f %10llu %10llu\n",
                    load, depth, static_cast<unsigned long long>(seed),
                    r.goodput_gbps, r.min_over_mean, r.max_over_mean,
                    static_cast<unsigned long long>(r.queue_drops),
                    static_cast<unsigned long long>(r.retransmits));
        const std::string label = StrFormat("q%zu/load%.2f/seed%llu", depth, load,
                                            static_cast<unsigned long long>(seed));
        report.Value("goodput_gbps", label, r.goodput_gbps);
        report.Value("min_over_mean", label, r.min_over_mean);
        report.Value("max_over_mean", label, r.max_over_mean);
        report.Value("queue_drops", label, static_cast<double>(r.queue_drops));
        report.Value("retransmits", label, static_cast<double>(r.retransmits));
      }
    }
  }
  report.Write();
  return 0;
}
