// Network micro-benchmarks: nuttcp (UDP throughput, Fig 6), ping and
// Netperf-style request/response latency (Fig 7).
#ifndef SRC_WORKLOADS_NETBENCH_H_
#define SRC_WORKLOADS_NETBENCH_H_

#include <functional>
#include <memory>

#include "src/base/stats.h"
#include "src/net/stack.h"

namespace kite {

// --- nuttcp UDP mode (paper: 4 MB window, 8 KB buffers, ≈7 Gbps, <1.5%
// loss). The client paces 8 KB datagrams at the offered rate; the server
// counts arrivals. Loss happens in the driver domain / NIC queues. ---

struct NuttcpConfig {
  double offered_gbps = 7.4;
  size_t datagram_bytes = 8192;
  SimDuration duration = Millis(300);
};

struct NuttcpResult {
  double goodput_gbps = 0;
  double loss_percent = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
};

class NuttcpUdp {
 public:
  // server_stack receives; client_stack transmits.
  NuttcpUdp(EtherStack* client, EtherStack* server, Ipv4Addr server_ip,
            NuttcpConfig config = NuttcpConfig{});

  // Starts the stream; done fires after `duration` (+drain).
  void Run(std::function<void(const NuttcpResult&)> done);
  bool finished() const { return finished_; }
  const NuttcpResult& result() const { return result_; }

 private:
  void SendTick();

  EtherStack* client_;
  EtherStack* server_;
  Ipv4Addr server_ip_;
  NuttcpConfig config_;
  std::function<void(const NuttcpResult&)> done_;
  std::unique_ptr<UdpSocket> tx_;
  std::unique_ptr<UdpSocket> rx_;
  SimTime end_at_;
  SimDuration interval_;
  uint64_t sent_ = 0;
  uint64_t received_bytes_ = 0;
  uint64_t received_ = 0;
  bool finished_ = false;
  NuttcpResult result_;
};

// --- ping: N echo requests at a fixed interval (paper: 100 @ 1 s). ---

struct PingBenchResult {
  Stats rtt_ms;
  int sent = 0;
  int received = 0;
};

class PingBench {
 public:
  PingBench(EtherStack* client, Ipv4Addr target, int count = 100,
            SimDuration interval = Seconds(1), size_t payload = 56);
  void Run(std::function<void(const PingBenchResult&)> done);
  bool finished() const { return finished_; }
  const PingBenchResult& result() const { return result_; }

 private:
  void SendOne();

  EtherStack* client_;
  Ipv4Addr target_;
  int count_;
  SimDuration interval_;
  size_t payload_;
  std::function<void(const PingBenchResult&)> done_;
  bool finished_ = false;
  PingBenchResult result_;
};

// --- Netperf-style UDP request/response: fixed request rate (paper: 1000
// requests/second with even intervals), measuring per-RR latency. ---

struct NetperfRrConfig {
  int requests = 1000;
  SimDuration interval = Millis(1);
};

struct NetperfRrResult {
  Stats latency_ms;
  int completed = 0;
};

class NetperfRr {
 public:
  NetperfRr(EtherStack* client, EtherStack* server, Ipv4Addr server_ip,
            NetperfRrConfig config = NetperfRrConfig{});
  void Run(std::function<void(const NetperfRrResult&)> done);
  bool finished() const { return finished_; }
  const NetperfRrResult& result() const { return result_; }

 private:
  void SendOne(int seq);

  EtherStack* client_;
  EtherStack* server_;
  Ipv4Addr server_ip_;
  NetperfRrConfig config_;
  std::function<void(const NetperfRrResult&)> done_;
  std::unique_ptr<UdpSocket> client_sock_;
  std::unique_ptr<UdpSocket> server_sock_;
  std::map<uint32_t, SimTime> in_flight_;
  int sent_ = 0;
  bool finished_ = false;
  NetperfRrResult result_;
};

}  // namespace kite

#endif  // SRC_WORKLOADS_NETBENCH_H_
