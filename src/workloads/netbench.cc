#include "src/workloads/netbench.h"

#include "src/base/bytes.h"
#include "src/base/log.h"

namespace kite {
namespace {

constexpr uint16_t kNuttcpPort = 5001;
constexpr uint16_t kNetperfPort = 12865;
// netperf TCP_RR's request and response sizes.
constexpr size_t kRrRequestBytes = 64;
constexpr size_t kRrResponseBytes = 64;

}  // namespace

// --- NuttcpUdp. ---

NuttcpUdp::NuttcpUdp(EtherStack* client, EtherStack* server, Ipv4Addr server_ip,
                     NuttcpConfig config)
    : client_(client), server_(server), server_ip_(server_ip), config_(config) {}

void NuttcpUdp::Run(std::function<void(const NuttcpResult&)> done) {
  done_ = std::move(done);
  rx_ = server_->OpenUdp();
  KITE_CHECK(rx_->Bind(kNuttcpPort));
  rx_->SetRecvCallback([this](Ipv4Addr, uint16_t, const Buffer& payload) {
    ++received_;
    received_bytes_ += payload.size();
  });
  tx_ = client_->OpenUdp();

  const double bits_per_datagram = static_cast<double>(config_.datagram_bytes) * 8.0;
  interval_ = Nanos(static_cast<int64_t>(bits_per_datagram / config_.offered_gbps));
  end_at_ = client_->executor()->Now() + config_.duration;
  SendTick();
}

void NuttcpUdp::SendTick() {
  if (client_->executor()->Now() >= end_at_) {
    // Allow in-flight datagrams to drain before reporting.
    client_->executor()->PostAfter(Millis(20), KITE_POST_SITE("netbench/udp-drain"),
                                   [this] {
      finished_ = true;
      result_.sent = sent_;
      result_.received = received_;
      result_.goodput_gbps =
          static_cast<double>(received_bytes_) * 8.0 / config_.duration.ns();
      result_.loss_percent =
          sent_ > 0 ? 100.0 * (sent_ - received_) / static_cast<double>(sent_) : 0;
      if (done_) {
        done_(result_);
      }
    });
    return;
  }
  ++sent_;
  tx_->SendTo(server_ip_, kNuttcpPort, Buffer(config_.datagram_bytes, 0x6e));
  client_->executor()->PostAfter(interval_, KITE_POST_SITE("netbench/udp-tick"),
                                 [this] { SendTick(); });
}

// --- PingBench. ---

PingBench::PingBench(EtherStack* client, Ipv4Addr target, int count, SimDuration interval,
                     size_t payload)
    : client_(client), target_(target), count_(count), interval_(interval),
      payload_(payload) {}

void PingBench::Run(std::function<void(const PingBenchResult&)> done) {
  done_ = std::move(done);
  SendOne();
}

void PingBench::SendOne() {
  ++result_.sent;
  client_->Ping(target_, payload_, [this](bool ok, SimDuration rtt) {
    if (ok) {
      ++result_.received;
      result_.rtt_ms.Add(rtt.ms());
    }
    if (result_.sent >= count_) {
      finished_ = true;
      if (done_) {
        done_(result_);
      }
      return;
    }
    client_->executor()->PostAfter(interval_, KITE_POST_SITE("netbench/ping-next"),
                                   [this] { SendOne(); });
  });
}

// --- NetperfRr. ---

NetperfRr::NetperfRr(EtherStack* client, EtherStack* server, Ipv4Addr server_ip,
                     NetperfRrConfig config)
    : client_(client), server_(server), server_ip_(server_ip), config_(config) {}

void NetperfRr::Run(std::function<void(const NetperfRrResult&)> done) {
  done_ = std::move(done);
  server_sock_ = server_->OpenUdp();
  KITE_CHECK(server_sock_->Bind(kNetperfPort));
  server_sock_->SetRecvCallback(
      [this](Ipv4Addr src, uint16_t src_port, const Buffer& payload) {
        // Echo back a response of the configured size, preserving the seq.
        Buffer response(kRrResponseBytes, 0);
        if (payload.size() >= 4 && response.size() >= 4) {
          std::copy_n(payload.begin(), 4, response.begin());
        }
        server_sock_->SendTo(src, src_port, std::move(response));
      });
  client_sock_ = client_->OpenUdp();
  client_sock_->SetRecvCallback([this](Ipv4Addr, uint16_t, const Buffer& payload) {
    if (payload.size() < 4) {
      return;
    }
    ByteReader r(payload);
    const uint32_t seq = r.U32();
    auto it = in_flight_.find(seq);
    if (it == in_flight_.end()) {
      return;
    }
    result_.latency_ms.Add((client_->executor()->Now() - it->second).ms());
    in_flight_.erase(it);
    ++result_.completed;
    if (result_.completed >= config_.requests && !finished_) {
      finished_ = true;
      if (done_) {
        done_(result_);
      }
    }
  });
  SendOne(0);
}

void NetperfRr::SendOne(int seq) {
  if (seq >= config_.requests) {
    return;
  }
  Buffer request(kRrRequestBytes, 0);
  request[0] = static_cast<uint8_t>(seq >> 24);
  request[1] = static_cast<uint8_t>(seq >> 16);
  request[2] = static_cast<uint8_t>(seq >> 8);
  request[3] = static_cast<uint8_t>(seq);
  in_flight_[static_cast<uint32_t>(seq)] = client_->executor()->Now();
  ++sent_;
  client_sock_->SendTo(server_ip_, kNetperfPort, std::move(request));
  client_->executor()->PostAfter(config_.interval, KITE_POST_SITE("netbench/rr-next"),
                                 [this, seq] { SendOne(seq + 1); });
}

}  // namespace kite
