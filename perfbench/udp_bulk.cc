// udp_bulk: an open loop of 8 KB UDP datagrams from the client machine to
// 8 guests behind one network domain, Poisson arrivals at the paper's
// offered 7.4 Gb/s aggregate (fig06 widened to a fleet). Each datagram
// crosses the receive path as 6 IP fragments, so reassembly, grant copies
// and the netback RX thread do most of the work.
#include <cstring>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

using namespace kite;

constexpr int kGuests = 8;
constexpr size_t kDatagramBytes = 8192;
constexpr double kOfferedGbps = 7.4;
constexpr uint16_t kPort = 5001;
constexpr uint64_t kWarmupDatagrams = 2000;
constexpr uint64_t kWindowDatagrams = 40000;
// A datagram not delivered this long after its due time is lost.
constexpr SimDuration kDrain = Millis(20);
constexpr uint32_t kMagic = 0x6b697465;  // "kite"

// Header: magic, destination guest, sequence number, body checksum.
struct Header {
  uint32_t magic;
  uint32_t dest;
  uint64_t seq;
  uint64_t checksum;
};
constexpr size_t kBodyWords = (kDatagramBytes - sizeof(Header)) / 8;

uint64_t BodyChecksum(const uint8_t* body) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < kBodyWords; ++i) {
    uint64_t w;
    std::memcpy(&w, body + i * 8, 8);
    h = (h ^ w) * 0x100000001b3ULL;
  }
  return h;
}

class UdpBulk : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    sys_ = std::make_unique<KiteSystem>(BaseParams());
    NetworkDomain* netdom = sys_->CreateNetworkDomain();
    guests_ = BringUpFleet(kGuests, netdom, nullptr, 10);
    tx_ = sys_->client()->stack()->OpenUdp();
    for (int i = 0; i < kGuests; ++i) {
      auto sock = guests_[i]->stack()->OpenUdp();
      if (!sock->Bind(kPort)) {
        Fatal("cannot bind the UDP sink");
      }
      sock->SetRecvCallback([this, i](Ipv4Addr, uint16_t, const Buffer& payload) {
        OnDelivered(i, payload);
      });
      rx_.push_back(std::move(sock));
    }
    Stream(kWarmupDatagrams);
  }

  void RunWindow() override {
    BeginWindow();
    Stream(kWindowDatagrams);
    EndWindow();
  }

 private:
  struct Datagram {
    int64_t due_ns = 0;
    uint64_t checksum = 0;
    uint32_t dest = 0;
    bool delivered = false;
  };

  // Sends `count` datagrams at Poisson arrival times starting now, then runs
  // until each is delivered or has been lost for kDrain.
  void Stream(uint64_t count) {
    first_seq_ = next_seq_;
    end_seq_ = next_seq_ + count;
    table_.assign(count, Datagram{});
    pending_ = count;
    // Mean gap between datagrams at the aggregate offered rate.
    mean_gap_ns_ = static_cast<double>(kDatagramBytes) * 8.0 / kOfferedGbps;
    next_due_ = static_cast<double>(sys_->Now().ns());
    ScheduleNext();
    sys_->WaitUntil(
        [this] {
          return next_seq_ == end_seq_ &&
                 (pending_ == 0 || sys_->Now().ns() > last_due_ns_ + kDrain.ns());
        },
        Seconds(10));
    result_.attempted += count;
    result_.failed += pending_;
  }

  void ScheduleNext() {
    if (next_seq_ == end_seq_) {
      return;
    }
    next_due_ += rng_.Exponential(mean_gap_ns_);
    const int64_t due = static_cast<int64_t>(next_due_);
    sys_->executor().PostAt(SimTime(due), [this, due] { SendOne(due); });
  }

  void SendOne(int64_t due) {
    const uint64_t seq = next_seq_++;
    Datagram& d = table_[seq - first_seq_];
    d.due_ns = due;
    d.dest = static_cast<uint32_t>(rng_.Below(kGuests));
    last_due_ns_ = due;
    Buffer payload(kDatagramBytes);
    uint64_t w = Mix64(config_.seed ^ (seq * 0x9e3779b97f4a7c15ULL));
    for (size_t i = 0; i < kBodyWords; ++i) {
      std::memcpy(payload.data() + sizeof(Header) + i * 8, &w, 8);
      w = w * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    d.checksum = BodyChecksum(payload.data() + sizeof(Header));
    const Header h{kMagic, d.dest, seq, d.checksum};
    std::memcpy(payload.data(), &h, sizeof(h));
    const Ipv4Addr dst = guests_[d.dest]->ip();
    config_.spans->Time("net.send_call", sys_.get(), [&] {
      tx_->SendTo(dst, kPort, std::move(payload));
    });
    ScheduleNext();
  }

  void OnDelivered(int guest, const Buffer& payload) {
    Header h{};
    if (payload.size() != kDatagramBytes) {
      Mismatch("udp datagram of " + std::to_string(payload.size()) + " bytes");
      return;
    }
    std::memcpy(&h, payload.data(), sizeof(h));
    if (h.magic != kMagic || h.seq < first_seq_ || h.seq >= next_seq_) {
      Mismatch("udp datagram with unknown sequence number");
      return;
    }
    Datagram& d = table_[h.seq - first_seq_];
    if (d.delivered) {
      Mismatch("udp datagram delivered twice");
      return;
    }
    d.delivered = true;
    --pending_;
    if (h.dest != d.dest || static_cast<int>(d.dest) != guest) {
      Mismatch("udp datagram delivered to the wrong guest");
      return;
    }
    if (h.checksum != d.checksum ||
        BodyChecksum(payload.data() + sizeof(Header)) != d.checksum) {
      Mismatch("udp datagram payload corrupted");
      return;
    }
    const int64_t now = sys_->Now().ns();
    result_.latency_ns.push_back(now - d.due_ns);
    result_.sim_end_ns = std::max(result_.sim_end_ns, now);
  }

  SeededRng rng_{config_.seed};
  std::vector<GuestVm*> guests_;
  std::unique_ptr<UdpSocket> tx_;
  std::vector<std::unique_ptr<UdpSocket>> rx_;
  std::vector<Datagram> table_;
  uint64_t next_seq_ = 0;
  uint64_t first_seq_ = 0;
  uint64_t end_seq_ = 0;
  uint64_t pending_ = 0;
  double mean_gap_ns_ = 0;
  double next_due_ = 0;
  int64_t last_due_ns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeUdpBulk(const WorkloadConfig& config) {
  return std::make_unique<UdpBulk>(config);
}

}  // namespace perfbench
