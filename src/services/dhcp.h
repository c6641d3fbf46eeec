// DHCP daemon service VM (paper §5.5): a real DHCP protocol implementation
// (RFC 2131 wire format: DISCOVER/OFFER/REQUEST/ACK over UDP 67/68
// broadcast) suitable for running unikernelized as a daemon VM, plus a
// perfdhcp-style load generator that measures Discover→Offer and
// Request→Ack latencies.
#ifndef SRC_SERVICES_DHCP_H_
#define SRC_SERVICES_DHCP_H_

#include <functional>
#include <map>
#include <memory>

#include "src/base/stats.h"
#include "src/net/stack.h"

namespace kite {

enum class DhcpMessageType : uint8_t {
  kDiscover = 1,
  kOffer = 2,
  kRequest = 3,
  kDecline = 4,
  kAck = 5,
  kNak = 6,
  kRelease = 7,
};

struct DhcpMessage {
  bool is_request = true;  // BOOTREQUEST vs BOOTREPLY.
  uint32_t xid = 0;
  Ipv4Addr ciaddr;  // Client's current address.
  Ipv4Addr yiaddr;  // "Your" address (assigned).
  Ipv4Addr siaddr;  // Server address.
  MacAddr chaddr;
  DhcpMessageType type = DhcpMessageType::kDiscover;
  Ipv4Addr server_id;
  Ipv4Addr requested_ip;
  uint32_t lease_seconds = 0;
  Ipv4Addr subnet_mask;
};

// RFC 2131 wire codec (with the standard magic cookie and option encoding).
Buffer SerializeDhcp(const DhcpMessage& msg);
std::optional<DhcpMessage> ParseDhcp(std::span<const uint8_t> data);

struct DhcpServerConfig {
  Ipv4Addr pool_start = Ipv4Addr::FromOctets(10, 0, 0, 100);
  int pool_size = 150;
  Ipv4Addr server_ip;  // Defaults to the stack's IP.
  uint32_t lease_seconds = 3600;
};

class DhcpServer {
 public:
  DhcpServer(EtherStack* stack, DhcpServerConfig config = DhcpServerConfig{});
  ~DhcpServer();

  int leases_active() const { return static_cast<int>(leases_.size()); }
  uint64_t offers_sent() const { return offers_; }
  uint64_t acks_sent() const { return acks_; }
  uint64_t naks_sent() const { return naks_; }

 private:
  void OnMessage(Ipv4Addr src, uint16_t src_port, const Buffer& payload);
  std::optional<Ipv4Addr> AllocateFor(MacAddr mac);
  void Reply(const DhcpMessage& reply);

  EtherStack* stack_;
  DhcpServerConfig config_;
  std::unique_ptr<UdpSocket> sock_;
  // Guard for replies scheduled at CPU-completion time.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::map<MacAddr, Ipv4Addr> leases_;
  std::map<uint32_t, MacAddr> offered_;  // ip → mac (tentative offers).
  uint64_t offers_ = 0;
  uint64_t acks_ = 0;
  uint64_t naks_ = 0;
};

// perfdhcp: `count` simulated clients run the 4-way handshake; reports the
// Discover→Offer and Request→Ack delays (paper: ≈0.78 ms and ≈0.7 ms).
struct PerfDhcpResult {
  Stats discover_offer_ms;
  Stats request_ack_ms;
  int completed = 0;
  int failed = 0;
};

class PerfDhcp {
 public:
  PerfDhcp(EtherStack* client, int count = 100, SimDuration spacing = Millis(2));
  void Run(std::function<void(const PerfDhcpResult&)> done);
  bool finished() const { return finished_; }
  const PerfDhcpResult& result() const { return result_; }

 private:
  void StartClient(int index);
  void OnReply(const Buffer& payload);
  void FinishOne(bool ok);

  struct ClientState {
    MacAddr mac;
    uint32_t xid;
    SimTime discover_at;
    SimTime request_at;
    Ipv4Addr offered;
    bool got_offer = false;
    bool done = false;
  };

  EtherStack* client_;
  int count_;
  SimDuration spacing_;
  std::function<void(const PerfDhcpResult&)> done_;
  std::unique_ptr<UdpSocket> sock_;
  std::map<uint32_t, ClientState> clients_;  // By xid.
  int started_ = 0;
  bool finished_ = false;
  PerfDhcpResult result_;
};

}  // namespace kite

#endif  // SRC_SERVICES_DHCP_H_
