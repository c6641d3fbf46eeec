// EtherStack: a small but real TCP/IP endpoint stack over a NetIf.
//
// Provides ARP resolution, IPv4 with fragmentation/reassembly, ICMP echo
// (ping), UDP sockets, and TCP connections (src/net/tcp.h). Used by guest
// DomUs (behind netfront), by the client load-generator machine, and by
// daemon service VMs (the DHCP server).
#ifndef SRC_NET_STACK_H_
#define SRC_NET_STACK_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/frame.h"
#include "src/net/netif.h"
#include "src/obs/metrics.h"
#include "src/sim/cpu.h"
#include "src/sim/executor.h"

namespace kite {

class EtherStack;
class TcpConn;
class TcpListener;

struct StackParams {
  // Optional observability. With `metrics` set the stack exports aggregate
  // TCP counters under (metrics_domain, "tcp", <name>); with
  // `per_flow_metrics` additionally per-connection cwnd/ssthresh/srtt/
  // retransmit gauges under a flow-id device. Per-flow is off by default —
  // connection-churning workloads would grow the registry without bound.
  MetricRegistry* metrics = nullptr;
  std::string metrics_domain;
  bool per_flow_metrics = false;
};

// Connectionless datagram socket.
class UdpSocket {
 public:
  using RecvFn =
      std::function<void(Ipv4Addr src_ip, uint16_t src_port, const Buffer& payload)>;

  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  // Binds to a specific port (e.g. DHCP's 67/68). Sockets are created
  // already bound to an ephemeral port; Bind rebinds.
  bool Bind(uint16_t port);
  uint16_t local_port() const { return port_; }

  void SetRecvCallback(RecvFn fn) { recv_cb_ = std::move(fn); }

  // Sends a datagram. Broadcast destinations bypass ARP; a stack with no IP
  // yet sends from 0.0.0.0 (DHCP bootstrapping).
  void SendTo(Ipv4Addr dst, uint16_t dst_port, Buffer payload);

 private:
  friend class EtherStack;
  explicit UdpSocket(EtherStack* stack) : stack_(stack) {}

  EtherStack* stack_;
  uint16_t port_ = 0;
  RecvFn recv_cb_;
};

class EtherStack {
 public:
  // vcpu may be null (no CPU accounting, e.g. an ideal client).
  EtherStack(Executor* executor, Vcpu* vcpu, NetIf* netif, StackParams params = StackParams{});
  ~EtherStack();

  EtherStack(const EtherStack&) = delete;
  EtherStack& operator=(const EtherStack&) = delete;

  void ConfigureIp(Ipv4Addr ip, uint32_t netmask = kSlash24);
  Ipv4Addr ip() const { return ip_; }
  MacAddr mac() const { return netif_->mac(); }
  NetIf* netif() const { return netif_; }
  Executor* executor() const { return executor_; }
  Vcpu* vcpu() const { return vcpu_; }

  // --- ICMP. ---
  // Sends an echo request; the callback fires with (true, rtt) on reply.
  // Lost pings time out after `timeout` and report (false, timeout).
  void Ping(Ipv4Addr dst, size_t payload_bytes,
            std::function<void(bool ok, SimDuration rtt)> cb,
            SimDuration timeout = Seconds(1));

  // --- UDP. ---
  std::unique_ptr<UdpSocket> OpenUdp();

  // --- TCP (implementation in src/net/tcp.cc). ---
  TcpListener* ListenTcp(uint16_t port, std::function<void(TcpConn*)> accept_cb);
  // Initiates a connection; connected_cb fires when established. Returns the
  // connection (owned by the stack; valid until closed).
  TcpConn* ConnectTcp(Ipv4Addr dst, uint16_t dst_port,
                      std::function<void(TcpConn*)> connected_cb);

  // --- Internals shared with TCP and sockets. ---
  void SendIp(Ipv4Packet&& packet);
  uint16_t AllocEphemeralPort() { return next_ephemeral_++; }
  const StackParams& params() const { return params_; }

  // --- TCP flow ledgers (checker's tcp-ledger invariant). ---
  // Lifetime payload totals per flow. Entries survive connection teardown:
  // the checker audits them after the conn objects are gone.
  struct TcpFlowKey {
    uint32_t peer_ip;
    uint16_t peer_port;
    uint16_t local_port;
    auto operator<=>(const TcpFlowKey&) const = default;
  };
  struct TcpFlowLedger {
    uint64_t payload_sent = 0;  // New payload bytes transmitted (first send).
    uint64_t acked_in = 0;      // Our payload bytes cumulatively acked by peer.
    uint64_t delivered = 0;     // In-order payload bytes consumed (== acked out).
  };
  const std::map<TcpFlowKey, TcpFlowLedger>& tcp_ledgers() const {
    return tcp_ledgers_;
  }

  // --- Stats. ---
  uint64_t arp_requests_sent() const { return arp_requests_; }

  // Static ARP entry injection (tests).
  void AddArpEntry(Ipv4Addr ip, MacAddr mac) { arp_table_[ip] = mac; }
  bool HasArpEntry(Ipv4Addr ip) const { return arp_table_.count(ip) != 0; }

 private:
  friend class UdpSocket;
  friend class TcpConn;

  void Input(const EthernetFrame& frame);
  void HandleArp(const ArpPacket& arp);
  void HandleIp(const Ipv4Packet& packet);
  void HandleIcmp(const Ipv4Packet& packet, const IcmpMessage& icmp);
  void Transmit(MacAddr dst, Ipv4Packet&& packet);
  void RemoveConn(TcpConn* conn);
  TcpConn* CreateConn(Ipv4Addr peer_ip, uint16_t peer_port, uint16_t local_port);
  TcpFlowLedger* LedgerFor(Ipv4Addr peer_ip, uint16_t peer_port, uint16_t local_port);

  // Aggregate TCP counters under (metrics_domain, "tcp", <name>); all null
  // when StackParams::metrics is unset. The stack owns their group, which
  // folds into the machine-wide (guests, "tcp-retired") rows when it dies.
  struct TcpStackCounters {
    Counter* segs_out = nullptr;
    Counter* segs_in = nullptr;
    Counter* retransmits = nullptr;       // Retransmitted segments.
    Counter* fast_retransmits = nullptr;  // Fast-retransmit events.
    Counter* rto_fires = nullptr;         // Retransmission timeouts.
    Counter* bytes_acked = nullptr;
    Counter* bytes_delivered = nullptr;
  };

  struct PendingPing {
    SimTime sent_at;
    std::function<void(bool, SimDuration)> cb;
    bool done = false;
  };

  Executor* executor_;
  Vcpu* vcpu_;
  NetIf* netif_;
  StackParams params_;

  Ipv4Addr ip_;
  uint32_t netmask_ = kSlash24;
  uint16_t next_ip_id_ = 1;
  uint16_t next_ephemeral_ = 32768;
  Ipv4Reassembler reassembler_;

  std::map<Ipv4Addr, MacAddr> arp_table_;
  std::map<Ipv4Addr, std::vector<Ipv4Packet>> arp_pending_;

  uint16_t ping_ident_;
  uint16_t next_ping_seq_ = 1;
  std::map<uint16_t, std::shared_ptr<PendingPing>> pending_pings_;

  std::map<uint16_t, UdpSocket*> udp_ports_;

  struct ConnKey {
    uint32_t peer_ip;
    uint16_t peer_port;
    uint16_t local_port;
    auto operator<=>(const ConnKey&) const = default;
  };
  std::map<ConnKey, std::unique_ptr<TcpConn>> conns_;
  std::map<uint16_t, std::unique_ptr<TcpListener>> listeners_;
  std::map<TcpFlowKey, TcpFlowLedger> tcp_ledgers_;
  MetricRegistry::Owner tcp_rows_;
  TcpStackCounters tcp_counters_;

  uint64_t arp_requests_ = 0;
};

}  // namespace kite

#endif  // SRC_NET_STACK_H_
