#include "src/net/stack.h"

#include "src/base/log.h"
#include "src/net/tcp.h"

namespace kite {
namespace {

// Protocol processing per IP packet sent or frame received, and the extra
// work of answering an echo request.
constexpr SimDuration kPerPacketCost = Nanos(550);
constexpr SimDuration kIcmpReplyCost = Nanos(700);

}  // namespace

// --- UdpSocket. ---

UdpSocket::~UdpSocket() {
  if (stack_ != nullptr && port_ != 0) {
    stack_->udp_ports_.erase(port_);
  }
}

bool UdpSocket::Bind(uint16_t port) {
  KITE_CHECK(port != 0);
  if (stack_->udp_ports_.count(port) != 0) {
    return false;
  }
  if (port_ != 0) {
    stack_->udp_ports_.erase(port_);
  }
  port_ = port;
  stack_->udp_ports_[port] = this;
  return true;
}

void UdpSocket::SendTo(Ipv4Addr dst, uint16_t dst_port, Buffer payload) {
  Ipv4Packet packet;
  packet.src = stack_->ip();  // May be 0.0.0.0 before DHCP configuration.
  packet.dst = dst;
  packet.proto = kIpProtoUdp;
  UdpDatagram udp;
  udp.src_port = port_;
  udp.dst_port = dst_port;
  udp.payload = std::move(payload);
  packet.l4 = std::move(udp);
  stack_->SendIp(std::move(packet));
}

// --- EtherStack. ---

EtherStack::EtherStack(Executor* executor, Vcpu* vcpu, NetIf* netif, StackParams params)
    : executor_(executor), vcpu_(vcpu), netif_(netif), params_(params) {
  // Stable per-stack ICMP identifier derived from the MAC.
  ping_ident_ = static_cast<uint16_t>(netif->mac().octets[4] << 8 | netif->mac().octets[5]);
  netif_->SetInputHandler([this](const EthernetFrame& frame) { Input(frame); });
  netif_->SetUp(true);
  if (params_.metrics != nullptr) {
    tcp_rows_ = params_.metrics->Own(params_.metrics_domain, "tcp",
                                     MetricRegistry::kGuestsRetired, "tcp-retired");
    tcp_counters_.segs_out = tcp_rows_.counter("segs_out");
    tcp_counters_.segs_in = tcp_rows_.counter("segs_in");
    tcp_counters_.retransmits = tcp_rows_.counter("retransmits");
    tcp_counters_.fast_retransmits = tcp_rows_.counter("fast_retransmits");
    tcp_counters_.rto_fires = tcp_rows_.counter("rto_fires");
    tcp_counters_.bytes_acked = tcp_rows_.counter("bytes_acked");
    tcp_counters_.bytes_delivered = tcp_rows_.counter("bytes_delivered");
  }
}

EtherStack::~EtherStack() {
  // Scheduled ping-timeout events capture `this`; marking every pending ping
  // done turns them into no-ops once the stack is gone. The callbacks are
  // dropped, not invoked — their owner is being destroyed.
  for (auto& [seq, pending] : pending_pings_) {
    pending->done = true;
  }
  if (netif_ != nullptr) {
    netif_->SetInputHandler(nullptr);
  }
}

void EtherStack::ConfigureIp(Ipv4Addr ip, uint32_t netmask) {
  ip_ = ip;
  netmask_ = netmask;
}

void EtherStack::Ping(Ipv4Addr dst, size_t payload_bytes,
                      std::function<void(bool, SimDuration)> cb, SimDuration timeout) {
  uint16_t seq = next_ping_seq_++;
  auto pending = std::make_shared<PendingPing>();
  pending->sent_at = executor_->Now();
  pending->cb = std::move(cb);
  pending_pings_[seq] = pending;

  Ipv4Packet packet;
  packet.src = ip_;
  packet.dst = dst;
  packet.proto = kIpProtoIcmp;
  IcmpMessage icmp;
  icmp.is_echo_request = true;
  icmp.ident = ping_ident_;
  icmp.sequence = seq;
  icmp.payload.assign(payload_bytes, 0xa5);
  packet.l4 = std::move(icmp);
  SendIp(std::move(packet));

  executor_->PostAfter(timeout, KITE_POST_SITE("stack/ping-timeout"),
                       [this, seq, pending, timeout] {
    if (!pending->done) {
      pending->done = true;
      pending_pings_.erase(seq);
      pending->cb(false, timeout);
    }
  });
}

std::unique_ptr<UdpSocket> EtherStack::OpenUdp() {
  auto sock = std::unique_ptr<UdpSocket>(new UdpSocket(this));
  // Bind to an ephemeral port immediately.
  uint16_t port = AllocEphemeralPort();
  while (udp_ports_.count(port) != 0) {
    port = AllocEphemeralPort();
  }
  sock->port_ = port;
  udp_ports_[port] = sock.get();
  return sock;
}

void EtherStack::SendIp(Ipv4Packet&& packet) {
  packet.id = next_ip_id_++;
  if (vcpu_ != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("net/stack"));
    vcpu_->Charge(kPerPacketCost);
  }

  if (packet.dst.IsBroadcast()) {
    Transmit(MacAddr::Broadcast(), std::move(packet));
    return;
  }
  auto it = arp_table_.find(packet.dst);
  if (it != arp_table_.end()) {
    Transmit(it->second, std::move(packet));
    return;
  }
  // ARP miss: queue the packet and solicit.
  const Ipv4Addr target = packet.dst;
  arp_pending_[target].push_back(std::move(packet));
  ArpPacket arp;
  arp.is_request = true;
  arp.sender_mac = mac();
  arp.sender_ip = ip_;
  arp.target_ip = target;
  EthernetFrame frame;
  frame.dst = MacAddr::Broadcast();
  frame.src = mac();
  frame.ethertype = kEtherTypeArp;
  frame.payload = arp;
  ++arp_requests_;
  netif_->Output(std::move(frame));
}

void EtherStack::Transmit(MacAddr dst, Ipv4Packet&& packet) {
  for (Ipv4Packet& frag : FragmentIpv4(std::move(packet))) {
    EthernetFrame frame;
    frame.dst = dst;
    frame.src = mac();
    frame.ethertype = kEtherTypeIpv4;
    frame.payload = std::move(frag);
    netif_->Output(std::move(frame));
  }
}

void EtherStack::Input(const EthernetFrame& frame) {
  if (vcpu_ != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("net/stack"));
    vcpu_->Charge(kPerPacketCost);
  }
  if (const ArpPacket* arp = frame.arp()) {
    HandleArp(*arp);
    return;
  }
  const Ipv4Packet* ip = frame.ip();
  if (ip == nullptr) {
    return;
  }
  // Accept unicast-to-us and broadcast.
  if (!ip->dst.IsBroadcast() && !ip_.IsZero() && ip->dst != ip_) {
    return;
  }
  if (ip->IsFragment()) {
    auto whole = reassembler_.Add(*ip);
    if (!whole.has_value()) {
      return;
    }
    HandleIp(*whole);
    return;
  }
  HandleIp(*ip);
}

void EtherStack::HandleArp(const ArpPacket& arp) {
  // Opportunistic learning from both requests and replies.
  if (!arp.sender_ip.IsZero()) {
    arp_table_[arp.sender_ip] = arp.sender_mac;
    // Flush any packets queued on this resolution.
    auto pending = arp_pending_.find(arp.sender_ip);
    if (pending != arp_pending_.end()) {
      std::vector<Ipv4Packet> queued = std::move(pending->second);
      arp_pending_.erase(pending);
      for (Ipv4Packet& p : queued) {
        Transmit(arp.sender_mac, std::move(p));
      }
    }
  }
  if (arp.is_request && !ip_.IsZero() && arp.target_ip == ip_) {
    ArpPacket reply;
    reply.is_request = false;
    reply.sender_mac = mac();
    reply.sender_ip = ip_;
    reply.target_mac = arp.sender_mac;
    reply.target_ip = arp.sender_ip;
    EthernetFrame frame;
    frame.dst = arp.sender_mac;
    frame.src = mac();
    frame.ethertype = kEtherTypeArp;
    frame.payload = reply;
    netif_->Output(std::move(frame));
  }
}

void EtherStack::HandleIp(const Ipv4Packet& packet) {
  if (const IcmpMessage* icmp = std::get_if<IcmpMessage>(&packet.l4)) {
    HandleIcmp(packet, *icmp);
    return;
  }
  if (const UdpDatagram* udp = std::get_if<UdpDatagram>(&packet.l4)) {
    auto it = udp_ports_.find(udp->dst_port);
    if (it != udp_ports_.end()) {
      if (it->second->recv_cb_) {
        it->second->recv_cb_(packet.src, udp->src_port, udp->payload);
      }
    }
    return;
  }
  if (const TcpSegment* tcp = std::get_if<TcpSegment>(&packet.l4)) {
    ConnKey key{packet.src.value, tcp->src_port, tcp->dst_port};
    auto conn_it = conns_.find(key);
    if (conn_it != conns_.end()) {
      conn_it->second->OnSegment(*tcp);
      return;
    }
    // New connection: must be a SYN to a listener.
    if (tcp->syn && !tcp->ack_flag) {
      auto listener_it = listeners_.find(tcp->dst_port);
      if (listener_it != listeners_.end()) {
        TcpConn* conn = CreateConn(packet.src, tcp->src_port, tcp->dst_port);
        conn->StartPassiveOpen(*tcp, listener_it->second->accept_cb_);
        return;
      }
    }
    // No matching connection/listener: RST (unless this *was* an RST).
    if (!tcp->rst) {
      Ipv4Packet rst_packet;
      rst_packet.src = ip_;
      rst_packet.dst = packet.src;
      rst_packet.proto = kIpProtoTcp;
      TcpSegment rst;
      rst.src_port = tcp->dst_port;
      rst.dst_port = tcp->src_port;
      rst.rst = true;
      rst.seq = tcp->ack;
      // Echo an ack covering the offending segment so a SYN_SENT receiver
      // can prove the reset is genuine (its RST validation demands it).
      rst.ack_flag = true;
      rst.ack = tcp->seq + static_cast<uint32_t>(tcp->payload.size()) +
                (tcp->syn ? 1 : 0) + (tcp->fin ? 1 : 0);
      rst_packet.l4 = rst;
      SendIp(std::move(rst_packet));
    }
  }
}

void EtherStack::HandleIcmp(const Ipv4Packet& packet, const IcmpMessage& icmp) {
  if (icmp.is_echo_request) {
    if (vcpu_ != nullptr) {
      CpuScope cpu_scope(KITE_CPU_CATEGORY("net/stack"));
      vcpu_->Charge(kIcmpReplyCost);
    }
    Ipv4Packet reply;
    reply.src = ip_;
    reply.dst = packet.src;
    reply.proto = kIpProtoIcmp;
    IcmpMessage echo = icmp;
    echo.is_echo_request = false;
    reply.l4 = std::move(echo);
    SendIp(std::move(reply));
    return;
  }
  if (icmp.ident != ping_ident_) {
    return;
  }
  auto it = pending_pings_.find(icmp.sequence);
  if (it == pending_pings_.end() || it->second->done) {
    return;
  }
  auto pending = it->second;
  pending->done = true;
  pending_pings_.erase(it);
  pending->cb(true, executor_->Now() - pending->sent_at);
}

TcpListener* EtherStack::ListenTcp(uint16_t port, std::function<void(TcpConn*)> accept_cb) {
  KITE_CHECK(listeners_.count(port) == 0) << "port " << port << " already listening";
  auto listener = std::unique_ptr<TcpListener>(new TcpListener());
  listener->port_ = port;
  listener->accept_cb_ = std::move(accept_cb);
  TcpListener* raw = listener.get();
  listeners_[port] = std::move(listener);
  return raw;
}

TcpConn* EtherStack::ConnectTcp(Ipv4Addr dst, uint16_t dst_port,
                                std::function<void(TcpConn*)> connected_cb) {
  uint16_t local_port = AllocEphemeralPort();
  TcpConn* conn = CreateConn(dst, dst_port, local_port);
  conn->StartActiveOpen(std::move(connected_cb));
  return conn;
}

TcpConn* EtherStack::CreateConn(Ipv4Addr peer_ip, uint16_t peer_port, uint16_t local_port) {
  auto conn =
      std::unique_ptr<TcpConn>(new TcpConn(this, peer_ip, peer_port, local_port));
  TcpConn* raw = conn.get();
  conns_[ConnKey{peer_ip.value, peer_port, local_port}] = std::move(conn);
  return raw;
}

EtherStack::TcpFlowLedger* EtherStack::LedgerFor(Ipv4Addr peer_ip,
                                                 uint16_t peer_port,
                                                 uint16_t local_port) {
  return &tcp_ledgers_[TcpFlowKey{peer_ip.value, peer_port, local_port}];
}

void EtherStack::RemoveConn(TcpConn* conn) {
  ConnKey key{conn->peer_ip().value, conn->peer_port(), conn->local_port()};
  auto it = conns_.find(key);
  if (it == conns_.end() || it->second.get() != conn) {
    return;
  }
  // Defer destruction: the caller may be inside one of the connection's own
  // callbacks.
  std::unique_ptr<TcpConn> doomed = std::move(it->second);
  conns_.erase(it);
  executor_->Post(KITE_POST_SITE("stack/conn-reap"),
                  [doomed = std::shared_ptr<TcpConn>(std::move(doomed))] {});
}

}  // namespace kite
