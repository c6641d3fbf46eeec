#include "src/services/dhcp.h"

#include "src/base/log.h"

namespace kite {
namespace {

constexpr uint32_t kDhcpMagic = 0x63825363;
constexpr uint16_t kServerPort = 67;
constexpr uint16_t kClientPort = 68;
// OpenDHCP's processing per message.
constexpr SimDuration kPerMessageCost = Micros(40);

enum DhcpOption : uint8_t {
  kOptSubnetMask = 1,
  kOptRequestedIp = 50,
  kOptLeaseTime = 51,
  kOptMessageType = 53,
  kOptServerId = 54,
  kOptEnd = 255,
};

}  // namespace

Buffer SerializeDhcp(const DhcpMessage& msg) {
  Buffer out;
  ByteWriter w(&out);
  w.U8(msg.is_request ? 1 : 2);  // op: BOOTREQUEST / BOOTREPLY.
  w.U8(1);                       // htype: Ethernet.
  w.U8(6);                       // hlen.
  w.U8(0);                       // hops.
  w.U32(msg.xid);
  w.U16(0);  // secs.
  w.U16(0x8000);  // flags: broadcast.
  w.U32(msg.ciaddr.value);
  w.U32(msg.yiaddr.value);
  w.U32(msg.siaddr.value);
  w.U32(0);  // giaddr.
  w.Raw(msg.chaddr.octets);
  w.Zeros(10);   // chaddr padding.
  w.Zeros(64);   // sname.
  w.Zeros(128);  // file.
  w.U32(kDhcpMagic);
  // Options.
  w.U8(kOptMessageType);
  w.U8(1);
  w.U8(static_cast<uint8_t>(msg.type));
  if (!msg.server_id.IsZero()) {
    w.U8(kOptServerId);
    w.U8(4);
    w.U32(msg.server_id.value);
  }
  if (!msg.requested_ip.IsZero()) {
    w.U8(kOptRequestedIp);
    w.U8(4);
    w.U32(msg.requested_ip.value);
  }
  if (msg.lease_seconds != 0) {
    w.U8(kOptLeaseTime);
    w.U8(4);
    w.U32(msg.lease_seconds);
  }
  if (!msg.subnet_mask.IsZero()) {
    w.U8(kOptSubnetMask);
    w.U8(4);
    w.U32(msg.subnet_mask.value);
  }
  w.U8(kOptEnd);
  return out;
}

std::optional<DhcpMessage> ParseDhcp(std::span<const uint8_t> data) {
  if (data.size() < 240) {
    return std::nullopt;
  }
  ByteReader r(data);
  DhcpMessage msg;
  const uint8_t op = r.U8();
  if (op != 1 && op != 2) {
    return std::nullopt;
  }
  msg.is_request = op == 1;
  if (r.U8() != 1 || r.U8() != 6) {
    return std::nullopt;
  }
  r.U8();  // hops.
  msg.xid = r.U32();
  r.U16();  // secs.
  r.U16();  // flags.
  msg.ciaddr.value = r.U32();
  msg.yiaddr.value = r.U32();
  msg.siaddr.value = r.U32();
  r.U32();  // giaddr.
  r.Raw(msg.chaddr.octets);
  r.Skip(10 + 64 + 128);
  if (r.U32() != kDhcpMagic) {
    return std::nullopt;
  }
  // Options.
  while (r.remaining() > 0) {
    const uint8_t opt = r.U8();
    if (opt == kOptEnd) {
      break;
    }
    if (opt == 0) {  // Pad.
      continue;
    }
    const uint8_t len = r.U8();
    switch (opt) {
      case kOptMessageType:
        msg.type = static_cast<DhcpMessageType>(r.U8());
        break;
      case kOptServerId:
        msg.server_id.value = r.U32();
        break;
      case kOptRequestedIp:
        msg.requested_ip.value = r.U32();
        break;
      case kOptLeaseTime:
        msg.lease_seconds = r.U32();
        break;
      case kOptSubnetMask:
        msg.subnet_mask.value = r.U32();
        break;
      default:
        r.Skip(len);
        break;
    }
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return msg;
}

// --- DhcpServer. ---

DhcpServer::DhcpServer(EtherStack* stack, DhcpServerConfig config)
    : stack_(stack), config_(config) {
  if (config_.server_ip.IsZero()) {
    config_.server_ip = stack->ip();
  }
  sock_ = stack_->OpenUdp();
  KITE_CHECK(sock_->Bind(kServerPort));
  sock_->SetRecvCallback([this](Ipv4Addr src, uint16_t src_port, const Buffer& payload) {
    OnMessage(src, src_port, payload);
  });
}

std::optional<Ipv4Addr> DhcpServer::AllocateFor(MacAddr mac) {
  auto existing = leases_.find(mac);
  if (existing != leases_.end()) {
    return existing->second;
  }
  for (int i = 0; i < config_.pool_size; ++i) {
    Ipv4Addr candidate{config_.pool_start.value + static_cast<uint32_t>(i)};
    auto offer_it = offered_.find(candidate.value);
    const bool offered_to_other = offer_it != offered_.end() && offer_it->second != mac;
    bool leased = false;
    for (const auto& [m, ip] : leases_) {
      if (ip == candidate) {
        leased = true;
        break;
      }
    }
    if (!leased && !offered_to_other) {
      return candidate;
    }
  }
  return std::nullopt;
}

DhcpServer::~DhcpServer() { *alive_ = false; }

void DhcpServer::OnMessage(Ipv4Addr src, uint16_t src_port, const Buffer& payload) {
  auto msg = ParseDhcp(payload);
  if (!msg.has_value() || !msg->is_request) {
    return;
  }
  if (stack_->vcpu() != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("app/workload"));
    stack_->vcpu()->Charge(kPerMessageCost);
  }
  DhcpMessage reply;
  reply.is_request = false;
  reply.xid = msg->xid;
  reply.chaddr = msg->chaddr;
  reply.siaddr = config_.server_ip;
  reply.server_id = config_.server_ip;
  reply.subnet_mask = Ipv4Addr{kSlash24};
  reply.lease_seconds = config_.lease_seconds;

  switch (msg->type) {
    case DhcpMessageType::kDiscover: {
      auto ip = AllocateFor(msg->chaddr);
      if (!ip.has_value()) {
        return;  // Pool exhausted: silence (clients retry).
      }
      offered_[ip->value] = msg->chaddr;
      reply.type = DhcpMessageType::kOffer;
      reply.yiaddr = *ip;
      ++offers_;
      Reply(reply);
      break;
    }
    case DhcpMessageType::kRequest: {
      const Ipv4Addr want = msg->requested_ip.IsZero() ? msg->ciaddr : msg->requested_ip;
      auto offer_it = offered_.find(want.value);
      const bool ours = offer_it != offered_.end() && offer_it->second == msg->chaddr;
      const bool renewing =
          leases_.count(msg->chaddr) != 0 && leases_[msg->chaddr] == want;
      if (ours || renewing) {
        offered_.erase(want.value);
        leases_[msg->chaddr] = want;
        reply.type = DhcpMessageType::kAck;
        reply.yiaddr = want;
        ++acks_;
      } else {
        reply.type = DhcpMessageType::kNak;
        ++naks_;
      }
      Reply(reply);
      break;
    }
    case DhcpMessageType::kRelease: {
      leases_.erase(msg->chaddr);
      break;
    }
    default:
      break;
  }
}

void DhcpServer::Reply(const DhcpMessage& reply) {
  // Clients without an address listen on the broadcast. The reply leaves at
  // the CPU-completion time of the daemon's processing.
  const SimTime when = stack_->vcpu() != nullptr ? stack_->vcpu()->free_at()
                                                 : stack_->executor()->Now();
  stack_->executor()->PostAt(when, KITE_POST_SITE("dhcp/reply"),
                             [this, alive = alive_, bytes = SerializeDhcp(reply)] {
    if (*alive) {
      sock_->SendTo(Ipv4Addr::Broadcast(), kClientPort, bytes);
    }
  });
}

// --- PerfDhcp. ---

PerfDhcp::PerfDhcp(EtherStack* client, int count, SimDuration spacing)
    : client_(client), count_(count), spacing_(spacing) {}

void PerfDhcp::Run(std::function<void(const PerfDhcpResult&)> done) {
  done_ = std::move(done);
  sock_ = client_->OpenUdp();
  KITE_CHECK(sock_->Bind(kClientPort));
  sock_->SetRecvCallback(
      [this](Ipv4Addr, uint16_t, const Buffer& payload) { OnReply(payload); });
  StartClient(0);
}

void PerfDhcp::StartClient(int index) {
  if (index >= count_) {
    return;
  }
  ClientState state;
  state.mac = MacAddr::FromId(0x500000u + static_cast<uint32_t>(index));
  state.xid = 0x44484350u + static_cast<uint32_t>(index);
  state.discover_at = client_->executor()->Now();
  clients_[state.xid] = state;
  ++started_;

  DhcpMessage discover;
  discover.is_request = true;
  discover.type = DhcpMessageType::kDiscover;
  discover.xid = state.xid;
  discover.chaddr = state.mac;
  sock_->SendTo(Ipv4Addr::Broadcast(), kServerPort, SerializeDhcp(discover));

  client_->executor()->PostAfter(spacing_, KITE_POST_SITE("dhcp/client-stagger"),
                                 [this, index] { StartClient(index + 1); });
}

void PerfDhcp::OnReply(const Buffer& payload) {
  auto msg = ParseDhcp(payload);
  if (!msg.has_value() || msg->is_request) {
    return;
  }
  auto it = clients_.find(msg->xid);
  if (it == clients_.end() || it->second.done) {
    return;
  }
  ClientState& state = it->second;
  const SimTime now = client_->executor()->Now();
  if (msg->type == DhcpMessageType::kOffer && !state.got_offer) {
    state.got_offer = true;
    state.offered = msg->yiaddr;
    result_.discover_offer_ms.Add((now - state.discover_at).ms());
    state.request_at = now;
    DhcpMessage request;
    request.is_request = true;
    request.type = DhcpMessageType::kRequest;
    request.xid = state.xid;
    request.chaddr = state.mac;
    request.requested_ip = state.offered;
    request.server_id = msg->server_id;
    sock_->SendTo(Ipv4Addr::Broadcast(), kServerPort, SerializeDhcp(request));
    return;
  }
  if (msg->type == DhcpMessageType::kAck && state.got_offer) {
    state.done = true;
    result_.request_ack_ms.Add((now - state.request_at).ms());
    FinishOne(true);
    return;
  }
  if (msg->type == DhcpMessageType::kNak) {
    state.done = true;
    FinishOne(false);
  }
}

void PerfDhcp::FinishOne(bool ok) {
  if (ok) {
    ++result_.completed;
  } else {
    ++result_.failed;
  }
  if (result_.completed + result_.failed >= count_ && !finished_) {
    finished_ = true;
    if (done_) {
      done_(result_);
    }
  }
}

}  // namespace kite
