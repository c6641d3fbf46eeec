// Network packet structures: Ethernet, ARP, IPv4 (with fragmentation), ICMP,
// UDP, and TCP segments.
//
// The simulation passes *structured* packets on the fast path (no per-hop
// byte serialization), but every layer has a faithful wire encoder/decoder
// (big-endian, real checksums) used by the DHCP protocol implementation,
// by fragmentation, and by the protocol round-trip tests.
#ifndef SRC_NET_FRAME_H_
#define SRC_NET_FRAME_H_

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <variant>

#include "src/base/bytes.h"
#include "src/net/addr.h"

namespace kite {

inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr uint16_t kEtherTypeArp = 0x0806;

inline constexpr uint8_t kIpProtoIcmp = 1;
inline constexpr uint8_t kIpProtoTcp = 6;
inline constexpr uint8_t kIpProtoUdp = 17;

inline constexpr size_t kEthernetHeaderBytes = 14;
inline constexpr size_t kEthernetOverheadBytes = 24;  // Preamble + FCS + inter-frame gap.
inline constexpr size_t kIpv4HeaderBytes = 20;
inline constexpr size_t kUdpHeaderBytes = 8;
inline constexpr size_t kTcpHeaderBytes = 20;
inline constexpr size_t kMtu = 1500;
inline constexpr size_t kTcpMss = kMtu - kIpv4HeaderBytes - kTcpHeaderBytes;

// --- ARP. ---
struct ArpPacket {
  bool is_request = true;
  MacAddr sender_mac;
  Ipv4Addr sender_ip;
  MacAddr target_mac;
  Ipv4Addr target_ip;

  size_t ByteSize() const { return 28; }
};

// --- ICMP (echo only; all the paper's ping test needs). ---
struct IcmpMessage {
  bool is_echo_request = true;
  uint16_t ident = 0;
  uint16_t sequence = 0;
  Buffer payload;

  size_t ByteSize() const { return 8 + payload.size(); }
};

// --- UDP. ---
struct UdpDatagram {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  Buffer payload;

  size_t ByteSize() const { return kUdpHeaderBytes + payload.size(); }
};

// --- TCP (simplified segment; see src/net/tcp.h for the state machine). ---
struct TcpSegment {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  bool syn = false;
  bool fin = false;
  bool ack_flag = false;
  bool rst = false;
  uint32_t window = 0;
  Buffer payload;

  size_t ByteSize() const { return kTcpHeaderBytes + payload.size(); }
};

// Raw L4 bytes: used for IP fragments (non-first fragments have no parseable
// L4 header) and for protocols the structured path does not model.
struct RawL4 {
  Buffer bytes;
  size_t ByteSize() const { return bytes.size(); }
};

// --- IPv4. ---
struct Ipv4Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  uint8_t proto = 0;
  uint8_t ttl = 64;
  uint16_t id = 0;
  // Fragmentation: byte offset of this fragment's payload within the
  // original datagram; more_frags set on all but the last fragment.
  uint16_t frag_offset = 0;
  bool more_frags = false;

  std::variant<IcmpMessage, UdpDatagram, TcpSegment, RawL4> l4;

  size_t L4Bytes() const;
  size_t ByteSize() const { return kIpv4HeaderBytes + L4Bytes(); }
  bool IsFragment() const { return more_frags || frag_offset != 0; }
};

// --- Ethernet. ---
struct EthernetFrame {
  MacAddr dst;
  MacAddr src;
  uint16_t ethertype = kEtherTypeIpv4;
  std::variant<ArpPacket, Ipv4Packet> payload;

  size_t PayloadBytes() const;
  // Bytes occupied on the wire, including framing overhead and minimum size.
  size_t WireBytes() const;

  const Ipv4Packet* ip() const { return std::get_if<Ipv4Packet>(&payload); }
  Ipv4Packet* ip() { return std::get_if<Ipv4Packet>(&payload); }
  const ArpPacket* arp() const { return std::get_if<ArpPacket>(&payload); }
};

// --- Wire codecs (real encodings with checksums). ---
//
// Each codec serializes in one form, `Serialize*Into`, which *appends* to an
// existing Buffer (checksum/length fields are patched at their absolute
// offsets, so appending after existing content is safe). Per-packet hot
// paths (netback RX copy-in, netfront RX delivery, per-packet TX parse
// staging) reuse one scratch Buffer instead of allocating per packet.

// UDP/IPv4 with pseudo-header checksum.
void SerializeUdpInto(const UdpDatagram& udp, Ipv4Addr src, Ipv4Addr dst, Buffer* out);
std::optional<UdpDatagram> ParseUdp(std::span<const uint8_t> data, Ipv4Addr src,
                                    Ipv4Addr dst, bool verify_checksum = true);

void SerializeIcmpInto(const IcmpMessage& icmp, Buffer* out);
std::optional<IcmpMessage> ParseIcmp(std::span<const uint8_t> data,
                                     bool verify_checksum = true);

void SerializeTcpInto(const TcpSegment& tcp, Ipv4Addr src, Ipv4Addr dst, Buffer* out);
std::optional<TcpSegment> ParseTcp(std::span<const uint8_t> data, Ipv4Addr src,
                                   Ipv4Addr dst, bool verify_checksum = true);

// Serializes the full IPv4 packet (header checksum + serialized L4).
void SerializeIpv4Into(const Ipv4Packet& packet, Buffer* out);
std::optional<Ipv4Packet> ParseIpv4(std::span<const uint8_t> data,
                                    bool verify_checksum = true);

void SerializeArpInto(const ArpPacket& arp, Buffer* out);
std::optional<ArpPacket> ParseArp(std::span<const uint8_t> data);

// Full Ethernet frame codec.
void SerializeEthernetInto(const EthernetFrame& frame, Buffer* out);
std::optional<EthernetFrame> ParseEthernet(std::span<const uint8_t> data);

// --- IP fragmentation. ---

// Splits a packet whose L4 payload exceeds the MTU into fragments (serializes
// the L4 once, then slices). A packet that fits is moved, not copied, into
// the single-element result.
std::vector<Ipv4Packet> FragmentIpv4(Ipv4Packet packet, size_t mtu = kMtu);

// Largest IPv4 datagram (header included) that the total-length field allows.
inline constexpr size_t kMaxIpv4DatagramBytes = 65535;

// Reassembler for incoming fragments. Returns the completed packet (with a
// parsed L4) once all fragments of a datagram have arrived.
//
// A datagram is identified by (src, dst, id, proto); each accepted fragment is
// held as a byte interval and copied once into the datagram's buffer. That
// buffer is reserved to the largest payload; the buffer of the last datagram
// to finish or drop is kept and reused by the next one, so a steady stream of
// datagrams reserves it once. The rules, in the order they are applied to a
// fragment:
//  - A datagram whose 20-byte header plus payload would exceed 65,535 bytes is
//    dropped (oversized()).
//  - A datagram whose fragments disagree on its final length is dropped: a
//    second last fragment with another end, a last fragment ending before
//    held bytes, or a fragment reaching past the known end. An empty fragment
//    claims no bytes and is dropped the same way, as Linux does
//    (length_conflicts()).
//  - A fragment with the exact extent of a held one is ignored (duplicates()).
//  - A fragment that overlaps held bytes with a different extent drops the
//    whole datagram: RFC 5722's rule, which Linux applies to IPv4 as well
//    (overlaps()).
// Fragments arriving after their datagram was dropped start a new partial
// one, which can only age out.
class Ipv4Reassembler {
 public:
  std::optional<Ipv4Packet> Add(const Ipv4Packet& fragment);
  size_t pending_count() const { return pending_.size(); }
  // Caps the partial datagrams held at once (at least one): a new datagram
  // past the cap drops the one whose first fragment arrived earliest
  // (evicted()).
  void set_max_pending(size_t n) { max_pending_ = std::max<size_t>(n, 1); }

  // Outcome counts: fragments ignored, and datagrams dropped per rule.
  uint64_t duplicates() const { return duplicates_; }
  uint64_t overlaps() const { return overlaps_; }
  uint64_t oversized() const { return oversized_; }
  uint64_t length_conflicts() const { return length_conflicts_; }
  uint64_t evicted() const { return evicted_; }

 private:
  struct Key {
    uint32_t src;
    uint32_t dst;
    uint16_t id;
    uint8_t proto;
    auto operator<=>(const Key&) const = default;
  };
  struct Partial {
    // Reserved to the largest payload up front, so it never reallocates.
    Buffer bytes;
    // Begin -> end of each accepted fragment; disjoint, never empty.
    std::map<size_t, size_t> held;
    size_t held_bytes = 0;
    size_t total_len = 0;  // 0 until the last fragment arrives.
    uint64_t started = 0;  // Creation order, for FIFO aging.
  };
  using PendingMap = std::map<Key, Partial>;

  // Removes a partial datagram that broke a rule and counts it.
  std::nullopt_t Drop(PendingMap::iterator it, uint64_t* counter);
  // Removes a partial datagram, keeping its buffer in spare_.
  void Erase(PendingMap::iterator it);

  PendingMap pending_;
  // The buffer of the last datagram removed, emptied but still reserved;
  // the next new datagram takes it. With it, memory still peaks at
  // max_pending_ reserved buffers: it is held only while fewer are pending.
  Buffer spare_;
  size_t max_pending_ = 256;
  uint64_t next_started_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t overlaps_ = 0;
  uint64_t oversized_ = 0;
  uint64_t length_conflicts_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace kite

#endif  // SRC_NET_FRAME_H_
