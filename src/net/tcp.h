// TCP: a reliable byte stream with honest loss behaviour, sufficient for the
// paper's macrobenchmarks (HTTP, Redis, memcached, MySQL traffic) and for
// overload scenarios where queues actually drop.
//
// Implemented: three-way handshake, cumulative ACKs with coalescing,
// out-of-order reassembly at the receiver, slow start + AIMD congestion
// avoidance (RFC 5681), fast retransmit / NewReno fast recovery on three
// duplicate ACKs, SRTT/RTTVAR-based retransmission timeout with Karn's rule
// and exponential backoff (RFC 6298), FIN/RST teardown. Not implemented:
// SACK, ECN, window scaling beyond the fixed 256 KiB receive window.
#ifndef SRC_NET_TCP_H_
#define SRC_NET_TCP_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "src/net/stack.h"

namespace kite {

inline constexpr uint32_t kTcpWindowBytes = 256 * 1024;

// Connection state, exposed for the table-driven protocol tests.
enum class TcpState {
  kSynSent,      // Active open, SYN out.
  kSynReceived,  // Passive open, SYN/ACK out.
  kEstablished,
  kFinSent,  // Our FIN sent, awaiting ACK (and possibly peer FIN).
  kClosed,
};

class TcpListener {
 public:
  uint16_t port() const { return port_; }

 private:
  friend class EtherStack;
  uint16_t port_ = 0;
  std::function<void(TcpConn*)> accept_cb_;
};

class TcpConn {
 public:
  using DataFn = std::function<void(std::span<const uint8_t>)>;

  ~TcpConn();
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  // Delivery of received in-order payload bytes.
  void SetDataCallback(DataFn fn) { data_cb_ = std::move(fn); }
  // Fired once when the peer closes (FIN/RST) or the connection aborts.
  void SetCloseCallback(std::function<void()> fn) { close_cb_ = std::move(fn); }

  // Queues bytes for transmission.
  void Send(Buffer data);
  void Send(std::span<const uint8_t> data) { Send(Buffer(data.begin(), data.end())); }

  // Graceful close: FIN after all queued data.
  void Close();
  // Abortive close: RST now.
  void Abort();

  TcpState state() const { return state_; }
  bool connected() const { return state_ == TcpState::kEstablished; }
  bool closed() const { return state_ == TcpState::kClosed; }
  size_t send_queue_bytes() const { return send_buf_.size(); }

  Ipv4Addr peer_ip() const { return peer_ip_; }
  uint16_t peer_port() const { return peer_port_; }
  uint16_t local_port() const { return local_port_; }

  // Payload bytes the peer has cumulatively acknowledged.
  uint64_t bytes_acked() const { return bytes_acked_; }

  // --- Congestion state (read-only; the protocol tests trace these). ---
  uint32_t cwnd() const { return cwnd_; }
  uint32_t ssthresh() const { return ssthresh_; }
  bool in_fast_recovery() const { return in_fast_recovery_; }
  // Smoothed RTT; zero until the first valid (unretransmitted) sample.
  SimDuration srtt() const { return srtt_; }
  // Current retransmission timeout, including any exponential backoff.
  SimDuration rto() const { return rto_; }
  // Retransmission *timeouts* fired (each triggers go-back-N).
  uint32_t retransmits() const { return retransmits_; }
  // Fast-retransmit events (3 dup-ACKs → resend head without waiting).
  uint32_t fast_retransmits() const { return fast_retransmits_; }

  // Liveness guard for deferred work (e.g. a server response scheduled at a
  // CPU-completion time): *guard is true while this object exists.
  std::shared_ptr<const bool> AliveGuard() const { return alive_; }

 private:
  friend class EtherStack;

  TcpConn(EtherStack* stack, Ipv4Addr peer_ip, uint16_t peer_port, uint16_t local_port);

  void StartActiveOpen(std::function<void(TcpConn*)> connected_cb);
  void StartPassiveOpen(const TcpSegment& syn, std::function<void(TcpConn*)> accept_cb);
  void OnSegment(const TcpSegment& seg);
  void OnAck(const TcpSegment& seg);
  void OnDupAck();
  // Returns false if a data callback closed the connection.
  bool HandleData(const TcpSegment& seg);
  void DeliverInOrder(std::span<const uint8_t> payload);
  void DrainOoo();
  void HandlePeerFin();
  void PumpSend();
  // Resends one MSS starting at snd_una_ without touching snd_nxt_ (the fast
  // retransmit / NewReno partial-ACK hole repair).
  void RetransmitHead();
  void EmitSegment(TcpSegment&& seg);
  void SendAckNow();
  void ScheduleDelayedAck();
  void ArmRto();
  void OnRto(uint64_t generation);
  void UpdateRtt(SimDuration sample);
  // RTO from the current SRTT/RTTVAR estimate (RFC 6298 §2), clamped to
  // [min_rto, max_rto]; falls back to initial_rto before the first sample.
  // Called on every new cumulative ACK — this is what cancels backoff.
  void RecomputeRto();
  void UpdateFlowGauges();
  void EnterClosed(bool deliver_close);

  // Sequence octets outstanding (includes SYN/FIN bits).
  uint32_t FlightSize() const;

  EtherStack* stack_;
  Ipv4Addr peer_ip_;
  uint16_t peer_port_;
  uint16_t local_port_;
  TcpState state_ = TcpState::kSynSent;

  // Send side. send_buf_ front corresponds to sequence snd_una_.
  std::deque<uint8_t> send_buf_;
  uint32_t snd_una_ = 0;
  uint32_t snd_nxt_ = 0;
  uint32_t snd_max_ = 0;  // Highest sequence ever sent (new vs. retransmit).
  uint32_t peer_window_ = kTcpWindowBytes;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  // True once a FIN has been emitted at least once, even if a go-back-N
  // rewind cleared fin_sent_: a receiver that held the tail + FIN out of
  // order may ack past snd_max_ before the FIN is re-emitted.
  bool fin_ever_sent_ = false;

  // Congestion control (byte-counted, RFC 5681).
  uint32_t cwnd_ = 0;      // Initialized in the constructor.
  uint32_t ssthresh_ = kTcpWindowBytes;
  uint32_t dup_acks_ = 0;
  bool in_fast_recovery_ = false;
  uint32_t recover_ = 0;  // snd_nxt_ at loss detection (NewReno full-ACK bar).

  // RTT estimation (RFC 6298). One probe in flight at a time; Karn's rule
  // invalidates the probe on any retransmission.
  bool srtt_valid_ = false;
  SimDuration srtt_{};
  SimDuration rttvar_{};
  bool rtt_probe_armed_ = false;
  uint32_t rtt_probe_end_ = 0;  // Sample completes when snd_una_ reaches this.
  SimTime rtt_probe_sent_;

  // Receive side.
  uint32_t rcv_nxt_ = 0;
  bool peer_fin_received_ = false;
  int ack_pending_segments_ = 0;
  bool delayed_ack_armed_ = false;

  // Out-of-order reassembly, keyed by segment start sequence. A buffered FIN
  // rides on the segment that carries it. Bounded by the receive window.
  struct OooSeg {
    Buffer data;
    bool fin = false;
  };
  std::map<uint32_t, OooSeg> ooo_;
  size_t ooo_bytes_ = 0;

  // Retransmission timer.
  uint64_t rto_generation_ = 0;
  bool rto_armed_ = false;
  SimDuration rto_;  // Initialized in the constructor.
  uint32_t retransmits_ = 0;       // Lifetime stat (exported as a gauge).
  uint32_t fast_retransmits_ = 0;  // Lifetime stat (exported as a gauge).
  // Consecutive RTO fires with no forward progress; this — not the lifetime
  // stat — is what max_retransmits bounds. Reset whenever snd_una advances.
  uint32_t rto_retries_ = 0;

  // Timer lifetime guard: executor events capture this flag; a destroyed
  // connection flips it so stale timers become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  DataFn data_cb_;
  std::function<void()> close_cb_;
  std::function<void(TcpConn*)> connected_cb_;
  bool close_delivered_ = false;

  uint64_t bytes_acked_ = 0;

  // Lifetime flow ledger owned by the stack (survives this connection).
  EtherStack::TcpFlowLedger* ledger_ = nullptr;

  // Per-flow gauges (only when StackParams::per_flow_metrics).
  Gauge* g_cwnd_ = nullptr;
  Gauge* g_ssthresh_ = nullptr;
  Gauge* g_srtt_ = nullptr;
  Gauge* g_retransmits_ = nullptr;
  Gauge* g_fast_retransmits_ = nullptr;
};

}  // namespace kite

#endif  // SRC_NET_TCP_H_
