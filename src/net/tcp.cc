#include "src/net/tcp.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {
namespace {

// Signed distance for wrap-safe sequence comparison.
int32_t SeqDiff(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b); }

constexpr uint32_t kMss = static_cast<uint32_t>(kTcpMss);

// Congestion and retransmission (RFC 5681/6298), with the simulator's
// historical 10 ms initial RTO and a low floor because simulated RTTs are
// microseconds, not the internet's milliseconds.
constexpr uint32_t kInitialCwndSegments = 10;    // RFC 6928 IW10.
constexpr uint32_t kDupackThreshold = 3;         // Fast retransmit trigger.
constexpr SimDuration kInitialRto = Millis(10);  // Before the first RTT sample.
constexpr SimDuration kMinRto = Millis(1);       // Floor for the computed RTO.
constexpr SimDuration kMaxRto = Seconds(4);      // Exponential-backoff ceiling.
constexpr uint32_t kMaxRetransmits = 30;         // Consecutive timeouts before abort.

}  // namespace

TcpConn::TcpConn(EtherStack* stack, Ipv4Addr peer_ip, uint16_t peer_port,
                 uint16_t local_port)
    : stack_(stack), peer_ip_(peer_ip), peer_port_(peer_port), local_port_(local_port) {
  // Deterministic ISN derived from the 4-tuple keeps runs reproducible.
  snd_una_ = snd_nxt_ = snd_max_ =
      (static_cast<uint32_t>(local_port) << 16) ^ peer_ip.value ^ 0x1d073c9u;
  cwnd_ = kInitialCwndSegments * kMss;
  rto_ = kInitialRto;
  ledger_ = stack_->LedgerFor(peer_ip_, peer_port_, local_port_);
  if (stack_->params().per_flow_metrics && stack_->params().metrics != nullptr) {
    MetricRegistry* reg = stack_->params().metrics;
    const std::string& dom = stack_->params().metrics_domain;
    const std::string dev =
        StrFormat("tcp:%s:%u-%u", peer_ip_.ToString().c_str(),
                  static_cast<unsigned>(peer_port_), static_cast<unsigned>(local_port_));
    g_cwnd_ = reg->gauge(dom, dev, "cwnd_bytes");
    g_ssthresh_ = reg->gauge(dom, dev, "ssthresh_bytes");
    g_srtt_ = reg->gauge(dom, dev, "srtt_ns");
    g_retransmits_ = reg->gauge(dom, dev, "retransmits");
    g_fast_retransmits_ = reg->gauge(dom, dev, "fast_retransmits");
    UpdateFlowGauges();
  }
}

TcpConn::~TcpConn() { *alive_ = false; }

uint32_t TcpConn::FlightSize() const {
  return static_cast<uint32_t>(SeqDiff(snd_nxt_, snd_una_));
}

void TcpConn::StartActiveOpen(std::function<void(TcpConn*)> connected_cb) {
  connected_cb_ = std::move(connected_cb);
  state_ = TcpState::kSynSent;
  TcpSegment syn;
  syn.syn = true;
  syn.seq = snd_nxt_;
  ++snd_nxt_;
  snd_max_ = snd_nxt_;
  EmitSegment(std::move(syn));
  ArmRto();
}

void TcpConn::StartPassiveOpen(const TcpSegment& syn, std::function<void(TcpConn*)> accept_cb) {
  KITE_CHECK(syn.syn && !syn.ack_flag);
  connected_cb_ = std::move(accept_cb);
  state_ = TcpState::kSynReceived;
  rcv_nxt_ = syn.seq + 1;
  TcpSegment synack;
  synack.syn = true;
  synack.ack_flag = true;
  synack.seq = snd_nxt_;
  synack.ack = rcv_nxt_;
  ++snd_nxt_;
  snd_max_ = snd_nxt_;
  EmitSegment(std::move(synack));
  ArmRto();
}

void TcpConn::Send(Buffer data) {
  KITE_CHECK(!fin_pending_ && !fin_sent_) << "Send after Close";
  if (state_ == TcpState::kClosed) {
    return;
  }
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  if (state_ == TcpState::kEstablished) {
    PumpSend();
  }
}

void TcpConn::Close() {
  if (state_ == TcpState::kClosed || fin_pending_ || fin_sent_) {
    return;
  }
  fin_pending_ = true;
  if (state_ == TcpState::kEstablished) {
    PumpSend();
  }
}

void TcpConn::Abort() {
  if (state_ == TcpState::kClosed) {
    return;
  }
  // The RST must pass the peer's RFC 5961-style checks: a SYN_SENT peer
  // wants its sequence echoed in the ack, an established peer wants an
  // in-window sequence. Use the highest sequence ever sent — after a
  // go-back-N rewind snd_nxt_ can sit below the peer's rcv_nxt_.
  TcpSegment rst;
  rst.rst = true;
  rst.ack_flag = true;
  rst.ack = rcv_nxt_;
  rst.seq = snd_max_ + (fin_ever_sent_ ? 1 : 0);
  EmitSegment(std::move(rst));
  EnterClosed(/*deliver_close=*/false);
}

void TcpConn::OnSegment(const TcpSegment& seg) {
  if (state_ == TcpState::kClosed) {
    return;
  }
  if (stack_->tcp_counters_.segs_in != nullptr) {
    stack_->tcp_counters_.segs_in->Inc();
  }
  if (seg.rst) {
    // A reset must prove it belongs to this flow (RFC 5961 flavour): before
    // the handshake completes the proof is the echoed ack; after, the
    // sequence must land inside the receive window. Blind/fuzzed RSTs fail
    // both and are dropped.
    if (state_ == TcpState::kSynSent) {
      if (!seg.ack_flag || seg.ack != snd_nxt_) {
        return;
      }
    } else if (static_cast<uint32_t>(seg.seq - rcv_nxt_) >= kTcpWindowBytes) {
      return;
    }
    EnterClosed(/*deliver_close=*/true);
    return;
  }

  // --- Handshake progression. ---
  if (state_ == TcpState::kSynSent) {
    if (seg.syn && seg.ack_flag && seg.ack == snd_nxt_) {
      rcv_nxt_ = seg.seq + 1;
      snd_una_ = seg.ack;
      state_ = TcpState::kEstablished;
      rto_retries_ = 0;
      rto_armed_ = false;
      SendAckNow();
      if (connected_cb_) {
        auto cb = std::move(connected_cb_);
        connected_cb_ = nullptr;
        cb(this);
      }
      PumpSend();
    }
    return;
  }
  if (state_ == TcpState::kSynReceived) {
    if (seg.ack_flag && seg.ack == snd_nxt_) {
      snd_una_ = seg.ack;
      state_ = TcpState::kEstablished;
      rto_retries_ = 0;
      rto_armed_ = false;
      if (connected_cb_) {
        auto cb = std::move(connected_cb_);
        connected_cb_ = nullptr;
        cb(this);
      }
      // Fall through: the ACK may carry data.
    } else {
      return;
    }
  }

  if (seg.ack_flag) {
    OnAck(seg);
    if (state_ == TcpState::kClosed) {
      return;
    }
  }

  if (!seg.payload.empty() || seg.fin) {
    if (!HandleData(seg)) {
      return;  // A callback closed us.
    }
  }

  if (fin_acked_ && peer_fin_received_ && state_ != TcpState::kClosed) {
    EnterClosed(/*deliver_close=*/true);
  }
}

void TcpConn::OnAck(const TcpSegment& seg) {
  // A rewound sender (go-back-N) may be acked past snd_nxt_ when the receiver
  // already held the tail out of order — accept anything up to snd_max_, plus
  // the FIN octet if a FIN was *ever* sent: the rewind clears fin_sent_, but
  // a receiver holding tail + FIN still acks past it, and rejecting that ack
  // would livelock the connection into an RTO-retry abort.
  const uint32_t snd_limit = snd_max_ + (fin_ever_sent_ ? 1 : 0);
  const int32_t acked = SeqDiff(seg.ack, snd_una_);
  if (acked > 0 && SeqDiff(seg.ack, snd_limit) <= 0) {
    if (SeqDiff(seg.ack, snd_nxt_) > 0) {
      snd_nxt_ = seg.ack;
    }
    uint32_t fin_seq_bump = 0;
    if (fin_ever_sent_ && seg.ack == snd_limit) {
      fin_acked_ = true;
      // A rewound FIN acked before its re-emission counts as sent again.
      fin_sent_ = true;
      if (state_ == TcpState::kEstablished) {
        state_ = TcpState::kFinSent;
      }
      fin_seq_bump = 1;
    }
    const size_t payload_acked = static_cast<size_t>(acked) - fin_seq_bump;
    KITE_CHECK(payload_acked <= send_buf_.size());
    send_buf_.erase(send_buf_.begin(), send_buf_.begin() + payload_acked);
    snd_una_ = seg.ack;
    bytes_acked_ += payload_acked;
    ledger_->acked_in += payload_acked;
    if (stack_->tcp_counters_.bytes_acked != nullptr) {
      stack_->tcp_counters_.bytes_acked->Add(payload_acked);
    }

    // RTT sample once the probe's sequence range is fully acknowledged.
    // Karn's rule: any retransmission disarms the probe before this.
    if (rtt_probe_armed_ && SeqDiff(snd_una_, rtt_probe_end_) >= 0) {
      rtt_probe_armed_ = false;
      UpdateRtt(stack_->executor()->Now() - rtt_probe_sent_);
    }

    // Congestion response (RFC 5681; NewReno partial-ACK handling, RFC 6582).
    if (in_fast_recovery_) {
      if (SeqDiff(seg.ack, recover_) >= 0) {
        // Full ACK: every byte outstanding at loss detection is in; deflate.
        in_fast_recovery_ = false;
        dup_acks_ = 0;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK: the next hole is lost too — repair it immediately,
        // deflating cwnd by the amount acknowledged (plus one MSS back).
        RetransmitHead();
        const uint32_t deflate = static_cast<uint32_t>(
            std::min<size_t>(payload_acked, cwnd_));
        cwnd_ = std::max(cwnd_ - deflate + kMss, 2 * kMss);
      }
    } else {
      dup_acks_ = 0;
      if (cwnd_ < ssthresh_) {
        // Slow start: one MSS per MSS acknowledged.
        cwnd_ += static_cast<uint32_t>(std::min<size_t>(payload_acked, kMss));
      } else {
        // Congestion avoidance: ~one MSS per RTT.
        cwnd_ += std::max<uint32_t>(1, kMss * kMss / cwnd_);
      }
      cwnd_ = std::min(cwnd_, kTcpWindowBytes);
    }

    // New data acknowledged: RTO comes back to the estimate (backoff ends,
    // the consecutive-retry count starts over) and the timer restarts for
    // whatever is still in flight.
    rto_retries_ = 0;
    RecomputeRto();
    rto_armed_ = false;
    if (SeqDiff(snd_nxt_, snd_una_) > 0) {
      ArmRto();
    }
    UpdateFlowGauges();
    PumpSend();
  } else if (acked == 0 && seg.payload.empty() && !seg.syn && !seg.fin &&
             SeqDiff(snd_nxt_, snd_una_) > 0) {
    OnDupAck();
  }
  peer_window_ = kTcpWindowBytes;  // Fixed-window model.
}

void TcpConn::OnDupAck() {
  ++dup_acks_;
  if (in_fast_recovery_) {
    // Each further dup-ACK means another segment left the network: inflate.
    cwnd_ += kMss;
    UpdateFlowGauges();
    PumpSend();
    return;
  }
  if (dup_acks_ == kDupackThreshold) {
    // Fast retransmit: the head segment is presumed lost.
    ssthresh_ = std::max(FlightSize() / 2, 2 * kMss);
    RetransmitHead();
    ++fast_retransmits_;
    if (stack_->tcp_counters_.fast_retransmits != nullptr) {
      stack_->tcp_counters_.fast_retransmits->Inc();
    }
    in_fast_recovery_ = true;
    recover_ = snd_nxt_;
    cwnd_ = ssthresh_ + 3 * kMss;
    rto_armed_ = false;
    ArmRto();
    UpdateFlowGauges();
  }
}

void TcpConn::RetransmitHead() {
  rtt_probe_armed_ = false;  // Karn: samples spanning a retransmit are invalid.
  if (stack_->tcp_counters_.retransmits != nullptr) {
    stack_->tcp_counters_.retransmits->Inc();
  }
  const size_t len = std::min(kTcpMss, send_buf_.size());
  if (len == 0) {
    // Only our FIN is outstanding.
    if (fin_sent_ && !fin_acked_) {
      TcpSegment fin;
      fin.fin = true;
      fin.ack_flag = true;
      fin.seq = snd_una_;
      fin.ack = rcv_nxt_;
      EmitSegment(std::move(fin));
    }
    return;
  }
  TcpSegment seg;
  seg.seq = snd_una_;
  seg.ack_flag = true;
  seg.ack = rcv_nxt_;
  seg.payload.assign(send_buf_.begin(), send_buf_.begin() + len);
  EmitSegment(std::move(seg));
}

bool TcpConn::HandleData(const TcpSegment& seg) {
  const uint32_t len = static_cast<uint32_t>(seg.payload.size());
  const uint32_t seq_end = seg.seq + len;
  const uint32_t seq_end_fin = seq_end + (seg.fin ? 1 : 0);
  if (SeqDiff(seq_end_fin, rcv_nxt_) <= 0) {
    // Entirely old: a duplicate retransmission (or already-consumed FIN).
    // Re-ACK so the sender's cumulative picture catches up.
    SendAckNow();
    return true;
  }
  if (SeqDiff(seg.seq, rcv_nxt_) > 0) {
    // A hole precedes this segment: buffer it (bounded by the receive
    // window) and ACK immediately — this is what generates the duplicate
    // ACKs fast retransmit counts.
    if (ooo_bytes_ + len <= kTcpWindowBytes) {
      auto [it, inserted] = ooo_.try_emplace(seg.seq);
      if (inserted) {
        it->second.data = seg.payload;
        ooo_bytes_ += len;
      }
      // The FIN rides on the buffered copy only when both copies agree where
      // the stream ends: a forged same-seq segment with a different length
      // must not relocate the FIN onto the buffered entry's shorter end.
      if (seg.fin && it->second.data.size() == seg.payload.size()) {
        it->second.fin = true;
      }
    }
    SendAckNow();
    return true;
  }

  // In order (possibly overlapping an already-received prefix).
  const bool had_hole = !ooo_.empty();
  const bool fin_before = peer_fin_received_;
  const uint32_t skip = static_cast<uint32_t>(SeqDiff(rcv_nxt_, seg.seq));
  if (len > skip) {
    DeliverInOrder(std::span<const uint8_t>(seg.payload.data() + skip, len - skip));
    if (state_ == TcpState::kClosed) {
      return false;
    }
  }
  if (seg.fin && !peer_fin_received_ && rcv_nxt_ == seq_end) {
    HandlePeerFin();
  }
  if (state_ != TcpState::kClosed) {
    DrainOoo();
  }
  if (state_ == TcpState::kClosed) {
    return false;
  }
  if (peer_fin_received_ && !fin_before) {
    // HandlePeerFin already acknowledged everything through the FIN.
    return true;
  }
  if (had_hole) {
    // Filling (or extending toward) a hole: ACK immediately (RFC 5681 §4.2).
    SendAckNow();
  } else if (ack_pending_segments_ >= 2) {
    SendAckNow();
  } else {
    ScheduleDelayedAck();
  }
  return true;
}

void TcpConn::DeliverInOrder(std::span<const uint8_t> payload) {
  rcv_nxt_ += static_cast<uint32_t>(payload.size());
  ledger_->delivered += payload.size();
  if (stack_->tcp_counters_.bytes_delivered != nullptr) {
    stack_->tcp_counters_.bytes_delivered->Add(payload.size());
  }
  ++ack_pending_segments_;
  if (data_cb_) {
    data_cb_(payload);
  }
}

void TcpConn::DrainOoo() {
  while (!ooo_.empty() && state_ != TcpState::kClosed) {
    auto it = ooo_.begin();
    if (SeqDiff(it->first, rcv_nxt_) > 0) {
      return;  // Still a hole before the first buffered segment.
    }
    const uint32_t seq = it->first;
    OooSeg buffered = std::move(it->second);
    ooo_.erase(it);
    ooo_bytes_ -= buffered.data.size();
    const uint32_t end = seq + static_cast<uint32_t>(buffered.data.size());
    if (SeqDiff(end, rcv_nxt_) > 0) {
      const uint32_t skip = static_cast<uint32_t>(SeqDiff(rcv_nxt_, seq));
      DeliverInOrder(std::span<const uint8_t>(buffered.data.data() + skip,
                                              buffered.data.size() - skip));
      if (state_ == TcpState::kClosed) {
        return;
      }
    }
    if (buffered.fin && !peer_fin_received_ && rcv_nxt_ == end) {
      HandlePeerFin();
    }
  }
}

void TcpConn::HandlePeerFin() {
  peer_fin_received_ = true;
  ++rcv_nxt_;
  SendAckNow();
  if (fin_acked_) {
    EnterClosed(/*deliver_close=*/true);
  } else if (!fin_sent_) {
    // Peer closed first: tell the application.
    if (close_cb_ && !close_delivered_) {
      close_delivered_ = true;
      close_cb_();
    }
  }
}

void TcpConn::PumpSend() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kFinSent) {
    return;
  }
  const uint32_t wnd = std::min(peer_window_, cwnd_);
  const uint32_t fin_adjust = fin_sent_ ? 1 : 0;
  uint32_t in_flight = static_cast<uint32_t>(SeqDiff(snd_nxt_, snd_una_)) - fin_adjust;
  size_t send_offset = in_flight;  // Bytes of send_buf_ already in flight.
  bool sent_any = false;
  while (send_offset < send_buf_.size() && in_flight < wnd && !fin_sent_) {
    const size_t len =
        std::min({kTcpMss, send_buf_.size() - send_offset,
                  static_cast<size_t>(wnd - in_flight)});
    if (len == 0) {
      break;
    }
    TcpSegment seg;
    seg.seq = snd_nxt_;
    seg.ack_flag = true;
    seg.ack = rcv_nxt_;
    seg.payload.assign(send_buf_.begin() + send_offset,
                       send_buf_.begin() + send_offset + len);
    const uint32_t seq_end = snd_nxt_ + static_cast<uint32_t>(len);
    if (SeqDiff(snd_nxt_, snd_max_) < 0) {
      // Go-back-N resend of bytes below snd_max_.
      rtt_probe_armed_ = false;  // Karn.
      if (stack_->tcp_counters_.retransmits != nullptr) {
        stack_->tcp_counters_.retransmits->Inc();
      }
    } else if (!rtt_probe_armed_) {
      // Fresh data with no probe outstanding: time this segment.
      rtt_probe_armed_ = true;
      rtt_probe_end_ = seq_end;
      rtt_probe_sent_ = stack_->executor()->Now();
    }
    const int32_t fresh = SeqDiff(seq_end, snd_max_);
    if (fresh > 0) {
      ledger_->payload_sent +=
          std::min<size_t>(static_cast<size_t>(fresh), len);
      snd_max_ = seq_end;
    }
    snd_nxt_ = seq_end;
    send_offset += len;
    in_flight += static_cast<uint32_t>(len);
    EmitSegment(std::move(seg));
    sent_any = true;
    // Piggybacked ACK: clear any pending delayed ACK.
    ack_pending_segments_ = 0;
  }
  if (fin_pending_ && !fin_sent_ && send_offset >= send_buf_.size()) {
    TcpSegment fin;
    fin.fin = true;
    fin.ack_flag = true;
    fin.seq = snd_nxt_;
    fin.ack = rcv_nxt_;
    ++snd_nxt_;
    fin_sent_ = true;
    fin_ever_sent_ = true;
    state_ = TcpState::kFinSent;
    EmitSegment(std::move(fin));
    sent_any = true;
  }
  if (sent_any) {
    ArmRto();
  }
}

void TcpConn::EmitSegment(TcpSegment&& seg) {
  seg.src_port = local_port_;
  seg.dst_port = peer_port_;
  seg.window = std::min<uint32_t>(kTcpWindowBytes, 0xffff);
  if (stack_->tcp_counters_.segs_out != nullptr) {
    stack_->tcp_counters_.segs_out->Inc();
  }
  Ipv4Packet packet;
  packet.src = stack_->ip();
  packet.dst = peer_ip_;
  packet.proto = kIpProtoTcp;
  packet.l4 = std::move(seg);
  stack_->SendIp(std::move(packet));
}

void TcpConn::SendAckNow() {
  ack_pending_segments_ = 0;
  TcpSegment ack;
  ack.ack_flag = true;
  ack.seq = snd_nxt_;
  ack.ack = rcv_nxt_;
  EmitSegment(std::move(ack));
}

void TcpConn::ScheduleDelayedAck() {
  if (delayed_ack_armed_) {
    return;
  }
  delayed_ack_armed_ = true;
  stack_->executor()->PostAfter(Micros(100), KITE_POST_SITE("tcp/delayed-ack"),
                                [this, alive = alive_] {
    if (!*alive) {
      return;
    }
    delayed_ack_armed_ = false;
    if (state_ != TcpState::kClosed && ack_pending_segments_ > 0) {
      SendAckNow();
    }
  });
}

void TcpConn::ArmRto() {
  ++rto_generation_;
  rto_armed_ = true;
  stack_->executor()->PostAfter(rto_, KITE_POST_SITE("tcp/rto"),
                                [this, alive = alive_, gen = rto_generation_] {
    if (*alive) {
      OnRto(gen);
    }
  });
}

void TcpConn::OnRto(uint64_t generation) {
  if (generation != rto_generation_ || !rto_armed_ || state_ == TcpState::kClosed) {
    return;
  }
  rto_armed_ = false;
  ++retransmits_;
  ++rto_retries_;
  if (stack_->tcp_counters_.rto_fires != nullptr) {
    stack_->tcp_counters_.rto_fires->Inc();
  }
  if (rto_retries_ > kMaxRetransmits) {
    Abort();
    if (close_cb_ && !close_delivered_) {
      close_delivered_ = true;
      close_cb_();
    }
    return;
  }
  // Timeout: collapse to one segment and restart slow start (RFC 5681 §3.1);
  // back the timer off exponentially until new data is acknowledged (Karn).
  if (state_ == TcpState::kEstablished || state_ == TcpState::kFinSent) {
    ssthresh_ = std::max(FlightSize() / 2, 2 * kMss);
    cwnd_ = kMss;
    in_fast_recovery_ = false;
    dup_acks_ = 0;
  }
  rto_ = std::min(rto_ * 2, kMaxRto);
  rtt_probe_armed_ = false;
  UpdateFlowGauges();
  // Go-back-N: rewind snd_nxt to the last acknowledged point and resend.
  switch (state_) {
    case TcpState::kSynSent: {
      TcpSegment syn;
      syn.syn = true;
      syn.seq = snd_una_;
      EmitSegment(std::move(syn));
      ArmRto();
      break;
    }
    case TcpState::kSynReceived: {
      TcpSegment synack;
      synack.syn = true;
      synack.ack_flag = true;
      synack.seq = snd_una_;
      synack.ack = rcv_nxt_;
      EmitSegment(std::move(synack));
      ArmRto();
      break;
    }
    case TcpState::kEstablished:
    case TcpState::kFinSent: {
      snd_nxt_ = snd_una_;
      if (fin_sent_ && !fin_acked_) {
        fin_sent_ = false;  // FIN will be re-emitted by PumpSend.
        state_ = TcpState::kEstablished;
      }
      PumpSend();
      break;
    }
    case TcpState::kClosed:
      break;
  }
}

void TcpConn::UpdateRtt(SimDuration sample) {
  if (!srtt_valid_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    srtt_valid_ = true;
  } else {
    const SimDuration err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (rttvar_ * 3 + err) / 4;
    srtt_ = (srtt_ * 7 + sample) / 8;
  }
}

void TcpConn::RecomputeRto() {
  if (!srtt_valid_) {
    rto_ = kInitialRto;
    return;
  }
  SimDuration var = rttvar_ * 4;
  if (var < Micros(1)) {
    var = Micros(1);
  }
  rto_ = std::clamp(srtt_ + var, kMinRto, kMaxRto);
}

void TcpConn::UpdateFlowGauges() {
  if (g_cwnd_ == nullptr) {
    return;
  }
  g_cwnd_->Set(cwnd_);
  g_ssthresh_->Set(ssthresh_);
  g_srtt_->Set(static_cast<double>(srtt_.ns()));
  g_retransmits_->Set(retransmits_);
  g_fast_retransmits_->Set(fast_retransmits_);
}

void TcpConn::EnterClosed(bool deliver_close) {
  if (state_ == TcpState::kClosed) {
    return;
  }
  state_ = TcpState::kClosed;
  ++rto_generation_;  // Invalidate outstanding timers.
  rto_armed_ = false;
  ooo_.clear();
  ooo_bytes_ = 0;
  UpdateFlowGauges();
  if (deliver_close && close_cb_ && !close_delivered_) {
    close_delivered_ = true;
    close_cb_();
  }
  stack_->RemoveConn(this);
}

}  // namespace kite
