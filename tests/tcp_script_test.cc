// Table-driven TCP protocol tests.
//
// Each test is a script: a table of rows replayed against a single
// EtherStack whose wire is a capturing fake interface. Rows inject
// segments (kIn), advance simulated time (kAdvance), and assert on the
// exact segments the stack emits (kExpectOut) and on connection state and
// congestion variables between steps. Sequence and ack numbers in rows are
// *relative*: seq counts from the emitting side's ISN, ack from the other
// side's ISN, so scripts read like RFC ladder diagrams instead of raw
// 32-bit sequence numbers.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "src/net/netif.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"
#include "src/sim/executor.h"

namespace kite {
namespace {

const Ipv4Addr kLocalIp = Ipv4Addr::FromOctets(10, 0, 0, 1);
const Ipv4Addr kPeerIp = Ipv4Addr::FromOctets(10, 0, 0, 2);
constexpr uint16_t kPeerPort = 80;
constexpr uint32_t kPeerIss = 10000;  // Scripted peer's ISN (our choice).
constexpr int64_t kMssBytes = static_cast<int64_t>(kTcpMss);

// A wire that goes nowhere: captures every TCP segment the stack emits so
// the script can assert on it.
class ScriptIf : public NetIf {
 public:
  ScriptIf() : NetIf("script0", MacAddr::FromId(1)) { SetUp(true); }

  void Output(EthernetFrame frame) override {
    const Ipv4Packet* ip = frame.ip();
    ASSERT_NE(ip, nullptr) << "stack emitted a non-IP frame (ARP not seeded?)";
    const TcpSegment* tcp = std::get_if<TcpSegment>(&ip->l4);
    ASSERT_NE(tcp, nullptr) << "stack emitted non-TCP traffic";
    captured_.push_back(*tcp);
  }

  std::deque<TcpSegment> captured_;
};

enum class Op {
  kIn,          // Inject a segment from the scripted peer.
  kSend,        // conn->Send(payload bytes).
  kClose,       // conn->Close().
  kAdvance,     // Advance simulated time by `dur`.
  kExpectOut,   // Next captured segment matches flags/seq/ack/payload.
  kExpectNoOut,     // Capture queue is empty.
  kExpectState,     // conn->state() == `state`.
  kExpectClosed,    // Close callback fired (conn may be destroyed).
  kExpectDelivered,  // Total in-order bytes delivered == `payload`.
  kExpectCwnd,       // conn->cwnd() == `payload`.
  kExpectSsthresh,   // conn->ssthresh() == `payload`.
  kExpectRecovery,   // conn->in_fast_recovery() == (`payload` != 0).
  kExpectFastRtx,    // conn->fast_retransmits() == `payload`.
  kExpectRtoFires,   // conn->retransmits() == `payload`.
  kExpectRto,        // conn->rto() == `dur`.
  kExpectSrtt,       // conn->srtt() == `dur`.
};

struct Row {
  Op op;
  const char* note = "";
  // Segment shape for kIn / kExpectOut. seq/ack are ISN-relative; -1 in an
  // expectation means "don't check".
  bool syn = false;
  bool fin = false;
  bool rst = false;
  bool ack_flag = true;
  int64_t seq = -1;
  int64_t ack = -1;
  int64_t payload = -1;
  SimDuration dur{};
  TcpState state = TcpState::kClosed;
};

class TcpScriptTest : public ::testing::Test {
 protected:
  TcpScriptTest() : stack_(&ex_, nullptr, &wire_) {
    stack_.ConfigureIp(kLocalIp);
    stack_.AddArpEntry(kPeerIp, MacAddr::FromId(2));
  }

  // Active open; the SYN is captured synchronously.
  void Connect() {
    conn_ = stack_.ConnectTcp(kPeerIp, kPeerPort,
                              [this](TcpConn*) { connected_ = true; });
    AttachCallbacks(conn_);
  }

  void Listen() {
    stack_.ListenTcp(kPeerPort, [this](TcpConn* conn) {
      conn_ = conn;
      connected_ = true;
      AttachCallbacks(conn);
    });
  }

  void AttachCallbacks(TcpConn* conn) {
    conn->SetDataCallback([this](std::span<const uint8_t> d) {
      delivered_.insert(delivered_.end(), d.begin(), d.end());
    });
    conn->SetCloseCallback([this] { closed_ = true; });
  }

  // The standard three-way handshake preamble for active-open scripts.
  void Establish() {
    Connect();
    Run({
        {.op = Op::kExpectOut, .note = "SYN", .syn = true, .ack_flag = false,
         .seq = 0, .payload = 0},
        {.op = Op::kIn, .note = "SYN-ACK", .syn = true, .seq = 0, .ack = 1},
        {.op = Op::kExpectOut, .note = "handshake ACK", .seq = 1, .ack = 1,
         .payload = 0},
        {.op = Op::kExpectState, .note = "established",
         .state = TcpState::kEstablished},
    });
  }

  void Inject(const Row& row) {
    TcpSegment seg;
    seg.src_port = kPeerPort;
    seg.dst_port = conn_ != nullptr ? conn_->local_port() : peer_dst_port_;
    seg.syn = row.syn;
    seg.fin = row.fin;
    seg.rst = row.rst;
    seg.ack_flag = row.ack_flag;
    seg.seq = kPeerIss + static_cast<uint32_t>(row.seq);
    if (row.ack_flag && row.ack >= 0) {
      seg.ack = iss_ + static_cast<uint32_t>(row.ack);
    }
    seg.window = kTcpWindowBytes;
    if (row.payload > 0) {
      seg.payload.assign(static_cast<size_t>(row.payload), 0x61);
    }
    Ipv4Packet packet;
    packet.src = kPeerIp;
    packet.dst = kLocalIp;
    packet.proto = kIpProtoTcp;
    packet.l4 = std::move(seg);
    EthernetFrame frame;
    frame.dst = wire_.mac();
    frame.src = MacAddr::FromId(2);
    frame.payload = std::move(packet);
    wire_.InjectInput(frame);
  }

  void ExpectOut(const Row& row) {
    ASSERT_FALSE(wire_.captured_.empty()) << "no segment emitted: " << row.note;
    TcpSegment seg = std::move(wire_.captured_.front());
    wire_.captured_.pop_front();
    // First expectation with a concrete seq pins our ISN; every later row is
    // checked against it.
    if (!iss_known_ && row.seq >= 0) {
      iss_ = seg.seq - static_cast<uint32_t>(row.seq);
      iss_known_ = true;
    }
    EXPECT_EQ(seg.syn, row.syn) << row.note;
    EXPECT_EQ(seg.fin, row.fin) << row.note;
    EXPECT_EQ(seg.rst, row.rst) << row.note;
    EXPECT_EQ(seg.ack_flag, row.ack_flag) << row.note;
    if (row.seq >= 0) {
      EXPECT_EQ(seg.seq, iss_ + static_cast<uint32_t>(row.seq)) << row.note;
    }
    if (row.ack >= 0) {
      EXPECT_EQ(seg.ack, kPeerIss + static_cast<uint32_t>(row.ack)) << row.note;
    }
    if (row.payload >= 0) {
      EXPECT_EQ(seg.payload.size(), static_cast<size_t>(row.payload)) << row.note;
    }
  }

  void Run(const std::vector<Row>& rows) {
    for (const Row& row : rows) {
      switch (row.op) {
        case Op::kIn:
          Inject(row);
          break;
        case Op::kSend:
          conn_->Send(Buffer(static_cast<size_t>(row.payload), 0x42));
          break;
        case Op::kClose:
          conn_->Close();
          break;
        case Op::kAdvance:
          ex_.RunFor(row.dur);
          break;
        case Op::kExpectOut:
          ExpectOut(row);
          break;
        case Op::kExpectNoOut:
          EXPECT_TRUE(wire_.captured_.empty())
              << row.note << ": unexpected segment on the wire";
          break;
        case Op::kExpectState:
          EXPECT_EQ(conn_->state(), row.state) << row.note;
          break;
        case Op::kExpectClosed:
          EXPECT_TRUE(closed_) << row.note;
          break;
        case Op::kExpectDelivered:
          EXPECT_EQ(delivered_.size(), static_cast<size_t>(row.payload)) << row.note;
          break;
        case Op::kExpectCwnd:
          EXPECT_EQ(conn_->cwnd(), static_cast<uint32_t>(row.payload)) << row.note;
          break;
        case Op::kExpectSsthresh:
          EXPECT_EQ(conn_->ssthresh(), static_cast<uint32_t>(row.payload)) << row.note;
          break;
        case Op::kExpectRecovery:
          EXPECT_EQ(conn_->in_fast_recovery(), row.payload != 0) << row.note;
          break;
        case Op::kExpectFastRtx:
          EXPECT_EQ(conn_->fast_retransmits(), static_cast<uint32_t>(row.payload))
              << row.note;
          break;
        case Op::kExpectRtoFires:
          EXPECT_EQ(conn_->retransmits(), static_cast<uint32_t>(row.payload))
              << row.note;
          break;
        case Op::kExpectRto:
          EXPECT_EQ(conn_->rto().ns(), row.dur.ns()) << row.note;
          break;
        case Op::kExpectSrtt:
          EXPECT_EQ(conn_->srtt().ns(), row.dur.ns()) << row.note;
          break;
      }
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }

  Executor ex_;
  ScriptIf wire_;
  EtherStack stack_;
  TcpConn* conn_ = nullptr;
  uint16_t peer_dst_port_ = kPeerPort;  // Listener port for passive scripts.
  uint32_t iss_ = 0;
  bool iss_known_ = false;
  bool connected_ = false;
  bool closed_ = false;
  Buffer delivered_;
};

TEST_F(TcpScriptTest, ActiveHandshake) {
  Connect();
  Run({
      {.op = Op::kExpectOut, .note = "SYN out", .syn = true, .ack_flag = false,
       .seq = 0, .payload = 0},
      {.op = Op::kExpectState, .note = "awaiting SYN-ACK",
       .state = TcpState::kSynSent},
      {.op = Op::kIn, .note = "SYN-ACK in", .syn = true, .seq = 0, .ack = 1},
      {.op = Op::kExpectOut, .note = "handshake ACK", .seq = 1, .ack = 1,
       .payload = 0},
      {.op = Op::kExpectState, .note = "established",
       .state = TcpState::kEstablished},
      {.op = Op::kExpectNoOut, .note = "quiet after handshake"},
  });
  EXPECT_TRUE(connected_);
}

TEST_F(TcpScriptTest, PassiveHandshake) {
  Listen();
  Run({
      {.op = Op::kIn, .note = "SYN in", .syn = true, .ack_flag = false, .seq = 0},
      {.op = Op::kExpectOut, .note = "SYN-ACK out", .syn = true, .seq = 0,
       .ack = 1, .payload = 0},
      {.op = Op::kIn, .note = "handshake ACK in", .seq = 1, .ack = 1},
      {.op = Op::kExpectState, .note = "established",
       .state = TcpState::kEstablished},
  });
  EXPECT_TRUE(connected_);
}

TEST_F(TcpScriptTest, InOrderDataIsDelayAcked) {
  Establish();
  Run({
      {.op = Op::kIn, .note = "one segment", .seq = 1, .ack = 1, .payload = 1000},
      {.op = Op::kExpectNoOut, .note = "ACK is delayed"},
      {.op = Op::kAdvance, .dur = Micros(100)},
      {.op = Op::kExpectOut, .note = "delayed ACK", .seq = 1, .ack = 1001,
       .payload = 0},
      {.op = Op::kExpectDelivered, .payload = 1000},
  });
}

TEST_F(TcpScriptTest, SecondSegmentForcesImmediateAck) {
  Establish();
  Run({
      {.op = Op::kIn, .note = "segment 1", .seq = 1, .ack = 1, .payload = 1000},
      {.op = Op::kExpectNoOut, .note = "first ACK delayed"},
      {.op = Op::kIn, .note = "segment 2", .seq = 1001, .ack = 1, .payload = 1000},
      {.op = Op::kExpectOut, .note = "ack-every-2 fires now", .seq = 1,
       .ack = 2001, .payload = 0},
      {.op = Op::kAdvance, .dur = Micros(100)},
      {.op = Op::kExpectNoOut, .note = "delayed timer finds nothing pending"},
      {.op = Op::kExpectDelivered, .payload = 2000},
  });
}

TEST_F(TcpScriptTest, DuplicateSegmentReAcksImmediately) {
  Establish();
  Run({
      {.op = Op::kIn, .note = "data", .seq = 1, .ack = 1, .payload = 1000},
      {.op = Op::kExpectNoOut, .note = "delayed"},
      {.op = Op::kIn, .note = "same data again", .seq = 1, .ack = 1, .payload = 1000},
      {.op = Op::kExpectOut, .note = "old data re-ACKed at once", .seq = 1,
       .ack = 1001, .payload = 0},
      {.op = Op::kExpectDelivered, .note = "no double delivery", .payload = 1000},
  });
}

TEST_F(TcpScriptTest, ReorderedSegmentsAckImmediatelyAndReassemble) {
  Establish();
  Run({
      {.op = Op::kIn, .note = "second segment arrives first", .seq = 1001,
       .ack = 1, .payload = 1000},
      {.op = Op::kExpectOut, .note = "immediate dup-ACK at the hole", .seq = 1,
       .ack = 1, .payload = 0},
      {.op = Op::kExpectDelivered, .note = "held out of order", .payload = 0},
      {.op = Op::kIn, .note = "hole filled", .seq = 1, .ack = 1, .payload = 1000},
      {.op = Op::kExpectOut, .note = "immediate ACK past the reassembly",
       .seq = 1, .ack = 2001, .payload = 0},
      {.op = Op::kExpectDelivered, .note = "both delivered in order",
       .payload = 2000},
  });
}

TEST_F(TcpScriptTest, TripleDupAckTriggersFastRetransmitAndNewReno) {
  Establish();
  Run({
      // 3 MSS queued: initial cwnd (10 MSS) lets all three out at once.
      {.op = Op::kSend, .payload = 3 * kMssBytes},
      {.op = Op::kExpectOut, .note = "seg 1", .seq = 1, .ack = 1,
       .payload = kMssBytes},
      {.op = Op::kExpectOut, .note = "seg 2", .seq = 1 + kMssBytes,
       .payload = kMssBytes},
      {.op = Op::kExpectOut, .note = "seg 3", .seq = 1 + 2 * kMssBytes,
       .payload = kMssBytes},
      // Segment 1 is "lost": the peer dup-ACKs at the hole three times.
      {.op = Op::kIn, .note = "dup-ACK 1", .seq = 1, .ack = 1},
      {.op = Op::kIn, .note = "dup-ACK 2", .seq = 1, .ack = 1},
      {.op = Op::kExpectNoOut, .note = "below dup-ACK threshold"},
      {.op = Op::kIn, .note = "dup-ACK 3", .seq = 1, .ack = 1},
      {.op = Op::kExpectOut, .note = "fast retransmit of the hole", .seq = 1,
       .payload = kMssBytes},
      {.op = Op::kExpectFastRtx, .payload = 1},
      {.op = Op::kExpectRtoFires, .note = "no timeout involved", .payload = 0},
      {.op = Op::kExpectRecovery, .payload = 1},
      // ssthresh = flight/2 = 1.5 MSS, floored at 2 MSS; cwnd = ssthresh + 3.
      {.op = Op::kExpectSsthresh, .payload = 2 * kMssBytes},
      {.op = Op::kExpectCwnd, .payload = 5 * kMssBytes},
      // Partial ACK: segment 2 was lost too — NewReno repairs it now.
      {.op = Op::kIn, .note = "partial ACK", .seq = 1, .ack = 1 + kMssBytes},
      {.op = Op::kExpectOut, .note = "hole repair without new dup-ACKs",
       .seq = 1 + kMssBytes, .payload = kMssBytes},
      {.op = Op::kExpectRecovery, .payload = 1},
      // Full ACK: recovery exits, cwnd deflates to ssthresh.
      {.op = Op::kIn, .note = "full ACK", .seq = 1, .ack = 1 + 3 * kMssBytes},
      {.op = Op::kExpectRecovery, .payload = 0},
      {.op = Op::kExpectCwnd, .payload = 2 * kMssBytes},
  });
}

TEST_F(TcpScriptTest, SlowStartGrowsCwndPerAck) {
  Establish();
  Run({
      {.op = Op::kExpectCwnd, .note = "initial window", .payload = 10 * kMssBytes},
      {.op = Op::kSend, .payload = 4 * kMssBytes},
      {.op = Op::kExpectOut, .seq = 1, .payload = kMssBytes},
      {.op = Op::kExpectOut, .seq = 1 + kMssBytes, .payload = kMssBytes},
      {.op = Op::kExpectOut, .seq = 1 + 2 * kMssBytes, .payload = kMssBytes},
      {.op = Op::kExpectOut, .seq = 1 + 3 * kMssBytes, .payload = kMssBytes},
      {.op = Op::kIn, .note = "ACK 2 MSS", .seq = 1, .ack = 1 + 2 * kMssBytes},
      {.op = Op::kExpectCwnd, .note = "one MSS per ACK, not per byte",
       .payload = 11 * kMssBytes},
      {.op = Op::kIn, .note = "ACK rest", .seq = 1, .ack = 1 + 4 * kMssBytes},
      {.op = Op::kExpectCwnd, .payload = 12 * kMssBytes},
  });
}

// The adaptive-RTO regression test: timeouts collapse cwnd, double the RTO
// each time (Karn backoff), and a new cumulative ACK snaps the RTO back.
TEST_F(TcpScriptTest, TailLossBacksOffExponentially) {
  Establish();
  Run({
      {.op = Op::kSend, .payload = kMssBytes},
      {.op = Op::kExpectOut, .note = "first transmission", .seq = 1,
       .payload = kMssBytes},
      {.op = Op::kExpectRto, .note = "initial RTO (no RTT sample yet)",
       .dur = Millis(10)},
      {.op = Op::kAdvance, .dur = Millis(10)},
      {.op = Op::kExpectOut, .note = "RTO retransmission 1", .seq = 1,
       .payload = kMssBytes},
      {.op = Op::kExpectRtoFires, .payload = 1},
      {.op = Op::kExpectRto, .note = "backed off 10 -> 20", .dur = Millis(20)},
      {.op = Op::kExpectCwnd, .note = "timeout collapses to one segment",
       .payload = kMssBytes},
      {.op = Op::kAdvance, .dur = Millis(20)},
      {.op = Op::kExpectOut, .note = "RTO retransmission 2", .seq = 1,
       .payload = kMssBytes},
      {.op = Op::kExpectRto, .note = "20 -> 40", .dur = Millis(40)},
      {.op = Op::kAdvance, .dur = Millis(40)},
      {.op = Op::kExpectOut, .note = "RTO retransmission 3", .seq = 1,
       .payload = kMssBytes},
      {.op = Op::kExpectRto, .note = "40 -> 80", .dur = Millis(80)},
      {.op = Op::kExpectRtoFires, .payload = 3},
      {.op = Op::kIn, .note = "everything finally acked", .seq = 1,
       .ack = 1 + kMssBytes},
      {.op = Op::kExpectRto, .note = "new cumulative ACK cancels backoff",
       .dur = Millis(10)},
      {.op = Op::kExpectState, .state = TcpState::kEstablished},
  });
}

TEST_F(TcpScriptTest, RttSamplesDriveSrttAndRto) {
  Establish();
  Run({
      {.op = Op::kSend, .payload = kMssBytes},
      {.op = Op::kExpectOut, .seq = 1, .payload = kMssBytes},
      {.op = Op::kAdvance, .note = "2 ms RTT", .dur = Millis(2)},
      {.op = Op::kIn, .seq = 1, .ack = 1 + kMssBytes},
      // First sample: SRTT = S, RTTVAR = S/2, RTO = SRTT + 4*RTTVAR.
      {.op = Op::kExpectSrtt, .dur = Millis(2)},
      {.op = Op::kExpectRto, .dur = Millis(6)},
      {.op = Op::kSend, .payload = kMssBytes},
      {.op = Op::kExpectOut, .seq = 1 + kMssBytes, .payload = kMssBytes},
      {.op = Op::kAdvance, .note = "4 ms RTT", .dur = Millis(4)},
      {.op = Op::kIn, .seq = 1, .ack = 1 + 2 * kMssBytes},
      // RFC 6298 smoothing: RTTVAR=(3*1+2)/4=1.25ms, SRTT=(7*2+4)/8=2.25ms.
      {.op = Op::kExpectSrtt, .dur = Micros(2250)},
      {.op = Op::kExpectRto, .dur = Micros(7250)},
  });
}

TEST_F(TcpScriptTest, GracefulCloseBothDirections) {
  Establish();
  Run({
      {.op = Op::kClose},
      {.op = Op::kExpectOut, .note = "our FIN", .fin = true, .seq = 1, .ack = 1,
       .payload = 0},
      {.op = Op::kExpectState, .state = TcpState::kFinSent},
      {.op = Op::kIn, .note = "FIN acked", .seq = 1, .ack = 2},
      {.op = Op::kExpectState, .note = "await peer FIN",
       .state = TcpState::kFinSent},
      {.op = Op::kIn, .note = "peer FIN", .fin = true, .seq = 1, .ack = 2},
      {.op = Op::kExpectOut, .note = "FIN acknowledged", .seq = 2, .ack = 2,
       .payload = 0},
      {.op = Op::kExpectClosed},
  });
}

TEST_F(TcpScriptTest, BlindRstOutsideWindowIsIgnored) {
  Establish();
  Run({
      {.op = Op::kIn, .note = "RST far above the window", .rst = true,
       .ack_flag = false, .seq = 1 + (1 << 20)},
      {.op = Op::kExpectState, .note = "survives forged reset",
       .state = TcpState::kEstablished},
      {.op = Op::kIn, .note = "RST below the window", .rst = true,
       .ack_flag = false, .seq = -5000},
      {.op = Op::kExpectState, .state = TcpState::kEstablished},
      {.op = Op::kExpectNoOut},
      {.op = Op::kIn, .note = "genuine in-window RST", .rst = true,
       .ack_flag = false, .seq = 1},
      {.op = Op::kExpectClosed},
  });
}

// Regression: a FIN rewound by go-back-N (the RTO clears fin_sent_) must
// still accept the ack that covers it. The receiver already held the tail +
// FIN out of order, so the retransmitted head completes the stream and the
// ack lands one past snd_max_ before the FIN is ever re-emitted — with the
// post-timeout cwnd of one MSS and more than one MSS buffered, PumpSend can
// never reach the FIN again. Rejecting that ack would strand snd_una_ and
// abort the connection after max_retransmits backed-off RTOs.
TEST_F(TcpScriptTest, RewoundFinAckedFromOooTailCompletes) {
  Establish();
  Run({
      {.op = Op::kSend, .payload = 2 * kMssBytes},
      {.op = Op::kExpectOut, .note = "seg 1", .seq = 1, .ack = 1,
       .payload = kMssBytes},
      {.op = Op::kExpectOut, .note = "seg 2", .seq = 1 + kMssBytes,
       .payload = kMssBytes},
      {.op = Op::kClose},
      {.op = Op::kExpectOut, .note = "FIN after queued data", .fin = true,
       .seq = 1 + 2 * kMssBytes, .payload = 0},
      {.op = Op::kExpectState, .state = TcpState::kFinSent},
      // Timeout: go-back-N rewinds to snd_una_; cwnd collapses to one MSS,
      // so only the head goes back out and the FIN is not re-emitted.
      {.op = Op::kAdvance, .dur = Millis(10)},
      {.op = Op::kExpectOut, .note = "head retransmitted", .seq = 1,
       .payload = kMssBytes},
      {.op = Op::kExpectNoOut, .note = "cwnd=1 MSS: no room for tail or FIN"},
      {.op = Op::kExpectRtoFires, .payload = 1},
      // The peer held seg 2 + FIN out of order: the head completes the
      // stream and it acks one past the (never re-emitted) FIN.
      {.op = Op::kIn, .note = "ack covering data + rewound FIN", .seq = 1,
       .ack = 2 + 2 * kMssBytes},
      {.op = Op::kExpectState, .note = "FIN acked, no livelock",
       .state = TcpState::kFinSent},
      {.op = Op::kIn, .note = "peer FIN", .fin = true, .seq = 1,
       .ack = 2 + 2 * kMssBytes},
      {.op = Op::kExpectOut, .note = "final ACK", .seq = 2 + 2 * kMssBytes,
       .ack = 2, .payload = 0},
      {.op = Op::kExpectClosed},
  });
}

// Abort's RST must survive the peer's RFC 5961-style validation: ack_flag
// with ack = rcv_nxt_, sequence at the top of everything sent (snd_nxt_ may
// sit below the peer's rcv_nxt_ after a go-back-N rewind).
TEST_F(TcpScriptTest, AbortRstAcksPeerAndUsesHighestSentSeq) {
  Establish();
  Run({
      {.op = Op::kSend, .payload = kMssBytes},
      {.op = Op::kExpectOut, .seq = 1, .payload = kMssBytes},
  });
  conn_->Abort();
  Run({
      {.op = Op::kExpectOut, .note = "RST carries ack and in-window seq",
       .rst = true, .seq = 1 + kMssBytes, .ack = 1, .payload = 0},
  });
}

// A forged same-seq segment with a different length must not relocate its
// FIN onto the buffered out-of-order entry: the FIN would otherwise be
// consumed at the buffered copy's (different) end sequence.
TEST_F(TcpScriptTest, ForgedSameSeqFinDoesNotRideBufferedEntry) {
  Establish();
  Run({
      {.op = Op::kIn, .note = "tail held out of order", .seq = 1001, .ack = 1,
       .payload = 1000},
      {.op = Op::kExpectOut, .note = "dup-ACK at the hole", .seq = 1, .ack = 1,
       .payload = 0},
      {.op = Op::kIn, .note = "forged same-seq shorter segment with FIN",
       .fin = true, .seq = 1001, .ack = 1, .payload = 500},
      {.op = Op::kExpectOut, .note = "another dup-ACK", .seq = 1, .ack = 1,
       .payload = 0},
      {.op = Op::kIn, .note = "hole filled", .seq = 1, .ack = 1,
       .payload = 1000},
      {.op = Op::kExpectOut, .note = "ack past reassembly, no FIN consumed",
       .seq = 1, .ack = 2001, .payload = 0},
      {.op = Op::kExpectDelivered, .payload = 2000},
      {.op = Op::kExpectState, .note = "still open: the forged FIN is inert",
       .state = TcpState::kEstablished},
  });
}

TEST_F(TcpScriptTest, SynSentRstMustProveItsAck) {
  Connect();
  Run({
      {.op = Op::kExpectOut, .note = "SYN", .syn = true, .ack_flag = false,
       .seq = 0, .payload = 0},
      {.op = Op::kIn, .note = "RST with no ack", .rst = true, .ack_flag = false,
       .seq = 0},
      {.op = Op::kExpectState, .state = TcpState::kSynSent},
      {.op = Op::kIn, .note = "RST with wrong ack", .rst = true, .seq = 0,
       .ack = 7},
      {.op = Op::kExpectState, .state = TcpState::kSynSent},
      {.op = Op::kIn, .note = "RST acking our SYN", .rst = true, .seq = 0,
       .ack = 1},
      {.op = Op::kExpectClosed},
  });
}

}  // namespace
}  // namespace kite
