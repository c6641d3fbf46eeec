// kv_fleet: a closed loop of 32 simulated TCP connections, 2 per guest, to
// the memcached server model on 16 guests. SET:GET is 1:10, values are
// log-uniform from 64 B to 4 KB, and each connection owns its share of a
// 10k-key space, so a GET must return the last acknowledged SET of that
// connection. Small segments flow both ways and no IP fragment occurs:
// per-packet costs (executor events, scheduler parks) dominate.
#include <cstring>

#include "perfbench/bench.h"
#include "src/workloads/memcached.h"

namespace perfbench {
namespace {

using namespace kite;

constexpr int kGuests = 16;
constexpr int kConnsPerGuest = 2;
constexpr int kConns = kGuests * kConnsPerGuest;
constexpr int kKeySpace = 10000;
constexpr double kSetShare = 1.0 / 11.0;  // SET:GET = 1:10.
constexpr uint64_t kMinValue = 64;
constexpr uint64_t kMaxValue = 4096;
constexpr uint16_t kPort = 11211;
constexpr uint64_t kWindowOps = 60000;

class KvFleet : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    sys_ = std::make_unique<KiteSystem>(BaseParams());
    NetworkDomain* netdom = sys_->CreateNetworkDomain();
    std::vector<GuestVm*> guests = BringUpFleet(kGuests, netdom, nullptr, 10);
    for (GuestVm* g : guests) {
      servers_.push_back(std::make_unique<MemcachedServer>(g->stack(), kPort));
    }
    conns_.resize(kConns);
    int connected = 0;
    for (int c = 0; c < kConns; ++c) {
      Conn& conn = conns_[c];
      // Key k belongs to connection k % kConns.
      for (int k = c; k < kKeySpace; k += kConns) {
        conn.keys.push_back("key-" + std::to_string(k));
      }
      conn.values.resize(conn.keys.size());
      conn.tcp = sys_->client()->stack()->ConnectTcp(
          guests[c / kConnsPerGuest]->ip(), kPort, [&connected](TcpConn*) { ++connected; });
      conn.tcp->SetDataCallback(
          [this, c](std::span<const uint8_t> data) { OnData(&conns_[c], data); });
    }
    if (!sys_->WaitUntil([&] { return connected == kConns; }, Seconds(5))) {
      Fatal("kv connections failed to open");
    }
    // Warm-up: SET every key once, which also grows every connection's
    // congestion window past slow start. GETs then always hit.
    prefill_ = true;
    RunPhase(kKeySpace);
    prefill_ = false;
  }

  void RunWindow() override {
    BeginWindow();
    RunPhase(kWindowOps);
    EndWindow();
  }

 private:
  struct Conn {
    TcpConn* tcp = nullptr;
    std::vector<std::string> keys;
    std::vector<std::string> values;  // Last acknowledged SET per key.
    std::string inbuf;
    size_t next_prefill = 0;
    // The one outstanding request.
    bool busy = false;
    bool is_set = false;
    size_t key = 0;
    std::string value;  // Value being SET.
    int64_t started_ns = 0;
  };

  void RunPhase(uint64_t ops) {
    ops_left_ = ops;
    completed_ = 0;
    for (Conn& c : conns_) {
      StartOp(&c);
    }
    sys_->WaitUntil([&] { return completed_ == ops; }, Seconds(20));
    result_.attempted += ops;
    result_.failed += ops - completed_;
  }

  void StartOp(Conn* c) {
    if (ops_left_ == 0) {
      return;
    }
    if (prefill_) {
      if (c->next_prefill == c->keys.size()) {
        return;  // This connection's keys are all set; others finish the phase.
      }
      c->is_set = true;
      c->key = c->next_prefill++;
    } else {
      c->is_set = rng_.Chance(kSetShare);
      c->key = rng_.Below(c->keys.size());
    }
    --ops_left_;
    c->busy = true;
    c->started_ns = sys_->Now().ns();
    std::string req;
    const std::string& key = c->keys[c->key];
    if (c->is_set) {
      const uint64_t size = rng_.LogUniform(kMinValue, kMaxValue);
      uint64_t r = rng_.Next();
      c->value.resize(size);
      for (uint64_t i = 0; i < size; ++i) {
        c->value[i] = static_cast<char>('a' + (r >> ((i & 7) * 8)) % 26);
        if ((i & 7) == 7) {
          r = Mix64(r);
        }
      }
      req = "set " + key + " 0 0 " + std::to_string(size) + "\r\n" + c->value + "\r\n";
    } else {
      req = "get " + key + "\r\n";
    }
    config_.spans->Time("net.send_call", sys_.get(), [&] {
      c->tcp->Send(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(req.data()),
                                            req.size()));
    });
  }

  // Returns the reply length once a complete reply is buffered, 0 while it is
  // still partial, and -1 when the bytes cannot be the expected reply.
  long ReplyLength(const Conn& c) const {
    const std::string& in = c.inbuf;
    const size_t eol = in.find("\r\n");
    if (eol == std::string::npos) {
      return 0;
    }
    if (c.is_set) {
      return in.compare(0, eol, "STORED") == 0 ? static_cast<long>(eol + 2) : -1;
    }
    if (in.compare(0, eol, "END") == 0) {
      return static_cast<long>(eol + 2);
    }
    const std::string expect_head = "VALUE " + c.keys[c.key] + " 0 ";
    if (in.compare(0, expect_head.size(), expect_head) != 0) {
      return -1;
    }
    const size_t bytes = std::strtoull(in.c_str() + expect_head.size(), nullptr, 10);
    const size_t total = eol + 2 + bytes + 7;  // data "\r\nEND\r\n"
    if (in.size() < total) {
      return 0;
    }
    return in.compare(eol + 2 + bytes, 7, "\r\nEND\r\n") == 0 ? static_cast<long>(total)
                                                              : -1;
  }

  void OnData(Conn* c, std::span<const uint8_t> data) {
    c->inbuf.append(reinterpret_cast<const char*>(data.data()), data.size());
    if (!c->busy) {
      Mismatch("kv reply with no request outstanding");
      return;
    }
    const long len = ReplyLength(*c);
    if (len == 0) {
      return;
    }
    c->busy = false;
    if (len < 0) {
      Mismatch("kv reply malformed: " + c->inbuf.substr(0, 40));
      c->inbuf.clear();
    } else {
      Verify(c, static_cast<size_t>(len));
      c->inbuf.erase(0, static_cast<size_t>(len));
    }
    ++completed_;
    StartOp(c);
  }

  void Verify(Conn* c, size_t len) {
    std::string& stored = c->values[c->key];
    if (c->is_set) {
      stored = std::move(c->value);  // Acknowledged: GETs must now see it.
    } else {
      const size_t eol = c->inbuf.find("\r\n");
      const bool hit = c->inbuf.compare(0, 3, "END") != 0;
      const bool ok =
          hit ? !stored.empty() && len == eol + 2 + stored.size() + 7 &&
                    c->inbuf.compare(eol + 2, stored.size(), stored) == 0
              : stored.empty();
      if (!ok) {
        Mismatch("kv GET did not return the last acknowledged SET of " +
                 c->keys[c->key]);
        return;
      }
    }
    const int64_t now = sys_->Now().ns();
    result_.latency_ns.push_back(now - c->started_ns);
    result_.sim_end_ns = std::max(result_.sim_end_ns, now);
  }

  SeededRng rng_{config_.seed};
  std::vector<std::unique_ptr<MemcachedServer>> servers_;
  std::vector<Conn> conns_;
  uint64_t ops_left_ = 0;
  uint64_t completed_ = 0;
  bool prefill_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeKvFleet(const WorkloadConfig& config) {
  return std::make_unique<KvFleet>(config);
}

}  // namespace perfbench
