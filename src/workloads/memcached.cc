#include "src/workloads/memcached.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {
namespace {

// Server CPU per op, plus per byte of the value it touches.
constexpr SimDuration kPerOpCost = Micros(5);
constexpr double kPerByteNs = 0.05;

// memtier's mix (paper §5.3.2): 1:10 SET:GET over 10,000 keys.
constexpr double kSetGetRatio = 1.0 / 10.0;
constexpr int kKeySpace = 10000;

}  // namespace

MemcachedServer::MemcachedServer(EtherStack* stack, uint16_t port) : stack_(stack) {
  stack_->ListenTcp(port, [this](TcpConn* conn) {
    auto inbuf = std::make_shared<std::string>();
    conn->SetDataCallback([this, conn, inbuf](std::span<const uint8_t> data) {
      inbuf->append(reinterpret_cast<const char*>(data.data()), data.size());
      Process(conn, inbuf.get());
    });
  });
}

void MemcachedServer::Process(TcpConn* conn, std::string* inbuf) {
  for (;;) {
    const size_t eol = inbuf->find("\r\n");
    if (eol == std::string::npos) {
      return;
    }
    const std::string line = inbuf->substr(0, eol);
    std::string reply;
    if (line.rfind("set ", 0) == 0) {
      // "set <key> <flags> <exptime> <bytes>"
      const auto parts = SplitPath(line, ' ');
      if (parts.size() < 5) {
        inbuf->erase(0, eol + 2);
        reply = "CLIENT_ERROR bad command line\r\n";
      } else {
        const int64_t bytes = ParseDecimal(parts[4]);
        if (bytes < 0 || inbuf->size() < eol + 2 + static_cast<size_t>(bytes) + 2) {
          return;  // Data block not fully arrived yet.
        }
        const std::string value = inbuf->substr(eol + 2, static_cast<size_t>(bytes));
        inbuf->erase(0, eol + 2 + static_cast<size_t>(bytes) + 2);
        store_[parts[1]] = value;
        ++sets_;
        op_bytes_ = value.size();
        reply = "STORED\r\n";
      }
    } else if (line.rfind("get ", 0) == 0) {
      inbuf->erase(0, eol + 2);
      const std::string key = line.substr(4);
      ++gets_;
      auto it = store_.find(key);
      size_t bytes = 0;
      if (it != store_.end()) {
        ++hits_;
        bytes = it->second.size();
        reply = StrFormat("VALUE %s 0 %zu\r\n", key.c_str(), bytes) + it->second +
                "\r\nEND\r\n";
      } else {
        reply = "END\r\n";
      }
      op_bytes_ = bytes;
    } else {
      inbuf->erase(0, eol + 2);
      reply = "ERROR\r\n";
    }
    if (stack_->vcpu() == nullptr) {
      conn->Send(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(reply.data()),
                                          reply.size()));
    } else {
      // Reply at CPU-completion time (server work serializes).
      SimTime cpu_done;
      {
        CpuScope cpu_scope(KITE_CPU_CATEGORY("app/workload"));
        cpu_done = stack_->vcpu()->Charge(
            kPerOpCost + Nanos(static_cast<int64_t>(kPerByteNs * op_bytes_)));
      }
      op_bytes_ = 0;
      stack_->executor()->PostAt(
          cpu_done, KITE_POST_SITE("memcached/reply"),
          [conn, alive = conn->AliveGuard(), reply] {
            if (*alive && !conn->closed()) {
              conn->Send(std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(reply.data()), reply.size()));
            }
          });
    }
    if (conn->closed()) {
      return;
    }
  }
}

// --- MemtierBench. ---

struct MemtierBench::Conn {
  TcpConn* conn = nullptr;
  std::string inbuf;
  SimTime op_started;
  bool waiting_set = false;  // Current op is a set (expects STORED).
  bool busy = false;
};

MemtierBench::MemtierBench(EtherStack* client, Ipv4Addr server_ip, uint16_t port,
                           MemtierConfig config)
    : client_(client), server_ip_(server_ip), port_(port), config_(config) {}

MemtierBench::~MemtierBench() = default;

void MemtierBench::Run(std::function<void(const MemtierResult&)> done) {
  done_ = std::move(done);
  started_at_ = client_->executor()->Now();
  for (int i = 0; i < config_.connections; ++i) {
    auto c = std::make_unique<Conn>();
    Conn* raw = c.get();
    conns_.push_back(std::move(c));
    raw->conn =
        client_->ConnectTcp(server_ip_, port_, [this, raw](TcpConn*) { IssueNext(raw); });
    raw->conn->SetDataCallback([this, raw](std::span<const uint8_t> data) {
      raw->inbuf.append(reinterpret_cast<const char*>(data.data()), data.size());
      // One outstanding op per connection: the response is complete when the
      // terminator for its type has arrived.
      const bool complete = raw->waiting_set
                                ? raw->inbuf.find("STORED\r\n") != std::string::npos ||
                                      raw->inbuf.find("ERROR") != std::string::npos
                                : raw->inbuf.find("END\r\n") != std::string::npos;
      if (complete) {
        raw->inbuf.clear();
        OnOpDone(raw);
      }
    });
  }
}

void MemtierBench::IssueNext(Conn* c) {
  if (finished_ || issued_ >= config_.total_ops) {
    return;
  }
  ++issued_;
  c->busy = true;
  c->op_started = client_->executor()->Now();
  const std::string key =
      StrFormat("memtier-%08llu",
                static_cast<unsigned long long>(rng_.NextBelow(kKeySpace)));
  std::string req;
  // 1:N set:get ratio — a set with probability ratio/(1+ratio).
  if (rng_.NextBool(kSetGetRatio / (1.0 + kSetGetRatio))) {
    c->waiting_set = true;
    req = StrFormat("set %s 0 0 %zu\r\n", key.c_str(), config_.value_bytes);
    req.append(config_.value_bytes, 'd');
    req += "\r\n";
  } else {
    c->waiting_set = false;
    req = StrFormat("get %s\r\n", key.c_str());
  }
  c->conn->Send(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(req.data()),
                                         req.size()));
}

void MemtierBench::OnOpDone(Conn* c) {
  c->busy = false;
  ++completed_;
  result_.latency_ms.Add((client_->executor()->Now() - c->op_started).ms());
  if (completed_ >= config_.total_ops) {
    if (!finished_) {
      finished_ = true;
      const double elapsed = (client_->executor()->Now() - started_at_).seconds();
      result_.elapsed_s = elapsed;
      result_.completed = completed_;
      result_.avg_latency_ms = result_.latency_ms.Mean();
      result_.ops_per_sec = elapsed > 0 ? completed_ / elapsed : 0;
      if (done_) {
        done_(result_);
      }
    }
    return;
  }
  IssueNext(c);
}

}  // namespace kite
