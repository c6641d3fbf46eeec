#include "src/workloads/redis.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {
namespace {

// redis-benchmark's mix: Fig 9 reports SET and GET series separately, over
// 10,000 64-bit keys formatted as strings.
constexpr double kSetRatio = 0.5;
constexpr int kKeySpace = 10000;

// Incremental RESP command parser for the server side: array of bulk strings.
// Returns true and fills args when a complete command is available,
// consuming it from *buf.
bool RespConsumeCommand(std::string* buf, std::vector<std::string>* args) {
  size_t pos = 0;
  auto read_line = [&](std::string* line) {
    const size_t end = buf->find("\r\n", pos);
    if (end == std::string::npos) {
      return false;
    }
    line->assign(*buf, pos, end - pos);
    pos = end + 2;
    return true;
  };
  std::string line;
  if (!read_line(&line) || line.empty() || line[0] != '*') {
    return false;
  }
  const int64_t n = ParseDecimal(std::string_view(line).substr(1));
  if (n < 0) {
    return false;
  }
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (!read_line(&line) || line.empty() || line[0] != '$') {
      return false;
    }
    const int64_t len = ParseDecimal(std::string_view(line).substr(1));
    if (len < 0 || buf->size() < pos + static_cast<size_t>(len) + 2) {
      return false;
    }
    out.emplace_back(*buf, pos, static_cast<size_t>(len));
    pos += static_cast<size_t>(len) + 2;
  }
  buf->erase(0, pos);
  *args = std::move(out);
  return true;
}

constexpr SimDuration kPerOpCost = Micros(4);  // Command dispatch + dict op.
constexpr double kPerByteNs = 0.05;

}  // namespace

Buffer RespEncodeCommand(const std::vector<std::string>& args) {
  std::string out = StrFormat("*%zu\r\n", args.size());
  for (const std::string& a : args) {
    out += StrFormat("$%zu\r\n", a.size());
    out += a;
    out += "\r\n";
  }
  return Buffer(out.begin(), out.end());
}

int RespConsumeReplies(std::string* buf) {
  int count = 0;
  size_t pos = 0;
  for (;;) {
    if (pos >= buf->size()) {
      break;
    }
    const char type = (*buf)[pos];
    const size_t line_end = buf->find("\r\n", pos);
    if (line_end == std::string::npos) {
      break;
    }
    if (type == '+' || type == '-' || type == ':') {
      pos = line_end + 2;
      ++count;
      continue;
    }
    if (type == '$') {
      const int64_t len = ParseDecimal(
          std::string_view(*buf).substr(pos + 1, line_end - pos - 1));
      if (len < 0) {  // $-1 null bulk.
        pos = line_end + 2;
        ++count;
        continue;
      }
      const size_t need = line_end + 2 + static_cast<size_t>(len) + 2;
      if (buf->size() < need) {
        break;
      }
      pos = need;
      ++count;
      continue;
    }
    // Unknown type: drop the line defensively.
    pos = line_end + 2;
  }
  buf->erase(0, pos);
  return count;
}

RedisServer::RedisServer(EtherStack* stack, uint16_t port) : stack_(stack) {
  stack_->ListenTcp(port, [this](TcpConn* conn) {
    auto inbuf = std::make_shared<std::string>();
    conn->SetDataCallback([this, conn, inbuf](std::span<const uint8_t> data) {
      inbuf->append(reinterpret_cast<const char*>(data.data()), data.size());
      std::vector<std::string> args;
      std::string replies;
      while (RespConsumeCommand(inbuf.get(), &args)) {
        HandleCommand(conn, std::move(args));
        if (conn->closed()) {
          return;
        }
      }
    });
  });
}

void RedisServer::HandleCommand(TcpConn* conn, std::vector<std::string> args) {
  if (args.empty()) {
    return;
  }
  std::string reply;
  if (args[0] == "SET" && args.size() == 3) {
    store_[args[1]] = args[2];
    ++sets_;
    reply = "+OK\r\n";
  } else if (args[0] == "GET" && args.size() == 2) {
    ++gets_;
    auto it = store_.find(args[1]);
    if (it == store_.end()) {
      reply = "$-1\r\n";
    } else {
      reply = StrFormat("$%zu\r\n", it->second.size()) + it->second + "\r\n";
    }
  } else if (args[0] == "PING") {
    reply = "+PONG\r\n";
  } else {
    reply = "-ERR unknown command\r\n";
  }
  if (stack_->vcpu() == nullptr) {
    conn->Send(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(reply.data()),
                                        reply.size()));
    return;
  }
  // Reply leaves when the server CPU has executed this command (commands of
  // a pipeline batch serialize behind each other).
  size_t bytes = 0;
  for (const auto& a : args) {
    bytes += a.size();
  }
  SimTime cpu_done;
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("app/workload"));
    cpu_done = stack_->vcpu()->Charge(
        kPerOpCost + Nanos(static_cast<int64_t>(kPerByteNs * bytes)));
  }
  stack_->executor()->PostAt(cpu_done, KITE_POST_SITE("redis/reply"),
                             [conn, alive = conn->AliveGuard(), reply = std::move(reply)] {
                               if (*alive && !conn->closed()) {
                                 conn->Send(std::span<const uint8_t>(
                                     reinterpret_cast<const uint8_t*>(reply.data()),
                                     reply.size()));
                               }
                             });
}

// --- RedisBench. ---

struct RedisBench::Conn {
  TcpConn* conn = nullptr;
  std::string inbuf;
  int outstanding = 0;
  int batch_sets = 0;
  int batch_gets = 0;
};

RedisBench::RedisBench(EtherStack* client, Ipv4Addr server_ip, uint16_t port,
                       RedisBenchConfig config)
    : client_(client), server_ip_(server_ip), port_(port), config_(config) {}

RedisBench::~RedisBench() = default;

void RedisBench::Run(std::function<void(const RedisBenchResult&)> done) {
  done_ = std::move(done);
  started_at_ = client_->executor()->Now();
  for (int i = 0; i < config_.connections; ++i) {
    auto c = std::make_unique<Conn>();
    Conn* raw = c.get();
    conns_.push_back(std::move(c));
    raw->conn = client_->ConnectTcp(server_ip_, port_, [this, raw](TcpConn*) { Pump(raw); });
    raw->conn->SetDataCallback([this, raw](std::span<const uint8_t> data) {
      raw->inbuf.append(reinterpret_cast<const char*>(data.data()), data.size());
      const int replies = RespConsumeReplies(&raw->inbuf);
      if (replies > 0) {
        OnBatchDone(raw, replies);
      }
    });
  }
}

void RedisBench::Pump(Conn* c) {
  if (finished_ || issued_ >= config_.total_ops || c->outstanding > 0) {
    return;
  }
  // Send one pipeline batch.
  Buffer batch;
  const std::string value(config_.value_bytes, 'v');
  const int n = static_cast<int>(
      std::min<uint64_t>(config_.pipeline, config_.total_ops - issued_));
  for (int i = 0; i < n; ++i) {
    const std::string key = StrFormat("key:%012llu",
                                      static_cast<unsigned long long>(
                                          rng_.NextBelow(kKeySpace)));
    Buffer cmd;
    if (rng_.NextBool(kSetRatio)) {
      cmd = RespEncodeCommand({"SET", key, value});
      ++c->batch_sets;
    } else {
      cmd = RespEncodeCommand({"GET", key});
      ++c->batch_gets;
    }
    batch.insert(batch.end(), cmd.begin(), cmd.end());
  }
  issued_ += n;
  c->outstanding = n;
  c->conn->Send(std::move(batch));
}

void RedisBench::OnBatchDone(Conn* c, int replies) {
  c->outstanding -= replies;
  completed_ += replies;
  if (c->outstanding <= 0) {
    // Attribute the finished batch to its op mix.
    set_completed_ += c->batch_sets;
    get_completed_ += c->batch_gets;
    c->batch_sets = c->batch_gets = 0;
    Pump(c);
  }
  if (completed_ >= config_.total_ops && !finished_) {
    finished_ = true;
    const double elapsed = (client_->executor()->Now() - started_at_).seconds();
    result_.elapsed_s = elapsed;
    result_.completed = completed_;
    const double set_frac =
        completed_ > 0 ? static_cast<double>(set_completed_) / completed_ : 0;
    const double total_rate = elapsed > 0 ? completed_ / elapsed : 0;
    result_.set_ops_per_sec = total_rate * set_frac;
    result_.get_ops_per_sec = total_rate * (1.0 - set_frac);
    if (done_) {
      done_(result_);
    }
  }
}

}  // namespace kite
