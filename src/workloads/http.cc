#include "src/workloads/http.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {
namespace {

constexpr std::string_view kHeaderEnd = "\r\n\r\n";
constexpr SimDuration kPerRequestCost = Micros(30);  // Apache request handling.
// Per-byte serving cost (userspace copy + socket writes): ≈190 MB/s per
// worker, matching the paper's Apache throughput class.
constexpr double kPerByteNs = 5.0;

}  // namespace

HttpServer::HttpServer(EtherStack* stack, uint16_t port) : stack_(stack) {
  stack_->ListenTcp(port, [this](TcpConn* conn) {
    auto inbuf = std::make_shared<std::string>();
    conn->SetDataCallback([this, conn, inbuf](std::span<const uint8_t> data) {
      inbuf->append(reinterpret_cast<const char*>(data.data()), data.size());
      size_t end;
      while ((end = inbuf->find(kHeaderEnd)) != std::string::npos) {
        const std::string request = inbuf->substr(0, end);
        inbuf->erase(0, end + kHeaderEnd.size());
        // "GET <path> HTTP/1.x"
        std::string path;
        if (request.rfind("GET ", 0) == 0) {
          const size_t sp = request.find(' ', 4);
          path = request.substr(4, sp == std::string::npos ? std::string::npos : sp - 4);
        }
        HandleRequest(conn, path);
        if (conn->closed()) {
          break;
        }
      }
    });
  });
}

void HttpServer::AddFile(const std::string& path, size_t size) { files_[path] = size; }

void HttpServer::HandleRequest(TcpConn* conn, const std::string& path) {
  ++requests_;
  auto it = files_.find(path);
  if (it == files_.end()) {
    const std::string hdr = "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n";
    conn->Send(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(hdr.data()),
                                        hdr.size()));
    return;
  }
  const size_t size = it->second;
  std::string hdr = StrFormat("HTTP/1.0 200 OK\r\nContent-Length: %zu\r\n\r\n", size);
  Buffer response(hdr.begin(), hdr.end());
  response.resize(hdr.size() + size, 0x58);  // 'X' body.
  if (stack_->vcpu() == nullptr) {
    conn->Send(std::move(response));
    return;
  }
  // Serialize on the server CPU: the response leaves when the CPU has
  // actually executed this request's work (queueing behind other requests).
  SimTime cpu_done;
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("app/workload"));
    cpu_done = stack_->vcpu()->Charge(
        kPerRequestCost + Nanos(static_cast<int64_t>(kPerByteNs * size)));
  }
  stack_->executor()->PostAt(
      cpu_done, KITE_POST_SITE("http/response"),
      [conn, alive = conn->AliveGuard(), response = std::move(response)] {
        if (*alive && !conn->closed()) {
          conn->Send(response);
        }
      });
}

// --- ApacheBench. ---

struct ApacheBench::Worker {
  TcpConn* conn = nullptr;
  std::string inbuf;
  size_t expect_body = 0;
  bool in_body = false;
  SimTime request_started;
  bool busy = false;
};

ApacheBench::ApacheBench(EtherStack* client, Ipv4Addr server_ip, uint16_t port,
                         AbConfig config)
    : client_(client), server_ip_(server_ip), port_(port), config_(config) {}

ApacheBench::~ApacheBench() = default;

void ApacheBench::Run(std::function<void(const AbResult&)> done) {
  done_ = std::move(done);
  started_at_ = client_->executor()->Now();
  const int workers = std::min(config_.concurrency, config_.total_requests);
  for (int i = 0; i < workers; ++i) {
    StartWorker(i);
  }
}

void ApacheBench::StartWorker(int id) {
  auto worker = std::make_unique<Worker>();
  Worker* w = worker.get();
  workers_.push_back(std::move(worker));
  w->conn = client_->ConnectTcp(server_ip_, port_, [this, w](TcpConn*) {
    // Connection established: issue the first request.
    if (issued_ < config_.total_requests) {
      ++issued_;
      w->busy = true;
      w->request_started = client_->executor()->Now();
      const std::string req = StrFormat("GET %s HTTP/1.0\r\n\r\n", config_.path.c_str());
      w->conn->Send(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(req.data()), req.size()));
    }
  });
  w->conn->SetDataCallback([this, w](std::span<const uint8_t> data) {
    w->inbuf.append(reinterpret_cast<const char*>(data.data()), data.size());
    for (;;) {
      if (!w->in_body) {
        const size_t end = w->inbuf.find("\r\n\r\n");
        if (end == std::string::npos) {
          return;
        }
        const std::string header = w->inbuf.substr(0, end);
        w->inbuf.erase(0, end + 4);
        const size_t cl = header.find("Content-Length: ");
        w->expect_body =
            cl == std::string::npos
                ? 0
                : static_cast<size_t>(ParseDecimal(
                      header.substr(cl + 16, header.find('\r', cl) - cl - 16)));
        w->in_body = true;
      }
      if (w->inbuf.size() < w->expect_body) {
        return;
      }
      const size_t body = w->expect_body;
      w->inbuf.erase(0, body);
      w->in_body = false;
      OnRequestDone(w, true, client_->executor()->Now() - w->request_started, body);
      if (finished_ || !w->busy) {
        return;
      }
    }
  });
  w->conn->SetCloseCallback([this, w] {
    if (w->busy && !finished_) {
      OnRequestDone(w, false, SimDuration(0), 0);
    }
  });
}

void ApacheBench::OnRequestDone(Worker* w, bool ok, SimDuration latency, size_t bytes) {
  w->busy = false;
  if (ok) {
    ++result_.completed;
    result_.latency_ms.Add(latency.ms());
    bytes_total_ += bytes;  // ab reports transfer rate over body bytes.
  } else {
    ++result_.failed;
  }
  if (result_.completed + result_.failed >=
      static_cast<uint64_t>(config_.total_requests)) {
    if (!finished_) {
      finished_ = true;
      const double elapsed = (client_->executor()->Now() - started_at_).seconds();
      result_.elapsed_s = elapsed;
      result_.requests_per_sec = elapsed > 0 ? result_.completed / elapsed : 0;
      result_.mbytes_per_sec =
          elapsed > 0 ? static_cast<double>(bytes_total_) / (1024.0 * 1024.0) / elapsed : 0;
      if (done_) {
        done_(result_);
      }
    }
    return;
  }
  // Issue the next request on this (keep-alive) connection.
  if (issued_ < config_.total_requests && !w->conn->closed()) {
    ++issued_;
    w->busy = true;
    w->request_started = client_->executor()->Now();
    const std::string req = StrFormat("GET %s HTTP/1.0\r\n\r\n", config_.path.c_str());
    w->conn->Send(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(req.data()),
                                           req.size()));
  }
}

}  // namespace kite
