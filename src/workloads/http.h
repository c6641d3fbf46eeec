// Apache-style HTTP/1.0 file server and the ApacheBench (ab) load generator
// (paper §5.3.3, Fig 8).
#ifndef SRC_WORKLOADS_HTTP_H_
#define SRC_WORKLOADS_HTTP_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/base/stats.h"
#include "src/net/tcp.h"

namespace kite {

// Serves in-memory files over a real (minimal) HTTP/1.0 dialect with
// keep-alive. Content is generated (the paper's files are random data; only
// sizes matter for throughput).
class HttpServer {
 public:
  HttpServer(EtherStack* stack, uint16_t port);

  void AddFile(const std::string& path, size_t size);
  uint64_t requests_served() const { return requests_; }

 private:
  void HandleRequest(TcpConn* conn, const std::string& path);

  EtherStack* stack_;
  std::map<std::string, size_t> files_;
  uint64_t requests_ = 0;
};

struct AbConfig {
  int total_requests = 1000;
  int concurrency = 40;
  std::string path = "/file";
};

struct AbResult {
  double elapsed_s = 0;
  double requests_per_sec = 0;
  double mbytes_per_sec = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  Stats latency_ms;
};

// ApacheBench: `concurrency` keep-alive connections issue requests until
// `total_requests` complete. Drive the simulation until done() fires.
class ApacheBench {
 public:
  ApacheBench(EtherStack* client, Ipv4Addr server_ip, uint16_t port, AbConfig config);
  ~ApacheBench();

  void Run(std::function<void(const AbResult&)> done);
  bool finished() const { return finished_; }
  const AbResult& result() const { return result_; }

 private:
  struct Worker;
  void StartWorker(int id);
  void OnRequestDone(Worker* w, bool ok, SimDuration latency, size_t bytes);

  EtherStack* client_;
  Ipv4Addr server_ip_;
  uint16_t port_;
  AbConfig config_;
  std::function<void(const AbResult&)> done_;
  SimTime started_at_;
  int issued_ = 0;
  bool finished_ = false;
  uint64_t bytes_total_ = 0;
  AbResult result_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace kite

#endif  // SRC_WORKLOADS_HTTP_H_
