// Memcached server speaking the real text protocol (set/get) and the
// memtier-style load generator (paper §5.3.2, Fig 7 "Memtier").
#ifndef SRC_WORKLOADS_MEMCACHED_H_
#define SRC_WORKLOADS_MEMCACHED_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/net/tcp.h"

namespace kite {

class MemcachedServer {
 public:
  MemcachedServer(EtherStack* stack, uint16_t port);

  uint64_t sets() const { return sets_; }
  uint64_t gets() const { return gets_; }
  uint64_t hits() const { return hits_; }

 private:
  void Process(TcpConn* conn, std::string* inbuf);

  EtherStack* stack_;
  std::map<std::string, std::string> store_;
  size_t op_bytes_ = 0;  // Value bytes touched by the op being processed.
  uint64_t sets_ = 0;
  uint64_t gets_ = 0;
  uint64_t hits_ = 0;
};

struct MemtierConfig {
  uint64_t total_ops = 100000;
  size_t value_bytes = 8192;          // 8 KB data.
  int connections = 4;
};

struct MemtierResult {
  double avg_latency_ms = 0;
  double ops_per_sec = 0;
  double elapsed_s = 0;
  uint64_t completed = 0;
  Stats latency_ms;
};

// memtier_benchmark: closed-loop per connection (one outstanding op each),
// measuring per-op latency.
class MemtierBench {
 public:
  MemtierBench(EtherStack* client, Ipv4Addr server_ip, uint16_t port, MemtierConfig config);
  ~MemtierBench();

  void Run(std::function<void(const MemtierResult&)> done);
  bool finished() const { return finished_; }
  const MemtierResult& result() const { return result_; }

 private:
  struct Conn;
  void IssueNext(Conn* c);
  void OnOpDone(Conn* c);

  EtherStack* client_;
  Ipv4Addr server_ip_;
  uint16_t port_;
  MemtierConfig config_;
  Rng rng_{0x313377};
  std::function<void(const MemtierResult&)> done_;
  SimTime started_at_;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  bool finished_ = false;
  MemtierResult result_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace kite

#endif  // SRC_WORKLOADS_MEMCACHED_H_
