// Redis key-value server speaking a real RESP subset (SET/GET/PING) and the
// redis-benchmark-style pipelined load generator (paper §5.3.4, Fig 9).
#ifndef SRC_WORKLOADS_REDIS_H_
#define SRC_WORKLOADS_REDIS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/net/tcp.h"

namespace kite {

// RESP protocol helpers (shared with tests).
Buffer RespEncodeCommand(const std::vector<std::string>& args);
// Counts complete replies in a stream buffer, consuming them. Returns the
// number of replies consumed; leftover stays in *buf.
int RespConsumeReplies(std::string* buf);

class RedisServer {
 public:
  RedisServer(EtherStack* stack, uint16_t port);

  uint64_t sets() const { return sets_; }
  uint64_t gets() const { return gets_; }
  size_t keys() const { return store_.size(); }

 private:
  void HandleCommand(TcpConn* conn, std::vector<std::string> args);

  EtherStack* stack_;
  std::map<std::string, std::string> store_;
  uint64_t sets_ = 0;
  uint64_t gets_ = 0;
};

struct RedisBenchConfig {
  int connections = 5;        // The paper's "thread count".
  int pipeline = 1000;        // Pipeline depth (paper: 1,000).
  uint64_t total_ops = 100000;
  size_t value_bytes = 1024;
};

struct RedisBenchResult {
  double set_ops_per_sec = 0;
  double get_ops_per_sec = 0;
  double elapsed_s = 0;
  uint64_t completed = 0;
};

class RedisBench {
 public:
  RedisBench(EtherStack* client, Ipv4Addr server_ip, uint16_t port, RedisBenchConfig config);
  ~RedisBench();

  void Run(std::function<void(const RedisBenchResult&)> done);
  bool finished() const { return finished_; }
  const RedisBenchResult& result() const { return result_; }

 private:
  struct Conn;
  void Pump(Conn* c);
  void OnBatchDone(Conn* c, int replies);

  EtherStack* client_;
  Ipv4Addr server_ip_;
  uint16_t port_;
  RedisBenchConfig config_;
  Rng rng_{0xbe9c4};
  std::function<void(const RedisBenchResult&)> done_;
  SimTime started_at_;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t set_completed_ = 0;
  uint64_t get_completed_ = 0;
  bool finished_ = false;
  RedisBenchResult result_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace kite

#endif  // SRC_WORKLOADS_REDIS_H_
