// MySQL server model + sysbench OLTP load generator (paper §5.3.5 Fig 10,
// §5.4.3 Fig 13).
//
// Substitution note (DESIGN.md §2): the MySQL wire protocol is replaced by
// the library's RPC framing; the *query execution model* is what matters:
//  - network experiment (Fig 10): the dataset fits in the buffer pool, so a
//    query costs CPU and returns rows — stressing the network path;
//  - storage experiment (Fig 13): the dataset (100 tables × 1M rows ≈ 20 GB)
//    misses the buffer pool, so queries issue random 16 KiB page reads
//    through blkfront plus periodic redo-log writes — stressing the storage
//    path.
#ifndef SRC_WORKLOADS_MYSQL_H_
#define SRC_WORKLOADS_MYSQL_H_

#include <functional>
#include <memory>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/workloads/fs.h"
#include "src/workloads/rpc.h"

namespace kite {

inline constexpr uint8_t kMysqlPointSelect = 1;
inline constexpr uint8_t kMysqlRangeSelect = 2;
inline constexpr uint8_t kMysqlUpdate = 3;

// Storage-backed mode; query costs and sizes are constants in mysql.cc.
struct MysqlServerParams {
  double buffer_pool_hit_ratio = 1.0;  // 1.0 = fully memory-bound (Fig 10).
  int64_t data_region_bytes = 20LL * 1024 * 1024 * 1024;
};

class MysqlServer {
 public:
  // storage may be null (memory-bound); when set, buffer-pool misses read
  // pages from the "ibdata" file through it.
  MysqlServer(EtherStack* stack, uint16_t port, SimpleFs* storage,
              MysqlServerParams params = MysqlServerParams{});

  uint64_t queries() const { return queries_; }
  uint64_t page_reads() const { return page_reads_; }
  uint64_t log_writes() const { return log_writes_; }

 private:
  void HandleQuery(uint8_t type, const Buffer& payload, RpcServer::RespondFn respond);

  EtherStack* stack_;
  SimpleFs* storage_;
  MysqlServerParams params_;
  std::unique_ptr<RpcServer> rpc_;
  Rng rng_{0x5eed};
  uint64_t queries_ = 0;
  uint64_t page_reads_ = 0;
  uint64_t log_writes_ = 0;
  uint64_t writes_since_log_ = 0;
};

struct SysbenchOltpConfig {
  int threads = 10;
  SimDuration duration = Seconds(2);
  // Besides the oltp_read_only queries (mysql.cc): >0 for the read-write
  // storage mix.
  int updates_per_txn = 0;
};

struct SysbenchOltpResult {
  double queries_per_sec = 0;
  double transactions_per_sec = 0;
  double elapsed_s = 0;
  uint64_t queries = 0;
  Stats txn_latency_ms;
};

// sysbench: `threads` closed-loop clients, each running transactions
// back-to-back for the duration.
class SysbenchOltp {
 public:
  SysbenchOltp(EtherStack* client, Ipv4Addr server_ip, uint16_t port,
               SysbenchOltpConfig config);
  ~SysbenchOltp();

  void Run(std::function<void(const SysbenchOltpResult&)> done);
  bool finished() const { return finished_; }
  const SysbenchOltpResult& result() const { return result_; }

 private:
  struct Thread;
  void StartTxn(Thread* t);
  void FinishIfDue();

  EtherStack* client_;
  SysbenchOltpConfig config_;
  std::function<void(const SysbenchOltpResult&)> done_;
  SimTime started_at_;
  SimTime deadline_;
  uint64_t queries_done_ = 0;
  uint64_t txns_done_ = 0;
  bool finished_ = false;
  SysbenchOltpResult result_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

}  // namespace kite

#endif  // SRC_WORKLOADS_MYSQL_H_
