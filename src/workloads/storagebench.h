// Storage benchmarks: dd (Fig 11) and SysBench file I/O (Fig 12).
#ifndef SRC_WORKLOADS_STORAGEBENCH_H_
#define SRC_WORKLOADS_STORAGEBENCH_H_

#include <functional>
#include <memory>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/workloads/fs.h"

namespace kite {

// --- dd: sequential raw-device I/O through blkfront. dd with the kernel's
// readahead keeps a small number of requests in flight. ---

struct DdConfig {
  bool write = false;
  size_t block_bytes = 1024 * 1024;
  int64_t total_bytes = 256LL * 1024 * 1024;
  int inflight = 4;  // Readahead depth.
};

struct DdResult {
  double mbytes_per_sec = 0;
  double elapsed_s = 0;
};

class DdBench {
 public:
  DdBench(Blkfront* dev, DdConfig config);
  void Run(std::function<void(const DdResult&)> done);
  bool finished() const { return finished_; }
  const DdResult& result() const { return result_; }

 private:
  void IssueNext();
  void OnBlockDone();

  Blkfront* dev_;
  DdConfig config_;
  std::function<void(const DdResult&)> done_;
  SimTime started_at_;
  int64_t issued_ = 0;
  int64_t completed_bytes_ = 0;
  int outstanding_ = 0;
  bool finished_ = false;
  DdResult result_;
};

// --- SysBench fileio: random reads/writes (3:2) over a file set. ---

struct SysbenchFileIoConfig {
  int files = 192;
  int64_t total_bytes = 3LL * 1024 * 1024 * 1024;  // Scaled from 15 GB.
  int threads = 20;
  size_t block_bytes = 256 * 1024;
  SimDuration duration = Millis(500);
};

struct SysbenchFileIoResult {
  double mbytes_per_sec = 0;
  double read_mbps = 0;
  double write_mbps = 0;
  uint64_t ops = 0;
  Stats latency_ms;
};

class SysbenchFileIo {
 public:
  // Populates the file set on construction (journal suspended).
  SysbenchFileIo(SimpleFs* fs, SysbenchFileIoConfig config);
  ~SysbenchFileIo();
  void Run(std::function<void(const SysbenchFileIoResult&)> done);
  bool finished() const { return finished_; }
  const SysbenchFileIoResult& result() const { return result_; }

 private:
  struct Thread;
  void IssueOp(Thread* t);
  void FinishIfDue();

  SimpleFs* fs_;
  SysbenchFileIoConfig config_;
  Rng rng_{0xf11e};
  std::function<void(const SysbenchFileIoResult&)> done_;
  SimTime started_at_;
  SimTime deadline_;
  uint64_t ops_ = 0;
  uint64_t read_bytes_ = 0;
  uint64_t write_bytes_ = 0;
  bool finished_ = false;
  SysbenchFileIoResult result_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

}  // namespace kite

#endif  // SRC_WORKLOADS_STORAGEBENCH_H_
