#include "src/workloads/mysql.h"

#include "src/base/log.h"

namespace kite {
namespace {

constexpr char kDataFile[] = "ibdata1";
constexpr char kLogFile[] = "ib_logfile0";
constexpr size_t kPageBytes = 16 * 1024;
constexpr int64_t kLogBytes = 512LL * 1024 * 1024;

// Query costs and result sizes over the sysbench schema.
constexpr SimDuration kPointSelectCost = Micros(8);
constexpr SimDuration kRangeSelectCost = Micros(25);
constexpr SimDuration kUpdateCost = Micros(20);
constexpr size_t kPointRowBytes = 190;  // One sbtest row.
constexpr size_t kRangeRows = 100;      // Rows a range scan returns.
// Storage-backed mode: InnoDB pages read on a buffer-pool miss, and one
// redo-log write per this many write queries.
constexpr int kPagesPerPointMiss = 1;
constexpr int kPagesPerRangeMiss = 4;
constexpr int kLogWriteEvery = 16;
// The sysbench oltp_read_only transaction: 10 point selects + 4 range scans.
constexpr int kPointSelectsPerTxn = 10;
constexpr int kRangeSelectsPerTxn = 4;

}  // namespace

MysqlServer::MysqlServer(EtherStack* stack, uint16_t port, SimpleFs* storage,
                         MysqlServerParams params)
    : stack_(stack), storage_(storage), params_(params) {
  if (storage_ != nullptr && !storage_->Exists(kDataFile)) {
    KITE_CHECK(storage_->Create(kDataFile, params_.data_region_bytes))
        << "storage too small for the MySQL dataset";
    KITE_CHECK(storage_->Create(kLogFile, kLogBytes));
  }
  rpc_ = std::make_unique<RpcServer>(
      stack, port, [this](uint8_t type, const Buffer& payload, RpcServer::RespondFn respond) {
        HandleQuery(type, payload, std::move(respond));
      });
}

void MysqlServer::HandleQuery(uint8_t type, const Buffer& payload,
                              RpcServer::RespondFn respond) {
  ++queries_;
  SimDuration cost;
  size_t response_bytes;
  int miss_pages = 0;
  bool is_write = false;
  switch (type) {
    case kMysqlRangeSelect:
      cost = kRangeSelectCost;
      response_bytes = kPointRowBytes * kRangeRows;
      miss_pages = kPagesPerRangeMiss;
      break;
    case kMysqlUpdate:
      cost = kUpdateCost;
      response_bytes = 16;
      miss_pages = kPagesPerPointMiss;
      is_write = true;
      break;
    case kMysqlPointSelect:
    default:
      cost = kPointSelectCost;
      response_bytes = kPointRowBytes;
      miss_pages = kPagesPerPointMiss;
      break;
  }
  // Query execution serializes on the server CPU; the response leaves at
  // CPU-completion time (or after storage I/O, whichever is later).
  SimTime cpu_done = stack_->executor()->Now();
  if (stack_->vcpu() != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("app/workload"));
    cpu_done = stack_->vcpu()->Charge(cost);
  }
  Executor* executor = stack_->executor();
  auto reply = [executor, cpu_done, respond = std::move(respond), type, response_bytes] {
    executor->PostAt(cpu_done, KITE_POST_SITE("mysql/response"),
                     [respond, type, response_bytes] {
      respond(type, Buffer(response_bytes, 0x52));
    });
  };

  const bool miss =
      storage_ != nullptr && !rng_.NextBool(params_.buffer_pool_hit_ratio);
  bool log_write = false;
  if (is_write && storage_ != nullptr &&
      ++writes_since_log_ >= static_cast<uint64_t>(kLogWriteEvery)) {
    writes_since_log_ = 0;
    log_write = true;
  }
  if (!miss && !log_write) {
    reply();
    return;
  }
  // Buffer-pool miss: random page reads from the data file; plus an optional
  // redo-log write. Respond when all I/O completes.
  const int ios = (miss ? miss_pages : 0) + (log_write ? 1 : 0);
  auto remaining = std::make_shared<int>(ios);
  auto on_io = [remaining, reply](bool) {
    if (--*remaining == 0) {
      reply();
    }
  };
  if (miss) {
    for (int i = 0; i < miss_pages; ++i) {
      ++page_reads_;
      const int64_t page_count = params_.data_region_bytes / kPageBytes;
      const int64_t offset =
          static_cast<int64_t>(rng_.NextBelow(static_cast<uint64_t>(page_count))) *
          static_cast<int64_t>(kPageBytes);
      storage_->Read(kDataFile, offset, kPageBytes, on_io);
    }
  }
  if (log_write) {
    ++log_writes_;
    const int64_t offset =
        static_cast<int64_t>(log_writes_ * 4096 % (kLogBytes - 4096));
    storage_->Write(kLogFile, offset, 4096, on_io);
  }
}

// --- SysbenchOltp. ---

struct SysbenchOltp::Thread {
  std::unique_ptr<RpcClient> rpc;
  SimTime txn_started;
  int queries_left = 0;
  bool idle = true;
};

SysbenchOltp::~SysbenchOltp() = default;

SysbenchOltp::SysbenchOltp(EtherStack* client, Ipv4Addr server_ip, uint16_t port,
                           SysbenchOltpConfig config)
    : client_(client), config_(config) {
  for (int i = 0; i < config_.threads; ++i) {
    auto t = std::make_unique<Thread>();
    t->rpc = std::make_unique<RpcClient>(client, server_ip, port);
    threads_.push_back(std::move(t));
  }
}

void SysbenchOltp::Run(std::function<void(const SysbenchOltpResult&)> done) {
  done_ = std::move(done);
  started_at_ = client_->executor()->Now();
  deadline_ = started_at_ + config_.duration;
  for (auto& t : threads_) {
    StartTxn(t.get());
  }
}

void SysbenchOltp::StartTxn(Thread* t) {
  if (client_->executor()->Now() >= deadline_) {
    t->idle = true;
    FinishIfDue();
    return;
  }
  t->idle = false;
  t->txn_started = client_->executor()->Now();
  t->queries_left = kPointSelectsPerTxn + kRangeSelectsPerTxn + config_.updates_per_txn;
  // sysbench issues the transaction's queries sequentially; we chain them.
  // The stored function holds only a weak self-reference (no shared_ptr
  // cycle); each pending RPC's callback owns the strong reference.
  auto issue = std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak_issue = issue;
  *issue = [this, t, weak_issue](int index) {
    uint8_t type;
    if (index < kPointSelectsPerTxn) {
      type = kMysqlPointSelect;
    } else if (index < kPointSelectsPerTxn + kRangeSelectsPerTxn) {
      type = kMysqlRangeSelect;
    } else {
      type = kMysqlUpdate;
    }
    auto self = weak_issue.lock();
    t->rpc->Call(type, Buffer(32, 0x71), [this, t, self, index](uint8_t, const Buffer&) {
      ++queries_done_;
      if (t->queries_left > 0) {
        --t->queries_left;
      }
      if (t->queries_left == 0) {
        ++txns_done_;
        result_.txn_latency_ms.Add((client_->executor()->Now() - t->txn_started).ms());
        StartTxn(t);
      } else {
        (*self)(index + 1);
      }
    });
  };
  (*issue)(0);
}

void SysbenchOltp::FinishIfDue() {
  if (finished_) {
    return;
  }
  for (const auto& t : threads_) {
    if (!t->idle) {
      return;
    }
  }
  finished_ = true;
  const double elapsed = (client_->executor()->Now() - started_at_).seconds();
  result_.elapsed_s = elapsed;
  result_.queries = queries_done_;
  result_.queries_per_sec = elapsed > 0 ? queries_done_ / elapsed : 0;
  result_.transactions_per_sec = elapsed > 0 ? txns_done_ / elapsed : 0;
  if (done_) {
    done_(result_);
  }
}

}  // namespace kite
