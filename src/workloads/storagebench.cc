#include "src/workloads/storagebench.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {
namespace {

// sysbench fileio's rndrw mix: 3:2 read:write.
constexpr double kReadFraction = 0.6;

}  // namespace

// --- DdBench. ---

DdBench::DdBench(Blkfront* dev, DdConfig config) : dev_(dev), config_(config) {}

void DdBench::Run(std::function<void(const DdResult&)> done) {
  done_ = std::move(done);
  started_at_ = dev_->guest() != nullptr
                    ? dev_->guest()->hypervisor()->executor()->Now()
                    : SimTime();
  for (int i = 0; i < config_.inflight; ++i) {
    IssueNext();
  }
}

void DdBench::IssueNext() {
  if (issued_ >= config_.total_bytes) {
    return;
  }
  const int64_t offset = issued_ % (dev_->capacity_bytes() - config_.block_bytes);
  issued_ += static_cast<int64_t>(config_.block_bytes);
  ++outstanding_;
  auto cb = [this](bool) { OnBlockDone(); };
  if (config_.write) {
    dev_->Write(offset, Buffer(config_.block_bytes, 0), cb);
  } else {
    dev_->Read(offset, config_.block_bytes, nullptr, cb);
  }
}

void DdBench::OnBlockDone() {
  --outstanding_;
  completed_bytes_ += static_cast<int64_t>(config_.block_bytes);
  if (completed_bytes_ >= config_.total_bytes) {
    if (!finished_) {
      finished_ = true;
      const double elapsed =
          (dev_->guest()->hypervisor()->executor()->Now() - started_at_).seconds();
      result_.elapsed_s = elapsed;
      result_.mbytes_per_sec =
          elapsed > 0 ? completed_bytes_ / (1024.0 * 1024.0) / elapsed : 0;
      if (done_) {
        done_(result_);
      }
    }
    return;
  }
  IssueNext();
}

// --- SysbenchFileIo. ---

struct SysbenchFileIo::Thread {
  bool idle = true;
  SimTime op_started;
};

SysbenchFileIo::SysbenchFileIo(SimpleFs* fs, SysbenchFileIoConfig config)
    : fs_(fs), config_(config) {
  const int64_t per_file = config_.total_bytes / config_.files;
  KITE_CHECK(fs_->CreateMany("test_file.", config_.files, per_file))
      << "file-set population failed (device too small?)";
  for (int i = 0; i < config_.threads; ++i) {
    threads_.push_back(std::make_unique<Thread>());
  }
}

SysbenchFileIo::~SysbenchFileIo() = default;

void SysbenchFileIo::Run(std::function<void(const SysbenchFileIoResult&)> done) {
  done_ = std::move(done);
  Executor* ex = fs_->device()->guest()->hypervisor()->executor();
  started_at_ = ex->Now();
  deadline_ = started_at_ + config_.duration;
  for (auto& t : threads_) {
    IssueOp(t.get());
  }
}

void SysbenchFileIo::IssueOp(Thread* t) {
  Executor* ex = fs_->device()->guest()->hypervisor()->executor();
  if (ex->Now() >= deadline_) {
    t->idle = true;
    FinishIfDue();
    return;
  }
  t->idle = false;
  t->op_started = ex->Now();
  const std::string file =
      StrFormat("test_file.%06d", static_cast<int>(rng_.NextBelow(config_.files)));
  const int64_t file_size = fs_->FileSize(file);
  const int64_t max_off = file_size - static_cast<int64_t>(config_.block_bytes);
  const int64_t offset =
      max_off > 0
          ? static_cast<int64_t>(rng_.NextBelow(static_cast<uint64_t>(max_off) /
                                                kSectorSize)) *
                static_cast<int64_t>(kSectorSize)
          : 0;
  const bool is_read = rng_.NextBool(kReadFraction);
  auto cb = [this, t, is_read](bool) {
    Executor* ex2 = fs_->device()->guest()->hypervisor()->executor();
    ++ops_;
    result_.latency_ms.Add((ex2->Now() - t->op_started).ms());
    if (is_read) {
      read_bytes_ += config_.block_bytes;
    } else {
      write_bytes_ += config_.block_bytes;
    }
    IssueOp(t);
  };
  if (is_read) {
    fs_->Read(file, offset, config_.block_bytes, cb);
  } else {
    fs_->Write(file, offset, config_.block_bytes, cb);
  }
}

void SysbenchFileIo::FinishIfDue() {
  if (finished_) {
    return;
  }
  for (const auto& t : threads_) {
    if (!t->idle) {
      return;
    }
  }
  finished_ = true;
  Executor* ex = fs_->device()->guest()->hypervisor()->executor();
  const double elapsed = (ex->Now() - started_at_).seconds();
  result_.ops = ops_;
  const double mb = 1024.0 * 1024.0;
  result_.read_mbps = elapsed > 0 ? read_bytes_ / mb / elapsed : 0;
  result_.write_mbps = elapsed > 0 ? write_bytes_ / mb / elapsed : 0;
  result_.mbytes_per_sec = result_.read_mbps + result_.write_mbps;
  if (done_) {
    done_(result_);
  }
}

}  // namespace kite
