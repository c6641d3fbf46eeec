#include "src/blk/disk.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"

namespace kite {
namespace {

// NVMe drive timing (Table 2's server disk).
constexpr double kReadGbps = 2.9;                     // GB/s sustained read.
constexpr double kWriteGbps = 2.5;                    // GB/s sustained write.
constexpr SimDuration kReadLatency = Micros(85);      // Flash read access time.
constexpr SimDuration kWriteLatency = Micros(35);     // Program (SLC-cached).
constexpr SimDuration kFlushLatency = Micros(400);
constexpr int kQueueDepth = 32;

}  // namespace

BlockDevice::BlockDevice(Executor* executor, std::string bdf, DiskParams params,
                         bool store_data, std::shared_ptr<DiskMedia> media,
                         FaultInjector* faults)
    : PciDevice(std::move(bdf), "NVMe SSD"),
      executor_(executor),
      params_(params),
      store_data_(store_data),
      faults_(faults),
      media_(std::move(media)) {
  KITE_CHECK(media_ != nullptr);
}

void BlockDevice::Submit(DiskRequest request) {
  KITE_CHECK(request.done != nullptr);
  KITE_CHECK(request.offset >= 0 &&
             request.offset + static_cast<int64_t>(request.length) <= params_.capacity_bytes)
      << "I/O beyond device capacity";
  queue_.push_back(std::move(request));
  TryStart();
}

void BlockDevice::TryStart() {
  while (active_ < kQueueDepth && !queue_.empty()) {
    DiskRequest req = std::move(queue_.front());
    queue_.pop_front();
    ++active_;

    SimDuration latency;
    double gbps = kReadGbps;
    switch (req.op) {
      case DiskOp::kRead:
        latency = kReadLatency;
        gbps = kReadGbps;
        break;
      case DiskOp::kWrite:
        latency = kWriteLatency;
        gbps = kWriteGbps;
        break;
      case DiskOp::kFlush:
        latency = kFlushLatency;
        break;
    }
    SimDuration transfer;
    if (req.op != DiskOp::kFlush && req.length > 0) {
      transfer = Nanos(static_cast<int64_t>(static_cast<double>(req.length) / gbps));
    }
    // Transfers serialize on the device's internal bandwidth; access latency
    // overlaps across the queue (parallel flash channels).
    const SimTime now = executor_->Now();
    SimTime transfer_start = bw_free_at_ > now ? bw_free_at_ : now;
    bw_free_at_ = transfer_start + transfer;
    const SimTime completion = bw_free_at_ + latency;
    executor_->PostAt(completion, KITE_POST_SITE("disk/io-complete"),
                      [this, req = std::move(req)]() mutable { Complete(std::move(req)); });
  }
}

void BlockDevice::Complete(DiskRequest request) {
  if (faults_->ShouldFail(FaultSite::kDiskHang)) {
    // Hung controller: park the completion without releasing the queue-depth
    // slot, so a saturated queue wedges exactly like real stuck hardware.
    hung_.push_back(std::move(request));
    return;
  }
  --active_;
  if (faults_->ShouldFail(FaultSite::kDiskIo)) {
    ++io_errors_;
    auto done = std::move(request.done);
    done(false, Buffer{});  // Media/controller error: no content effect.
    TryStart();
    return;
  }
  Buffer data;
  switch (request.op) {
    case DiskOp::kRead:
      ++reads_;
      if (store_data_) {
        data = ReadRaw(request.offset, request.length);
      }
      break;
    case DiskOp::kWrite:
      ++writes_;
      if (store_data_ && !request.data.empty()) {
        WriteRaw(request.offset, request.data);
      }
      break;
    case DiskOp::kFlush:
      ++flushes_;
      break;
  }
  auto done = std::move(request.done);
  done(true, std::move(data));
  TryStart();
}

void BlockDevice::ReleaseHungIo() {
  std::deque<DiskRequest> revived = std::move(hung_);
  hung_.clear();
  for (DiskRequest& req : revived) {
    executor_->Post(KITE_POST_SITE("disk/hung-io-release"),
                    [this, req = std::move(req)]() mutable { Complete(std::move(req)); });
  }
}

void BlockDevice::OnUnassigned() {
  for (DiskRequest& req : std::exchange(hung_, {})) {
    --active_;
    ++io_errors_;
    req.done(false, Buffer{});  // No content effect.
  }
  TryStart();
}

void BlockDevice::WriteRaw(int64_t offset, std::span<const uint8_t> data) {
  media_->Write(offset, data);
}

Buffer BlockDevice::ReadRaw(int64_t offset, size_t length) const {
  return media_->Read(offset, length);
}

void DiskMedia::Write(int64_t offset, std::span<const uint8_t> data) {
  int64_t pos = offset;
  size_t idx = 0;
  while (idx < data.size()) {
    const int64_t page_no = pos / 4096;
    const size_t in_page = static_cast<size_t>(pos % 4096);
    const size_t n = std::min<size_t>(4096 - in_page, data.size() - idx);
    auto& page = pages_[page_no];
    if (page == nullptr) {
      page = std::make_unique<std::array<uint8_t, 4096>>();
      page->fill(0);
    }
    std::copy_n(data.begin() + idx, n, page->begin() + in_page);
    pos += static_cast<int64_t>(n);
    idx += n;
  }
}

Buffer DiskMedia::Read(int64_t offset, size_t length) const {
  Buffer out(length, 0);
  int64_t pos = offset;
  size_t idx = 0;
  while (idx < length) {
    const int64_t page_no = pos / 4096;
    const size_t in_page = static_cast<size_t>(pos % 4096);
    const size_t n = std::min<size_t>(4096 - in_page, length - idx);
    auto it = pages_.find(page_no);
    if (it != pages_.end()) {
      std::copy_n(it->second->begin() + in_page, n, out.begin() + idx);
    }
    pos += static_cast<int64_t>(n);
    idx += n;
  }
  return out;
}

}  // namespace kite
