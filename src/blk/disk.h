// NVMe SSD model (Samsung 970 EVO Plus 500GB class, paper Table 2).
//
// Service model: requests queue up to a queue depth; each request pays a
// fixed flash access latency plus data transfer serialized at the device
// bandwidth (separate read/write rates). Optional content storage (sparse,
// page-granular) lets integrity tests verify end-to-end data while benches
// run metadata-free.
#ifndef SRC_BLK_DISK_H_
#define SRC_BLK_DISK_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "src/base/bytes.h"
#include "src/fault/fault.h"
#include "src/hv/pci.h"
#include "src/sim/executor.h"
#include "src/sim/time.h"

namespace kite {

// The NVMe drive's timing is constant (disk.cc); only its size is set.
struct DiskParams {
  int64_t capacity_bytes = 500LL * 1000 * 1000 * 1000;
};

enum class DiskOp { kRead, kWrite, kFlush };

// The persistent content behind one or more BlockDevice ports: a sparse,
// page-granular store. Sharing one DiskMedia between several BlockDevices
// models dual-ported / fabric-attached storage — every port sees the same
// bytes, so a VBD migrated from one storage domain to another finds all its
// acknowledged writes on the new domain's port. Timing stays per-port (each
// BlockDevice keeps its own queue and bandwidth serialization), so a
// single-port system behaves exactly as before.
class DiskMedia {
 public:
  void Write(int64_t offset, std::span<const uint8_t> data);
  Buffer Read(int64_t offset, size_t length) const;

 private:
  std::map<int64_t, std::unique_ptr<std::array<uint8_t, 4096>>> pages_;
};

struct DiskRequest {
  DiskOp op = DiskOp::kRead;
  int64_t offset = 0;  // Bytes; sector-aligned.
  size_t length = 0;   // Bytes.
  // Write payload (may be empty if the device stores no data).
  Buffer data;
  // On read completion, filled with stored data when storage is enabled.
  std::function<void(bool ok, Buffer data)> done;
};

class BlockDevice : public PciDevice {
 public:
  // A port onto `media` (non-null): content written through any port is
  // visible to every port. Completions roll `faults`' FaultSite::kDiskIo; a
  // trip completes the request with ok=false and no data/content effect. A
  // FaultSite::kDiskHang trip instead parks the completion — the op neither
  // completes nor errors and its queue-depth slot stays busy (a hung
  // controller) — until ReleaseHungIo re-posts it.
  BlockDevice(Executor* executor, std::string bdf, DiskParams params, bool store_data,
              std::shared_ptr<DiskMedia> media, FaultInjector* faults);

  const std::shared_ptr<DiskMedia>& media() const { return media_; }

  const DiskParams& params() const { return params_; }
  int64_t capacity_bytes() const { return params_.capacity_bytes; }
  bool store_data() const { return store_data_; }

  void Submit(DiskRequest request);

  // Revives every parked completion (each re-rolls the fault sites, so clear
  // the kDiskHang rate first unless re-parking is intended).
  void ReleaseHungIo();
  int hung_io_count() const { return static_cast<int>(hung_.size()); }

  // Released by its domain (a driver-domain restart hands the device over):
  // fails every parked completion, each as an I/O error with no content
  // effect that frees its queue-depth slot, so a stale op of the dead domain
  // can never land after the frontend's requeued copy.
  void OnUnassigned() override;

  // Direct (out-of-band) access for tests and for pre-populating content.
  void WriteRaw(int64_t offset, std::span<const uint8_t> data);
  Buffer ReadRaw(int64_t offset, size_t length) const;

  uint64_t reads_completed() const { return reads_; }
  uint64_t writes_completed() const { return writes_; }
  uint64_t flushes_completed() const { return flushes_; }
  uint64_t io_errors() const { return io_errors_; }

 private:
  void TryStart();
  void Complete(DiskRequest request);

  Executor* executor_;
  DiskParams params_;
  bool store_data_;
  FaultInjector* faults_;

  std::deque<DiskRequest> queue_;
  std::deque<DiskRequest> hung_;  // Completions parked by kDiskHang.
  int active_ = 0;
  SimTime bw_free_at_;

  // Content store (owned solo by default, shared across ports on request).
  std::shared_ptr<DiskMedia> media_;

  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t flushes_ = 0;
  uint64_t io_errors_ = 0;
};

}  // namespace kite

#endif  // SRC_BLK_DISK_H_
