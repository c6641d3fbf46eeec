// Blkfront: the paravirtualized block frontend driver in a guest DomU.
//
// Exposes an async byte-level block API (sector-aligned) to the guest file
// system. Splits operations into ring requests (≤11 direct segments, or up
// to 32 via indirect descriptors when the backend advertises them), keeps a
// persistent pool of granted data pages, and aggregates completion across
// the requests of one logical operation.
#ifndef SRC_BLKDRV_BLKFRONT_H_
#define SRC_BLKDRV_BLKFRONT_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/bytes.h"
#include "src/blk/blkif.h"
#include "src/hv/domain.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus_frontend.h"

namespace kite {

class Blkfront : public XenbusFrontend {
 public:
  using IoCallback = std::function<void(bool ok)>;

  // The xenstore device directories must already exist (created by the
  // toolstack, see core/system.h). The device publishes once its backend
  // advertises InitWait.
  Blkfront(Domain* guest, DomId backend_dom, int devid);

  // offset/length must be sector-aligned. `out` may be null when the caller
  // does not need the bytes (cost accounting still applies); when non-null
  // it is resized and filled on completion.
  void Read(int64_t offset, size_t length, Buffer* out, IoCallback cb);
  void Write(int64_t offset, Buffer data, IoCallback cb);
  // A ring flush when the backend advertises feature-flush-cache; otherwise
  // it completes as soon as it reaches the head of the queue.
  void Flush(IoCallback cb);

  int64_t capacity_bytes() const { return capacity_bytes_; }
  bool indirect_supported() const { return max_indirect_ > 0; }
  bool persistent_supported() const { return persistent_; }

  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t indirect_requests() const { return indirect_requests_; }
  size_t queued_chunks() const { return queue_.size(); }
  // Unacknowledged ring requests requeued across a backend death. Unlike
  // netfront, blkfront never drops: a write that was never acknowledged must
  // eventually execute, or the caller would see success-after-timeout races.
  uint64_t requests_requeued() const { return requests_requeued_; }

 private:
  struct PendingOp {
    int outstanding = 0;     // Ring requests awaiting a response.
    int chunks_pending = 0;  // Chunks not yet submitted to the ring.
    bool ok = true;
    IoCallback cb;
    Buffer* out = nullptr;   // Read destination.
    Buffer data;             // Write source.
    int64_t base_offset = 0;
    size_t length = 0;
    bool is_read = false;
    int64_t start_ns = 0;    // When the op was enqueued (observability).
  };
  struct Chunk {
    std::shared_ptr<PendingOp> op;
    int64_t disk_offset = 0;
    size_t op_offset = 0;  // Byte offset within the op's buffer.
    size_t length = 0;
    bool is_flush = false;
  };
  struct InFlight {
    std::shared_ptr<PendingOp> op;
    std::vector<uint16_t> page_ids;
    size_t op_offset = 0;
    size_t length = 0;
    bool is_read = false;
    bool is_flush = false;
    uint16_t indirect_page_id = 0;
    bool used_indirect = false;
    int64_t submit_ns = 0;     // When the ring request was produced.
    uint32_t ring_index = 0;   // Free-running producer index (flow id).
  };

  // XenbusFrontend: read the backend's features, then publish the ring and
  // both page pools; on backend death requeue the in-flight requests in
  // submission order; once connected, pump the queue.
  void Publish() override;
  void ReleaseBackend() override;
  void OnConnected() override { PumpQueue(); }
  void OnIrq() override;
  void EnqueueOp(std::shared_ptr<PendingOp> op, bool is_flush);
  void PumpQueue();
  bool SubmitChunk(const Chunk& chunk);
  void CompleteRequest(uint64_t id, bool ok);
  void FinishOpPart(const std::shared_ptr<PendingOp>& op, bool ok);

  // Negotiated backend features.
  int64_t capacity_bytes_ = 0;
  bool persistent_ = false;
  bool flush_supported_ = false;
  int max_indirect_ = 0;

  PageRef ring_page_;
  std::shared_ptr<BlkSharedRing> shared_;
  std::unique_ptr<BlkFrontRing> ring_;
  GrantRef ring_gref_ = kInvalidGrantRef;

  // Persistent data-page pool.
  struct PoolPage {
    PageRef page;
    GrantRef gref = kInvalidGrantRef;
  };
  std::vector<PoolPage> pool_;
  std::vector<uint16_t> free_pages_;
  std::vector<PoolPage> indirect_pool_;
  std::vector<uint16_t> free_indirect_;

  uint64_t next_req_id_ = 1;
  std::map<uint64_t, InFlight> in_flight_;
  std::deque<Chunk> queue_;

  SimDuration per_request_cost_ = Nanos(1500);
  double copy_ns_per_byte_ = 0.05;  // ~20 GB/s guest memcpy.

  uint64_t requests_sent_ = 0;
  uint64_t indirect_requests_ = 0;
  uint64_t requests_requeued_ = 0;

  // Registry-backed under (guest domain, xvdN, <name>), ns values:
  // ring request submit → response consumed, and op enqueue → op callback.
  LatencyHistogram* req_ring_ns_;
  LatencyHistogram* op_complete_ns_;
};

}  // namespace kite

#endif  // SRC_BLKDRV_BLKFRONT_H_
