// Blkback: the block backend driver in a storage driver domain (paper
// §3.3/§4.4).
//
// A dedicated request thread (woken by the event channel, never doing work
// in the handler) consumes ring requests, resolves segments (direct or
// indirect), maps guest pages — through a *persistent grant cache* when
// negotiated, avoiding the map/unmap hypercalls — and submits device
// operations, *batching consecutive segments* of one or more requests into
// single larger device ops. Completions are asynchronous: responses are sent
// from the device callback, so subsequent requests are never blocked by an
// in-flight one.
#ifndef SRC_BLKDRV_BLKBACK_H_
#define SRC_BLKDRV_BLKBACK_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/blk/blkif.h"
#include "src/blk/disk.h"
#include "src/bmk/sched.h"
#include "src/hv/domain.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus.h"
#include "src/hv/xenbus_backend.h"
#include "src/os/profile.h"

namespace kite {

struct BlkbackParams {
  bool persistent_grants = true;   // Ablation: per-request map/unmap when off.
  bool indirect_segments = true;   // Ablation: 11-segment (44 KB) cap when off.
  bool batching = true;            // Ablation: one device op per segment run off.
};

class BlkbackInstance : public XenbusBackendInstance {
 public:
  static constexpr const char* kType = "vbd";
  static constexpr const char* kName = "blkback";

  BlkbackInstance(Domain* backend, BmkSched* sched, const OsCostProfile* costs,
                  BlkbackParams params, BlockDevice* disk, DomId frontend_dom, int devid);
  ~BlkbackInstance() override;

  // Phase 1 (paper §4.4): advertise device properties and features in
  // xenstore, then wait in InitWait for the frontend.
  void Advertise();
  // Phase 2: after the frontend publishes, map the ring and connect.
  bool Connect();

  // Once draining: true when every consumed request has a pushed response
  // (all disk completions landed and were answered). Unconsumed requests
  // are unacknowledged; the frontend requeues and resubmits them after
  // relink, so no acked write is lost.
  bool ReadyToRetire() const { return draining_ && (ring_ == nullptr || AllAnswered(*ring_)); }
  // BeginShutdown plus synchronous release of the ring mapping and the
  // persistent-grant cache. Must run *before* the backend's xenstore subtree
  // is removed: the live frontend's EndAccess on its grants only succeeds
  // once this side holds no active maps.
  void RetireGracefully();

  uint64_t requests_handled() const { return requests_handled_->value(); }
  uint64_t device_ops() const { return device_ops_->value(); }
  uint64_t segments_handled() const { return segments_handled_->value(); }
  uint64_t persistent_hits() const { return persistent_hits_->value(); }
  uint64_t indirect_requests() const { return indirect_requests_->value(); }
  // Ring requests rejected before touching the disk or guest pages:
  // impossible segment counts, inverted or out-of-page sector ranges,
  // out-of-capacity offsets (malformed or malicious ring input).
  uint64_t bad_requests() const { return bad_requests_->value(); }
  // Indirect requests whose descriptor gref failed to map (bogus or revoked
  // gref, or an injected grant fault) — rejected with kError.
  uint64_t indirect_map_fails() const { return indirect_map_fails_->value(); }
  size_t persistent_cache_size() const { return persistent_.size(); }

  // True when the ring is quiet: every published request consumed, exactly
  // one response per consumed request (disk completions all landed), and
  // everything pushed back to the frontend. On false, `detail` (if non-null)
  // says which leg failed.
  bool RingQuiescent(std::string* detail) const;

 private:
  // Per-ring-request completion state.
  struct ReqState {
    uint64_t id = 0;
    BlkOp op = BlkOp::kRead;
    int parts_outstanding = 0;
    bool ok = true;
    uint32_t ring_index = 0;  // Free-running consumer index (flow id).
    int64_t popped_ns = 0;    // When the request left the ring (observability).
  };
  // One segment resolved to a guest page mapping.
  struct ResolvedSeg {
    std::shared_ptr<ReqState> req;
    int64_t disk_offset = 0;
    size_t length = 0;
    Page* page = nullptr;           // Valid for persistent-cached mappings.
    MappedGrant transient;          // Holds the mapping when not persistent.
    size_t page_offset = 0;
  };

  void WakeThreads() override { wake_.Signal(); }
  Task RequestThread();
  // Validates guest-controlled geometry before any page or disk access.
  bool ValidateRequest(const BlkRequest& req, const std::vector<BlkSegment>& segments);
  void ProcessRequest(const BlkRequest& req, std::vector<ResolvedSeg>* run,
                      BlkOp* run_op, uint32_t ring_index, int64_t popped_ns);
  void FlushRun(std::vector<ResolvedSeg>* run, BlkOp op);
  Page* ResolvePage(GrantRef gref, bool write_access, MappedGrant* transient_out);
  void SendResponse(const std::shared_ptr<ReqState>& req);
  void CompletePart(std::vector<ResolvedSeg>& segs, BlkOp op, bool ok, const Buffer& data);
  // Run-vector pool: FlushRun hands each run's storage to the device
  // completion, which returns it here so steady-state request processing
  // stops allocating segment arrays.
  std::vector<ResolvedSeg> TakeRun();
  void RecycleRun(std::vector<ResolvedSeg>&& run);

  BlkbackParams params_;
  BlockDevice* disk_;

  MappedGrant ring_map_;
  std::unique_ptr<BlkBackRing> ring_;
  WakeFlag wake_;
  SimTime last_active_;
  bool frontend_persistent_ = false;

  // Guard for disk-completion callbacks (device ops can outlive the instance
  // across a driver-domain restart).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::map<GrantRef, MappedGrant> persistent_;

  // Reusable request-processing scratch (RequestThread is the only writer;
  // ProcessRequest never suspends while these hold live data).
  std::vector<BlkSegment> seg_scratch_;
  std::vector<std::vector<ResolvedSeg>> run_pool_;

  // Registry-backed under (backend domain, vbdX.Y, <name>).
  Counter* requests_handled_;
  Counter* device_ops_;
  Counter* segments_handled_;
  Counter* persistent_hits_;
  Counter* indirect_requests_;
  Counter* bad_requests_;
  Counter* indirect_map_fails_;
  // Stage latencies (ns): queue = frontend submit → ring pop, service = ring
  // pop → response produced, device = device op submit → completion.
  LatencyHistogram* req_queue_ns_;
  LatencyHistogram* req_service_ns_;
  LatencyHistogram* device_ns_;
};

// Backend invocation (paper §4.1) for vbds: the xenbus backend bus.
using StorageBackendDriver = XenbusBackend<BlkbackInstance>;
extern template class XenbusBackend<BlkbackInstance>;

}  // namespace kite

#endif  // SRC_BLKDRV_BLKBACK_H_
