#include "src/blkdrv/blkfront.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/obs/flow.h"

namespace kite {
namespace {

// Data pages kept persistently granted: enough to fill the ring with
// maximum-sized indirect requests.
constexpr size_t kPoolPages = kBlkRingSize * kBlkMaxIndirectSegments;
constexpr size_t kIndirectPoolPages = kBlkRingSize;

}  // namespace

Blkfront::Blkfront(Domain* guest, DomId backend_dom, int devid)
    : XenbusFrontend(guest, backend_dom, DeviceKind::kVbd, devid) {
  req_ring_ns_ = rows_.latency("req_ring_ns");
  op_complete_ns_ = rows_.latency("op_complete_ns");
  Start();
}

void Blkfront::ReleaseBackend() {
  // Requeue every unacknowledged request at the FRONT of the chunk queue in
  // original submission order (the in_flight_ map is keyed by monotonically
  // increasing ids, so reverse iteration + push_front preserves order).
  // Writes the backend acked are already durable on the physical disk, which
  // survives the crash; requeued writes simply re-execute — idempotent — so
  // no acknowledged write is ever lost and no unacked write vanishes.
  for (auto it = in_flight_.rbegin(); it != in_flight_.rend(); ++it) {
    InFlight& f = it->second;
    Chunk chunk;
    chunk.op = f.op;
    chunk.op_offset = f.op_offset;
    chunk.disk_offset = f.op->base_offset + static_cast<int64_t>(f.op_offset);
    chunk.length = f.length;
    chunk.is_flush = f.is_flush;
    --f.op->outstanding;
    ++f.op->chunks_pending;
    ++requests_requeued_;
    queue_.push_front(std::move(chunk));
  }
  in_flight_.clear();
  // Reclaim every granted page, then drop the ring and pools; they are
  // rebuilt against the replacement backend's feature set.
  for (PoolPage& p : pool_) {
    guest_->grant_table().EndAccess(p.gref);
  }
  for (PoolPage& p : indirect_pool_) {
    guest_->grant_table().EndAccess(p.gref);
  }
  guest_->grant_table().EndAccess(ring_gref_);
  ring_gref_ = kInvalidGrantRef;
  pool_.clear();
  indirect_pool_.clear();
  free_pages_.clear();
  free_indirect_.clear();
  ring_.reset();
  shared_.reset();
  ring_page_.reset();
}

void Blkfront::Publish() {
  // Read the backend's advertised properties (paper §4.4 "Initialization").
  capacity_bytes_ =
      guest_->StoreReadInt(backend_path_ + "/sectors").value_or(0) *
      static_cast<int64_t>(kSectorSize);
  persistent_ = guest_->StoreReadInt(backend_path_ + "/feature-persistent").value_or(0) == 1;
  flush_supported_ =
      guest_->StoreReadInt(backend_path_ + "/feature-flush-cache").value_or(0) == 1;
  max_indirect_ = static_cast<int>(
      guest_->StoreReadInt(backend_path_ + "/feature-max-indirect-segments").value_or(0));
  if (max_indirect_ > kBlkMaxIndirectSegments) {
    max_indirect_ = kBlkMaxIndirectSegments;
  }

  ring_page_ = AllocPage();
  shared_ = std::make_shared<BlkSharedRing>(kBlkRingSize);
  ring_page_->object = shared_;
  ring_ = std::make_unique<BlkFrontRing>(shared_.get());
  ring_gref_ = guest_->grant_table().GrantAccess(backend_dom_, ring_page_, false);

  pool_.resize(kPoolPages);
  for (uint16_t i = 0; i < kPoolPages; ++i) {
    pool_[i].page = AllocPage();
    pool_[i].gref = guest_->grant_table().GrantAccess(backend_dom_, pool_[i].page, false);
    free_pages_.push_back(i);
  }
  indirect_pool_.resize(kIndirectPoolPages);
  for (uint16_t i = 0; i < kIndirectPoolPages; ++i) {
    indirect_pool_[i].page = AllocPage();
    indirect_pool_[i].gref =
        guest_->grant_table().GrantAccess(backend_dom_, indirect_pool_[i].page, true);
    free_indirect_.push_back(i);
  }

  OpenEventChannel();

  guest_->StoreWriteInt(frontend_path_ + "/ring-ref", ring_gref_);
  guest_->StoreWriteInt(frontend_path_ + "/event-channel", port_);
  guest_->StoreWrite(frontend_path_ + "/protocol", "x86_64-abi");
  guest_->StoreWriteInt(frontend_path_ + "/feature-persistent", persistent_ ? 1 : 0);
}

void Blkfront::Read(int64_t offset, size_t length, Buffer* out, IoCallback cb) {
  KITE_CHECK(offset % kSectorSize == 0 && length % kSectorSize == 0)
      << "block I/O must be sector-aligned";
  auto op = std::make_shared<PendingOp>();
  op->cb = std::move(cb);
  op->out = out;
  op->base_offset = offset;
  op->length = length;
  op->is_read = true;
  if (out != nullptr) {
    out->assign(length, 0);
  }
  EnqueueOp(std::move(op), /*is_flush=*/false);
}

void Blkfront::Write(int64_t offset, Buffer data, IoCallback cb) {
  KITE_CHECK(offset % kSectorSize == 0 && data.size() % kSectorSize == 0)
      << "block I/O must be sector-aligned";
  auto op = std::make_shared<PendingOp>();
  op->cb = std::move(cb);
  op->data = std::move(data);
  op->base_offset = offset;
  op->length = op->data.size();
  op->is_read = false;
  EnqueueOp(std::move(op), /*is_flush=*/false);
}

void Blkfront::Flush(IoCallback cb) {
  auto op = std::make_shared<PendingOp>();
  op->cb = std::move(cb);
  op->length = 0;
  EnqueueOp(std::move(op), /*is_flush=*/true);
}

void Blkfront::EnqueueOp(std::shared_ptr<PendingOp> op, bool is_flush) {
  op->start_ns = hv_->executor()->Now().ns();
  if (is_flush || op->length == 0) {
    Chunk chunk;
    op->chunks_pending = 1;
    chunk.op = std::move(op);
    chunk.is_flush = true;
    queue_.push_back(std::move(chunk));
    PumpQueue();
    return;
  }
  // Split into chunks of at most one ring request each.
  const size_t max_chunk =
      (max_indirect_ > 0 ? static_cast<size_t>(max_indirect_)
                         : static_cast<size_t>(kBlkMaxDirectSegments)) *
      kPageSize;
  size_t op_offset = 0;
  while (op_offset < op->length) {
    Chunk chunk;
    chunk.op = op;
    chunk.disk_offset = op->base_offset + static_cast<int64_t>(op_offset);
    chunk.op_offset = op_offset;
    chunk.length = std::min(max_chunk, op->length - op_offset);
    op_offset += chunk.length;
    ++op->chunks_pending;
    queue_.push_back(std::move(chunk));
  }
  PumpQueue();
}

void Blkfront::PumpQueue() {
  if (!connected_) {
    return;
  }
  bool pushed = false;
  while (!queue_.empty()) {
    if (queue_.front().is_flush && !flush_supported_) {
      // A backend without feature-flush-cache has no volatile cache to
      // flush: complete locally, without a ring request, as Linux blkfront
      // does. Popped first, since the callback may enqueue more I/O.
      std::shared_ptr<PendingOp> op = std::move(queue_.front().op);
      queue_.pop_front();
      --op->chunks_pending;
      ++op->outstanding;
      FinishOpPart(op, /*ok=*/true);
      continue;
    }
    if (!SubmitChunk(queue_.front())) {
      break;  // Ring or pool exhausted; retried on the next response.
    }
    queue_.pop_front();
    pushed = true;
  }
  if (pushed && ring_->PushRequests()) {
    hv_->EventSend(guest_, port_);
  }
}

bool Blkfront::SubmitChunk(const Chunk& chunk) {
  if (ring_->Full()) {
    return false;
  }
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("blkfront/io"));
    guest_->vcpu(0)->Charge(per_request_cost_);
  }

  const uint64_t id = next_req_id_++;
  BlkRequest req;
  req.id = id;
  req.sector_number = static_cast<uint64_t>(chunk.disk_offset) / kSectorSize;

  InFlight inflight;
  inflight.op = chunk.op;
  inflight.op_offset = chunk.op_offset;
  inflight.length = chunk.length;
  inflight.is_read = chunk.op->is_read;
  inflight.is_flush = chunk.is_flush;

  if (chunk.is_flush) {
    req.op = BlkOp::kFlush;
    req.nr_segments = 0;
  } else {
    // Build segments over pool pages.
    const size_t pages_needed = (chunk.length + kPageSize - 1) / kPageSize;
    const bool need_indirect = pages_needed > kBlkMaxDirectSegments;
    if (need_indirect && (max_indirect_ == 0 || free_indirect_.empty())) {
      return false;  // Shouldn't happen: chunks sized to capability.
    }
    if (free_pages_.size() < pages_needed) {
      return false;
    }
    std::vector<BlkSegment> segs;
    segs.reserve(pages_needed);
    size_t remaining = chunk.length;
    size_t chunk_pos = 0;
    for (size_t p = 0; p < pages_needed; ++p) {
      const uint16_t page_id = free_pages_.back();
      free_pages_.pop_back();
      inflight.page_ids.push_back(page_id);
      const size_t n = std::min(kPageSize, remaining);
      BlkSegment seg;
      seg.gref = pool_[page_id].gref;
      seg.first_sect = 0;
      seg.last_sect = static_cast<uint8_t>((n + kSectorSize - 1) / kSectorSize - 1);
      segs.push_back(seg);
      if (!chunk.op->is_read) {
        // Copy write payload into the granted page.
        const size_t avail = chunk.op->data.size() - (chunk.op_offset + chunk_pos);
        const size_t copy_n = std::min(n, avail);
        std::copy_n(chunk.op->data.begin() + chunk.op_offset + chunk_pos, copy_n,
                    pool_[page_id].page->mutable_bytes().begin());
      }
      remaining -= n;
      chunk_pos += n;
    }
    {
      CpuScope cpu_scope(KITE_CPU_CATEGORY("blkfront/io"));
      guest_->vcpu(0)->Charge(
          Nanos(static_cast<int64_t>(copy_ns_per_byte_ * chunk.length)));
    }

    if (need_indirect) {
      const uint16_t ind_id = free_indirect_.back();
      free_indirect_.pop_back();
      inflight.indirect_page_id = ind_id;
      inflight.used_indirect = true;
      auto seg_page = std::make_shared<IndirectSegmentPage>(std::move(segs));
      indirect_pool_[ind_id].page->object = seg_page;
      req.op = BlkOp::kIndirect;
      req.indirect_op = chunk.op->is_read ? BlkOp::kRead : BlkOp::kWrite;
      req.indirect_gref = indirect_pool_[ind_id].gref;
      req.nr_indirect_segments = static_cast<uint16_t>(seg_page->size());
      ++indirect_requests_;
    } else {
      req.op = chunk.op->is_read ? BlkOp::kRead : BlkOp::kWrite;
      req.nr_segments = static_cast<uint8_t>(segs.size());
      std::copy(segs.begin(), segs.end(), req.segments.begin());
    }
  }

  ++chunk.op->outstanding;
  --chunk.op->chunks_pending;
  const SimTime now = hv_->executor()->Now();
  const uint32_t ring_index = ring_->req_prod_pvt();
  inflight.submit_ns = now.ns();
  inflight.ring_index = ring_index;
  in_flight_[id] = std::move(inflight);
  ring_->ProduceRequest(req, now.ns());
  ++requests_sent_;
  if (EventTracer& t = hv_->tracer(); t.enabled()) {
    t.FlowBegin(guest_->id(), 0, "blk", "req_submit", now,
                MakeFlowId(FlowKind::kBlk, guest_->id(), devid_, ring_index),
                per_request_cost_);
  }
  return true;
}

void Blkfront::OnIrq() {
  bool progressed = false;
  do {
    while (ring_->HasUnconsumedResponses()) {
      BlkResponse rsp = ring_->ConsumeResponse();
      CompleteRequest(rsp.id, rsp.status == BlkStatus::kOkay);
      progressed = true;
    }
  } while (ring_->FinalCheckForResponses());
  if (progressed) {
    PumpQueue();
  }
}

void Blkfront::CompleteRequest(uint64_t id, bool ok) {
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) {
    return;
  }
  InFlight inflight = std::move(it->second);
  in_flight_.erase(it);

  const SimTime now = hv_->executor()->Now();
  if (now.ns() >= inflight.submit_ns) {
    req_ring_ns_->Record(static_cast<uint64_t>(now.ns() - inflight.submit_ns));
  }
  if (EventTracer& t = hv_->tracer(); t.enabled()) {
    t.FlowEnd(guest_->id(), 0, "blk", "req_complete", now,
              MakeFlowId(FlowKind::kBlk, guest_->id(), devid_, inflight.ring_index),
              per_request_cost_);
  }

  if (inflight.is_read && ok) {
    {
      CpuScope cpu_scope(KITE_CPU_CATEGORY("blkfront/io"));
      guest_->vcpu(0)->Charge(
          Nanos(static_cast<int64_t>(copy_ns_per_byte_ * inflight.length)));
    }
    if (inflight.op->out != nullptr) {
      size_t copied = 0;
      for (uint16_t page_id : inflight.page_ids) {
        const size_t n = std::min(kPageSize, inflight.length - copied);
        std::copy_n(pool_[page_id].page->bytes().begin(), n,
                    inflight.op->out->begin() + inflight.op_offset + copied);
        copied += n;
        if (copied >= inflight.length) {
          break;
        }
      }
    }
  }
  // Return pool pages. (With persistent grants the grant itself stays.)
  for (uint16_t page_id : inflight.page_ids) {
    free_pages_.push_back(page_id);
  }
  if (inflight.used_indirect) {
    free_indirect_.push_back(inflight.indirect_page_id);
  }
  FinishOpPart(inflight.op, ok);
}

void Blkfront::FinishOpPart(const std::shared_ptr<PendingOp>& op, bool ok) {
  if (!ok) {
    op->ok = false;
  }
  --op->outstanding;
  // The op completes when every chunk has been submitted and responded. A
  // chunk still in queue_ keeps the op alive through its shared_ptr.
  if (op->outstanding == 0 && op->chunks_pending == 0) {
    const int64_t now_ns = hv_->executor()->Now().ns();
    if (now_ns >= op->start_ns) {
      op_complete_ns_->Record(static_cast<uint64_t>(now_ns - op->start_ns));
    }
    if (op->cb) {
      auto cb = std::move(op->cb);
      op->cb = nullptr;
      cb(op->ok);
    }
  }
}

}  // namespace kite
