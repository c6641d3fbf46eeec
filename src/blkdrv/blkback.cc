#include "src/blkdrv/blkback.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/obs/flow.h"

namespace kite {
namespace {

// Indirect segments a request may carry (the frontend's own cap).
constexpr int kMaxIndirect = kBlkMaxIndirectSegments;
// Cap for a coalesced device op.
constexpr size_t kMaxBatchBytes = 1024 * 1024;
// Requests per CPU quantum.
constexpr int kRingBatchLimit = 32;

}  // namespace

// --- BlkbackInstance. ---

BlkbackInstance::BlkbackInstance(Domain* backend, BmkSched* sched,
                                 const OsCostProfile* costs, BlkbackParams params,
                                 BlockDevice* disk, DomId frontend_dom, int devid)
    : XenbusBackendInstance(backend, sched, costs, kType, frontend_dom, devid),
      params_(params),
      disk_(disk),
      wake_(sched) {
  requests_handled_ = rows_.counter("requests_handled");
  device_ops_ = rows_.counter("device_ops");
  segments_handled_ = rows_.counter("segments_handled");
  persistent_hits_ = rows_.counter("persistent_hits");
  indirect_requests_ = rows_.counter("indirect_requests");
  bad_requests_ = rows_.counter("bad_request");
  indirect_map_fails_ = rows_.counter("indirect_map_fail");
  req_queue_ns_ = rows_.latency("req_queue_ns");
  req_service_ns_ = rows_.latency("req_service_ns");
  device_ns_ = rows_.latency("device_ns");
}

BlkbackInstance::~BlkbackInstance() { *alive_ = false; }

bool BlkbackInstance::RingQuiescent(std::string* detail) const {
  return ring_ == nullptr ||  // Never connected.
         AuditRing(*ring_, "blk", /*requests_may_wait=*/false, detail);
}

void BlkbackInstance::Advertise() {
  // Paper §4.4: advertise sector geometry and features via xenstore.
  backend_->StoreWriteInt(backend_path_ + "/sectors",
                          disk_->capacity_bytes() / static_cast<int64_t>(kSectorSize));
  backend_->StoreWriteInt(backend_path_ + "/sector-size", kSectorSize);
  backend_->StoreWriteInt(backend_path_ + "/feature-flush-cache", 1);
  backend_->StoreWriteInt(backend_path_ + "/feature-persistent",
                          params_.persistent_grants ? 1 : 0);
  backend_->StoreWriteInt(backend_path_ + "/feature-max-indirect-segments",
                          params_.indirect_segments ? kMaxIndirect : 0);
  SwitchState(XenbusState::kInitWait);
}

bool BlkbackInstance::Connect() {
  auto ring_ref = backend_->StoreReadInt(frontend_path_ + "/ring-ref");
  auto evt = backend_->StoreReadInt(frontend_path_ + "/event-channel");
  if (!ring_ref || !evt) {
    return false;
  }
  frontend_persistent_ =
      backend_->StoreReadInt(frontend_path_ + "/feature-persistent").value_or(0) == 1;

  auto* shared = MapRing<BlkSharedRing>(*ring_ref, &ring_map_);
  if (shared == nullptr) {
    return false;
  }
  ring_ = std::make_unique<BlkBackRing>(shared);

  // The handler only wakes the request thread (paper §3.3).
  if (!BindPort(*evt)) {
    return false;
  }

  last_active_ = sched_->executor()->Now();
  SpawnThread([this] { return RequestThread(); });
  SwitchState(XenbusState::kConnected);
  // Watchdog sampler. queue_depth counts requests consumed off the ring but
  // not yet answered — exactly the in-flight disk work. A hung controller
  // freezes rsp_prod while queue_depth stays positive, which is the stall
  // signature the monitor keys on.
  MarkConnected([this] {
    HealthSample s;
    s.connected = connected_;
    if (ring_ != nullptr) {
      s.req_cons = ring_->req_cons();
      s.req_prod = s.req_cons + ring_->UnconsumedRequests();
      s.rsp_prod = ring_->rsp_prod_pvt();
      s.queue_depth = static_cast<int>(ring_->req_cons() - ring_->rsp_prod_pvt());
    }
    return s;
  });
  return true;
}

void BlkbackInstance::RetireGracefully() {
  KITE_CHECK(ReadyToRetire());
  BeginShutdown();
  // Release the ring mapping and the persistent-grant cache synchronously,
  // while the frontend is still alive: its EndAccess must find zero active
  // maps, or the refs are deferred forever and the grant ledger leaks.
  persistent_.clear();
  ring_.reset();
  ring_map_.Unmap();
}

Page* BlkbackInstance::ResolvePage(GrantRef gref, bool write_access,
                                   MappedGrant* transient_out) {
  const bool use_persistent = params_.persistent_grants && frontend_persistent_;
  if (use_persistent) {
    auto it = persistent_.find(gref);
    if (it != persistent_.end()) {
      persistent_hits_->Inc();
      return it->second.page();
    }
  }
  MappedGrant map = hv_->GrantMap(backend_, frontend_dom_, gref, write_access);
  if (!map.valid()) {
    return nullptr;
  }
  Page* page = map.page();
  if (use_persistent) {
    // Persistent referencing (paper §3.3): retain the mapping keyed by gref
    // so future requests reuse it without map/unmap hypercalls.
    persistent_.emplace(gref, std::move(map));
  } else {
    *transient_out = std::move(map);
  }
  return page;
}

Task BlkbackInstance::RequestThread() {
  // Hoisted run accumulator: capacity persists across wakeups (FlushRun
  // refills it from the run pool after handing its storage to the device).
  std::vector<ResolvedSeg> run;
  while (!stopping_) {
    co_await wake_.Wait();
    if (stopping_) {
      break;
    }
    co_await SleepAfterWake(costs_->blkback_pass_latency, &last_active_);
    if (stopping_) {
      break;
    }
    for (;;) {
      int batch = 0;
      BlkOp run_op = BlkOp::kRead;
      while (!stopping_ && !draining_ && ring_->HasUnconsumedRequests()) {
        BlkRequest req = ring_->ConsumeRequest();
        const uint32_t ring_index = ring_->last_consumed_index();
        const int64_t submit_ns = ring_->last_consumed_stamp_ns();
        const SimTime popped = sched_->executor()->Now();
        if (popped.ns() >= submit_ns) {
          req_queue_ns_->Record(static_cast<uint64_t>(popped.ns() - submit_ns));
        }
        const SimDuration req_cost =
            costs_->blkback_per_request +
            costs_->syscall_cost * costs_->syscalls_per_block_request;
        if (EventTracer& t = hv_->tracer(); t.enabled()) {
          t.FlowStep(backend_->id(), frontend_dom_, "blk", "req_pop", popped,
                     MakeFlowId(FlowKind::kBlk, frontend_dom_, devid_, ring_index),
                     req_cost);
        }
        co_await sched_->Run(req_cost, KITE_CPU_CATEGORY("blkback/request"));
        if (stopping_) {
          break;
        }
        ProcessRequest(req, &run, &run_op, ring_index, popped.ns());
        if (++batch >= kRingBatchLimit) {
          FlushRun(&run, run_op);
          batch = 0;
          co_await sched_->Yield();
        }
      }
      FlushRun(&run, run_op);
      if (stopping_ || draining_ || !ring_->FinalCheckForRequests()) {
        break;
      }
    }
    last_active_ = sched_->executor()->Now();
  }
  ThreadExited();
}

bool BlkbackInstance::ValidateRequest(const BlkRequest& req,
                                      const std::vector<BlkSegment>& segments) {
  // All of these fields are guest controlled; reject before any page or disk
  // access. The capacity bound also keeps the int64 byte-offset arithmetic
  // below from overflowing.
  const uint64_t capacity_sectors =
      static_cast<uint64_t>(disk_->capacity_bytes()) / kSectorSize;
  uint64_t total_sectors = 0;
  for (const BlkSegment& seg : segments) {
    // Inverted ranges would underflow seg.bytes(); sectors past the page end
    // would read or write beyond the granted page.
    if (seg.first_sect > seg.last_sect || seg.last_sect >= kSectorsPerPage) {
      return false;
    }
    total_sectors += static_cast<uint64_t>(seg.last_sect) - seg.first_sect + 1;
  }
  // The whole request — not just its first sector — must lie within the
  // disk, or BlockDevice::Submit's capacity KITE_CHECK becomes guest
  // reachable. Subtraction form so sector_number + total_sectors can't wrap.
  if (total_sectors > capacity_sectors ||
      req.sector_number > capacity_sectors - total_sectors) {
    return false;
  }
  return true;
}

void BlkbackInstance::ProcessRequest(const BlkRequest& req, std::vector<ResolvedSeg>* run,
                                     BlkOp* run_op, uint32_t ring_index,
                                     int64_t popped_ns) {
  requests_handled_->Inc();
  auto state = std::make_shared<ReqState>();
  state->id = req.id;
  state->ring_index = ring_index;
  state->popped_ns = popped_ns;

  // Resolve the segment list into the reusable scratch (no suspension point
  // below touches it, so one per instance suffices).
  BlkOp op = req.op;
  std::vector<BlkSegment>& segments = seg_scratch_;
  segments.clear();
  if (req.op == BlkOp::kIndirect) {
    if (!params_.indirect_segments) {
      // Indirect was never advertised; a frontend sending it anyway is
      // misbehaving.
      bad_requests_->Inc();
      state->op = req.indirect_op;
      state->parts_outstanding = 0;
      state->ok = false;
      SendResponse(state);
      return;
    }
    indirect_requests_->Inc();
    op = req.indirect_op;
    // Map the indirect descriptor page and parse up to 512 segments per page
    // (paper §4.4 "Indirect Segment").
    MappedGrant ind_transient;
    Page* ind_page = ResolvePage(req.indirect_gref, /*write_access=*/false, &ind_transient);
    auto* seg_page = ind_page != nullptr ? ind_page->As<IndirectSegmentPage>() : nullptr;
    if (seg_page == nullptr ||
        req.nr_indirect_segments > static_cast<uint16_t>(kMaxIndirect) ||
        req.nr_indirect_segments > seg_page->size()) {
      if (seg_page != nullptr) {
        // The descriptor mapped fine but the count is impossible.
        bad_requests_->Inc();
      } else {
        // Bogus/revoked descriptor gref (or an injected grant fault): kept
        // on its own counter so guest-caused rejections stay observable
        // without conflating them with shape-invalid requests.
        indirect_map_fails_->Inc();
      }
      state->op = op;
      state->ok = false;
      SendResponse(state);
      return;
    }
    segments.assign(seg_page->begin(), seg_page->begin() + req.nr_indirect_segments);
  } else if (req.op == BlkOp::kFlush) {
    state->op = BlkOp::kFlush;
    state->parts_outstanding = 1;
    DiskRequest flush;
    flush.op = DiskOp::kFlush;
    const int64_t flush_submit_ns = sched_->executor()->Now().ns();
    flush.done = [this, alive = alive_, state, flush_submit_ns](bool ok, Buffer) {
      if (!*alive) {
        return;
      }
      const int64_t done_ns = sched_->executor()->Now().ns();
      if (done_ns >= flush_submit_ns) {
        device_ns_->Record(static_cast<uint64_t>(done_ns - flush_submit_ns));
      }
      if (!ok) {
        state->ok = false;
      }
      if (--state->parts_outstanding == 0) {
        SendResponse(state);
      }
    };
    device_ops_->Inc();
    disk_->Submit(std::move(flush));
    return;
  } else {
    // nr_segments is a raw uint8_t off the ring; reading past the 11-slot
    // embedded array would be out of bounds.
    if (req.nr_segments > kBlkMaxDirectSegments) {
      bad_requests_->Inc();
      state->op = req.op;
      state->ok = false;
      SendResponse(state);
      return;
    }
    segments.assign(req.segments.begin(), req.segments.begin() + req.nr_segments);
  }
  state->op = op;
  if (!ValidateRequest(req, segments)) {
    bad_requests_->Inc();
    state->ok = false;
    SendResponse(state);
    return;
  }

  // Resolve each segment to a mapped page and append to the current run,
  // flushing whenever contiguity breaks (batching, paper §3.3).
  int64_t disk_offset = static_cast<int64_t>(req.sector_number) * kSectorSize;
  for (const BlkSegment& seg : segments) {
    segments_handled_->Inc();
    {
      CpuScope cpu_scope(KITE_CPU_CATEGORY("blkback/request"));
      backend_->vcpu(0)->Charge(costs_->blkback_per_segment);
    }
    ResolvedSeg resolved;
    resolved.req = state;
    resolved.disk_offset = disk_offset;
    resolved.length = seg.bytes();
    resolved.page_offset = static_cast<size_t>(seg.first_sect) * kSectorSize;
    resolved.page = ResolvePage(seg.gref, op == BlkOp::kRead, &resolved.transient);
    if (resolved.page == nullptr) {
      state->ok = false;
      disk_offset += static_cast<int64_t>(resolved.length);
      continue;
    }
    // Does this segment extend the current run?
    bool extends = params_.batching && !run->empty() && *run_op == op;
    if (extends) {
      const ResolvedSeg& tail = run->back();
      const int64_t run_end = tail.disk_offset + static_cast<int64_t>(tail.length);
      size_t run_bytes = static_cast<size_t>(
          run_end - run->front().disk_offset);
      extends = run_end == resolved.disk_offset &&
                run_bytes + resolved.length <= kMaxBatchBytes;
    }
    if (!extends) {
      FlushRun(run, *run_op);
      *run_op = op;
    }
    ++state->parts_outstanding;
    run->push_back(std::move(resolved));
    disk_offset += static_cast<int64_t>(run->back().length);
  }

  if (state->parts_outstanding == 0) {
    // Nothing submitted (all segments failed, or empty request).
    SendResponse(state);
  }
}

std::vector<BlkbackInstance::ResolvedSeg> BlkbackInstance::TakeRun() {
  if (run_pool_.empty()) {
    return {};
  }
  std::vector<ResolvedSeg> run = std::move(run_pool_.back());
  run_pool_.pop_back();
  return run;
}

void BlkbackInstance::RecycleRun(std::vector<ResolvedSeg>&& run) {
  run.clear();
  if (run_pool_.size() < 8) {
    run_pool_.push_back(std::move(run));
  }
}

void BlkbackInstance::FlushRun(std::vector<ResolvedSeg>* run, BlkOp op) {
  if (run->empty()) {
    return;
  }
  std::vector<ResolvedSeg> segs = std::move(*run);
  *run = TakeRun();

  const int64_t offset = segs.front().disk_offset;
  size_t total = 0;
  for (const ResolvedSeg& s : segs) {
    total += s.length;
  }

  DiskRequest dev;
  dev.op = op == BlkOp::kRead ? DiskOp::kRead : DiskOp::kWrite;
  dev.offset = offset;
  dev.length = total;
  const int64_t dev_submit_ns = sched_->executor()->Now().ns();
  if (op == BlkOp::kWrite && disk_->store_data()) {
    // Gather write payload from the (mapped) guest pages.
    dev.data.reserve(total);
    for (const ResolvedSeg& s : segs) {
      const auto src = s.page->bytes().subspan(s.page_offset, s.length);
      dev.data.insert(dev.data.end(), src.begin(), src.end());
    }
  }
  device_ops_->Inc();
  // NetBSD's buffer callback (paper §4.4 "Response"): the device driver
  // invokes this on completion; we respond and release mappings there.
  // (shared_ptr because std::function requires copyable callables.)
  auto segs_ptr = std::make_shared<std::vector<ResolvedSeg>>(std::move(segs));
  dev.done = [this, alive = alive_, op, segs_ptr, dev_submit_ns](bool ok, Buffer data) {
    if (!*alive) {
      return;
    }
    const int64_t done_ns = sched_->executor()->Now().ns();
    if (done_ns >= dev_submit_ns) {
      device_ns_->Record(static_cast<uint64_t>(done_ns - dev_submit_ns));
    }
    CompletePart(*segs_ptr, op, ok, data);
    RecycleRun(std::move(*segs_ptr));
  };
  disk_->Submit(std::move(dev));
}

void BlkbackInstance::CompletePart(std::vector<ResolvedSeg>& segs, BlkOp op, bool ok,
                                   const Buffer& data) {
  // Completion-side CPU cost (response handling).
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("blkback/request"));
    backend_->vcpu(0)->Charge(Nanos(600));
  }
  size_t data_pos = 0;
  for (ResolvedSeg& s : segs) {
    if (op == BlkOp::kRead && !data.empty() && s.page != nullptr) {
      // Scatter read data into the guest page.
      const size_t n = std::min(s.length, data.size() - data_pos);
      std::copy_n(data.begin() + data_pos, n,
                  s.page->mutable_bytes().begin() + s.page_offset);
    }
    data_pos += s.length;
    // Transient mappings are released here (unmap hypercall charged);
    // persistent mappings are retained in the cache.
    s.transient.Unmap();
    if (!ok) {
      s.req->ok = false;
    }
    if (--s.req->parts_outstanding == 0) {
      SendResponse(s.req);
    }
  }
}

void BlkbackInstance::SendResponse(const std::shared_ptr<ReqState>& req) {
  BlkResponse rsp;
  rsp.id = req->id;
  rsp.op = req->op;
  rsp.status = req->ok ? BlkStatus::kOkay : BlkStatus::kError;
  ring_->ProduceResponse(rsp);
  const SimTime now = sched_->executor()->Now();
  if (now.ns() >= req->popped_ns) {
    req_service_ns_->Record(static_cast<uint64_t>(now.ns() - req->popped_ns));
  }
  if (EventTracer& t = hv_->tracer(); t.enabled()) {
    t.FlowStep(backend_->id(), frontend_dom_, "blk", "rsp_push", now,
               MakeFlowId(FlowKind::kBlk, frontend_dom_, devid_, req->ring_index));
  }
  // Late disk completions can land after BeginShutdown closed the port.
  const bool notify = ring_->PushResponses();
  hv_->recorder().Record(backend_->id(), FlightKind::kRingPush, devid_, ring_->rsp_prod_pvt(),
                         ring_->req_cons());
  if (notify && port_ != kInvalidPort) {
    hv_->EventSend(backend_, port_);
  }
}

template class XenbusBackend<BlkbackInstance>;

}  // namespace kite
