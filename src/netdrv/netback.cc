#include "src/netdrv/netback.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/obs/flow.h"

namespace kite {
namespace {

// Packets processed per CPU quantum before yielding.
constexpr int kBatchLimit = 64;
// Backend-side queue toward a guest; overflow drops the tail (observable as
// UDP loss in the nuttcp benchmark).
constexpr size_t kRxQueueCap = 512;

}  // namespace

// --- NetbackInstance. ---

NetbackInstance::NetbackInstance(Domain* backend, BmkSched* sched,
                                 const OsCostProfile* costs, NetbackParams params,
                                 DomId frontend_dom, int devid)
    : NetIf(StrFormat("vif%d.%d", frontend_dom, devid),
            MacAddr::FromId(0xba0000u | static_cast<uint32_t>(frontend_dom) << 8 |
                            static_cast<uint32_t>(devid))),
      XenbusBackendInstance(backend, sched, costs, kType, frontend_dom, devid),
      params_(params),
      tx_wake_(sched),
      rx_wake_(sched) {
  guest_tx_frames_ = rows_.counter("guest_tx_frames");
  guest_rx_frames_ = rows_.counter("guest_rx_frames");
  rx_queue_drops_ = rows_.counter("rx_queue_drops");
  tx_bad_requests_ = rows_.counter("tx_bad_request");
  rx_copy_fails_ = rows_.counter("rx_copy_fail");
  tx_copy_fails_ = rows_.counter("tx_copy_fail");
  tx_unparseable_ = rows_.counter("tx_unparseable");
  tx_queue_ns_ = rows_.latency("tx_queue_ns");
  tx_service_ns_ = rows_.latency("tx_service_ns");
  rx_queue_ns_ = rows_.latency("rx_queue_ns");
  rx_service_ns_ = rows_.latency("rx_service_ns");
  // A device's rows outlive this instance while another instance of it
  // still holds them (a successor created while a reaped or retired one
  // drains); ring indices do not. Baselines make the per-instance
  // conservation audit exact then. A driver-domain restart destroys every
  // instance first, so the replacement's rows start from zero.
  tx_frames_base_ = guest_tx_frames_->value();
  tx_bad_base_ = tx_bad_requests_->value();
  tx_copy_fail_base_ = tx_copy_fails_->value();
  tx_unparseable_base_ = tx_unparseable_->value();
}

bool NetbackInstance::TxConservationHolds(std::string* detail) const {
  if (tx_ring_ == nullptr) {
    return true;  // Never connected: nothing consumed.
  }
  const uint64_t consumed = tx_ring_->req_cons();
  const uint64_t frames = guest_tx_frames_->value() - tx_frames_base_;
  const uint64_t bad = tx_bad_requests_->value() - tx_bad_base_;
  const uint64_t copy_fail = tx_copy_fails_->value() - tx_copy_fail_base_;
  const uint64_t unparseable = tx_unparseable_->value() - tx_unparseable_base_;
  if (consumed == frames + bad + copy_fail + unparseable) {
    return true;
  }
  if (detail != nullptr) {
    *detail = StrFormat(
        "%s: consumed %llu tx request(s) but resolved %llu "
        "(delivered=%llu bad=%llu copy_fail=%llu unparseable=%llu)",
        ifname().c_str(), static_cast<unsigned long long>(consumed),
        static_cast<unsigned long long>(frames + bad + copy_fail + unparseable),
        static_cast<unsigned long long>(frames), static_cast<unsigned long long>(bad),
        static_cast<unsigned long long>(copy_fail),
        static_cast<unsigned long long>(unparseable));
  }
  return false;
}

bool NetbackInstance::RingsQuiescent(std::string* detail) const {
  return tx_ring_ == nullptr || rx_ring_ == nullptr ||  // Never connected.
         (AuditRing(*tx_ring_, "tx", /*requests_may_wait=*/false, detail) &&
          AuditRing(*rx_ring_, "rx", /*requests_may_wait=*/true, detail));
}

void NetbackInstance::Advertise() { SwitchState(XenbusState::kInitWait); }

void NetbackInstance::CompleteHotplug() { SwitchState(XenbusState::kConnected); }

bool NetbackInstance::Connect() {
  auto tx_ref = backend_->StoreReadInt(frontend_path_ + "/tx-ring-ref");
  auto rx_ref = backend_->StoreReadInt(frontend_path_ + "/rx-ring-ref");
  auto evt = backend_->StoreReadInt(frontend_path_ + "/event-channel");
  auto rx_copy = backend_->StoreReadInt(frontend_path_ + "/request-rx-copy");
  if (!tx_ref || !rx_ref || !evt) {
    return false;
  }
  if (params_.use_hv_copy && (!rx_copy || *rx_copy != 1)) {
    KITE_LOG(Warning) << ifname() << ": frontend does not support rx-copy";
  }

  auto* tx_shared = MapRing<NetTxSharedRing>(*tx_ref, &tx_ring_map_);
  auto* rx_shared = MapRing<NetRxSharedRing>(*rx_ref, &rx_ring_map_);
  if (tx_shared == nullptr || rx_shared == nullptr) {
    return false;
  }
  tx_ring_ = std::make_unique<NetTxBackRing>(tx_shared);
  rx_ring_ = std::make_unique<NetRxBackRing>(rx_shared);

  if (!BindPort(*evt)) {
    return false;
  }

  pusher_last_active_ = soft_start_last_active_ = sched_->executor()->Now();
  SpawnThread([this] { return PusherThread(); });
  SpawnThread([this] { return SoftStartThread(); });
  SetUp(true);
  // Watchdog sampler. Pending work is the Tx ring only: Rx buffers posted by
  // the guest legitimately sit unconsumed while no traffic flows toward it,
  // so counting them as "pending" would flag every idle vif as stalled. The
  // Rx side contributes its backlog (frames queued in rx_pending_) and its
  // progress: rsp_prod is the *sum* of both rings' response producers (each
  // is monotonic, so the sum advances iff either side made progress). Under
  // sustained Rx-only traffic the backlog rarely drains to zero at a probe
  // instant, and without the Rx term every busy probe would look stalled.
  MarkConnected([this] {
    HealthSample s;
    s.connected = connected_;
    if (tx_ring_ != nullptr) {
      s.req_cons = tx_ring_->req_cons();
      s.req_prod = s.req_cons + tx_ring_->UnconsumedRequests();
      s.rsp_prod = tx_ring_->rsp_prod_pvt();
    }
    if (rx_ring_ != nullptr) {
      s.rsp_prod += rx_ring_->rsp_prod_pvt();
    }
    s.queue_depth = static_cast<int>(rx_pending_.size());
    return s;
  });
  return true;
}

void NetbackInstance::WakeThreads() {
  tx_wake_.Signal();
  rx_wake_.Signal();
}

void NetbackInstance::StopIntake(bool shutdown) {
  // Out of the bridge's forwarding set, refusing new frames. A drain still
  // flushes everything already accepted (rx_pending_, consumed Tx requests).
  SetUp(false);
  if (shutdown) {
    rx_pending_.clear();
  }
}

bool NetbackInstance::ReadyToRetire() const {
  if (!draining_) {
    return false;
  }
  if (tx_ring_ == nullptr || rx_ring_ == nullptr) {
    return true;  // Never connected: nothing mapped, nothing owed.
  }
  return AllAnswered(*tx_ring_) && rx_pending_.empty() && AllAnswered(*rx_ring_);
}

void NetbackInstance::RetireGracefully() {
  KITE_CHECK(ReadyToRetire());
  BeginShutdown();
  // Release the ring mappings synchronously, while the frontend is still
  // alive: its EndAccess on the ring grants must find zero active maps, or
  // the refs are deferred forever and the grant ledger leaks.
  tx_ring_.reset();
  rx_ring_.reset();
  tx_ring_map_.Unmap();
  rx_ring_map_.Unmap();
}

SimDuration NetbackInstance::PassLatency() const {
  return params_.dedicated_threads ? costs_->netback_pass_latency : SimDuration(0);
}

void NetbackInstance::PushTxResponses() {
  const bool notify = tx_ring_->PushResponses();
  hv_->recorder().Record(backend_->id(), FlightKind::kRingPush, devid_,
                         tx_ring_->rsp_prod_pvt(), tx_ring_->req_cons());
  if (EventTracer& t = hv_->tracer(); t.enabled()) {
    t.Instant(backend_->id(), frontend_dom_, "ring", "tx_push",
              sched_->executor()->Now(), "notify", notify ? 1 : 0);
  }
  if (notify && port_ != kInvalidPort) {
    hv_->EventSend(backend_, port_, sched_->vcpu());
  }
}

void NetbackInstance::PushRxResponses() {
  const bool notify = rx_ring_->PushResponses();
  hv_->recorder().Record(backend_->id(), FlightKind::kRingPush, devid_,
                         rx_ring_->rsp_prod_pvt(), rx_ring_->req_cons());
  if (EventTracer& t = hv_->tracer(); t.enabled()) {
    t.Instant(backend_->id(), frontend_dom_, "ring", "rx_push",
              sched_->executor()->Now(), "notify", notify ? 1 : 0);
  }
  if (notify && port_ != kInvalidPort) {
    hv_->EventSend(backend_, port_, sched_->vcpu());
  }
}

bool NetbackInstance::CopyFromGuest(GrantRef gref, uint16_t offset, std::span<uint8_t> out) {
  // offset/size are guest-controlled ring fields: validate against the page
  // in *both* modes (the hypervisor rejects too, but the map path used to
  // read out of bounds directly).
  if (offset > kPageSize || out.size() > kPageSize - offset) {
    return false;
  }
  if (params_.use_hv_copy) {
    return hv_->GrantCopyFromGranted(backend_, frontend_dom_, gref, offset, out,
                                     sched_->vcpu());
  }
  MappedGrant map = hv_->GrantMap(backend_, frontend_dom_, gref, /*write_access=*/false,
                                  sched_->vcpu());
  if (!map.valid()) {
    return false;
  }
  std::copy_n(map.page()->bytes().begin() + offset, out.size(), out.begin());
  return true;  // map's destructor unmaps (charging the unmap hypercall).
}

bool NetbackInstance::CopyToGuest(GrantRef gref, std::span<const uint8_t> data) {
  if (data.size() > kPageSize) {
    return false;
  }
  if (params_.use_hv_copy) {
    return hv_->GrantCopyToGranted(backend_, frontend_dom_, gref, 0, data,
                                   sched_->vcpu());
  }
  MappedGrant map = hv_->GrantMap(backend_, frontend_dom_, gref, /*write_access=*/true,
                                  sched_->vcpu());
  if (!map.valid()) {
    return false;
  }
  std::copy(data.begin(), data.end(), map.page()->mutable_bytes().begin());
  return true;
}

Task NetbackInstance::PusherThread() {
  const SimDuration per_packet =
      costs_->netback_per_packet + costs_->syscall_cost * costs_->syscalls_per_packet;
  while (!stopping_) {
    co_await tx_wake_.Wait();
    if (stopping_) {
      break;
    }
    co_await SleepAfterWake(PassLatency(), &pusher_last_active_);
    if (stopping_) {
      break;
    }
    for (;;) {
      int batch = 0;
      while (!draining_ && tx_ring_->HasUnconsumedRequests()) {
        NetTxRequest req = tx_ring_->ConsumeRequest();
        const uint32_t ring_index = tx_ring_->last_consumed_index();
        const int64_t submit_ns = tx_ring_->last_consumed_stamp_ns();
        const SimTime popped = sched_->executor()->Now();
        if (popped.ns() >= submit_ns) {
          tx_queue_ns_->Record(static_cast<uint64_t>(popped.ns() - submit_ns));
        }
        if (EventTracer& t = hv_->tracer(); t.enabled()) {
          t.FlowStep(backend_->id(), frontend_dom_, "net.tx", "tx_pop", popped,
                     MakeFlowId(FlowKind::kNetTx, frontend_dom_, devid_, ring_index),
                     per_packet);
        }
        // req.size/req.offset are guest-controlled: reject out-of-page
        // requests *before* allocating a buffer sized by the guest.
        const bool in_bounds = req.size > 0 && req.offset <= kPageSize &&
                               req.size <= kPageSize - req.offset;
        if (!in_bounds) {
          tx_bad_requests_->Inc();
        }
        // Stage the packet in the per-thread scratch buffer (no per-packet
        // allocation once its capacity reaches one page).
        Buffer& bytes = tx_scratch_;
        bytes.resize(in_bounds ? req.size : 0);
        const bool ok = in_bounds && CopyFromGuest(req.gref, req.offset, bytes);
        if (in_bounds && !ok) {
          tx_copy_fails_->Inc();
        }
        co_await sched_->Run(per_packet, KITE_CPU_CATEGORY("netback/tx"));
        if (stopping_) {
          break;
        }
        NetTxResponse rsp;
        rsp.id = req.id;
        rsp.status = ok ? NetifStatus::kOkay : NetifStatus::kError;
        tx_ring_->ProduceResponse(rsp);
        const SimTime responded = sched_->executor()->Now();
        tx_service_ns_->Record(static_cast<uint64_t>((responded - popped).ns()));
        if (EventTracer& t = hv_->tracer(); t.enabled()) {
          t.FlowStep(backend_->id(), frontend_dom_, "net.tx", "tx_rsp", responded,
                     MakeFlowId(FlowKind::kNetTx, frontend_dom_, devid_, ring_index));
        }
        if (ok) {
          auto frame = ParseEthernet(bytes);
          if (frame.has_value()) {
            guest_tx_frames_->Inc();
            // Hand the frame to the network stack/bridge through the VIF.
            DeliverInput(std::move(*frame));
          } else {
            tx_unparseable_->Inc();
          }
        }
        if (!params_.dedicated_threads || ++batch >= kBatchLimit) {
          PushTxResponses();
          batch = 0;
          co_await sched_->Yield();
          if (stopping_) {
            break;
          }
        }
      }
      if (stopping_) {
        break;
      }
      PushTxResponses();
      if (draining_ || !tx_ring_->FinalCheckForRequests()) {
        break;
      }
    }
    pusher_last_active_ = sched_->executor()->Now();
  }
  ThreadExited();
}

void NetbackInstance::Output(EthernetFrame frame) {
  if (!connected_ || draining_) {
    return;
  }
  if (QueueFull(rx_pending_.size(), kRxQueueCap)) {
    rx_queue_drops_->Inc();
    return;
  }
  rx_pending_.push_back({std::move(frame), sched_->executor()->Now().ns()});
  // The stack callback only wakes soft_start (paper §4.2 "Multiple
  // Threads"); the copy work happens on the thread.
  rx_wake_.Signal();
}

Task NetbackInstance::SoftStartThread() {
  const SimDuration per_packet =
      costs_->netback_per_packet + costs_->syscall_cost * costs_->syscalls_per_packet;
  while (!stopping_) {
    co_await rx_wake_.Wait();
    if (stopping_) {
      break;
    }
    co_await SleepAfterWake(PassLatency(), &soft_start_last_active_);
    if (stopping_) {
      break;
    }
    int batch = 0;
    while (!rx_pending_.empty()) {
      if (!rx_ring_->HasUnconsumedRequests() && !rx_ring_->FinalCheckForRequests()) {
        // No posted guest buffers; wait for the frontend to replenish (we
        // will be woken by its notification).
        break;
      }
      NetRxRequest req = rx_ring_->ConsumeRequest();
      const uint32_t ring_index = rx_ring_->last_consumed_index();
      EthernetFrame frame = std::move(rx_pending_.front().frame);
      const int64_t arrival_ns = rx_pending_.front().arrival_ns;
      rx_pending_.pop_front();
      const SimTime picked = sched_->executor()->Now();
      if (picked.ns() >= arrival_ns) {
        rx_queue_ns_->Record(static_cast<uint64_t>(picked.ns() - arrival_ns));
      }
      if (EventTracer& t = hv_->tracer(); t.enabled()) {
        t.FlowBegin(backend_->id(), frontend_dom_, "net.rx", "rx_service", picked,
                    MakeFlowId(FlowKind::kNetRx, frontend_dom_, devid_, ring_index),
                    per_packet);
      }
      Buffer& bytes = rx_scratch_;
      bytes.clear();
      SerializeEthernetInto(frame, &bytes);
      KITE_CHECK(bytes.size() <= kPageSize);
      const bool ok = CopyToGuest(req.gref, bytes);
      co_await sched_->Run(per_packet, KITE_CPU_CATEGORY("netback/rx"));
      if (stopping_) {
        break;
      }
      NetRxResponse rsp;
      rsp.id = req.id;
      rsp.offset = 0;
      rsp.size = ok ? static_cast<int32_t>(bytes.size())
                    : static_cast<int32_t>(NetifStatus::kError);
      rx_ring_->ProduceResponse(rsp);
      const SimTime responded = sched_->executor()->Now();
      rx_service_ns_->Record(static_cast<uint64_t>((responded - picked).ns()));
      if (EventTracer& t = hv_->tracer(); t.enabled()) {
        t.FlowStep(backend_->id(), frontend_dom_, "net.rx", "rx_rsp", responded,
                   MakeFlowId(FlowKind::kNetRx, frontend_dom_, devid_, ring_index));
      }
      if (ok) {
        // Only a successful copy counts as delivered — a failed copy used to
        // inflate the counter (phantom deliveries under grant faults).
        guest_rx_frames_->Inc();
      } else {
        rx_copy_fails_->Inc();
      }
      if (!params_.dedicated_threads || ++batch >= kBatchLimit) {
        PushRxResponses();
        batch = 0;
        co_await sched_->Yield();
        if (stopping_) {
          break;
        }
      }
    }
    if (stopping_) {
      break;
    }
    PushRxResponses();
    soft_start_last_active_ = sched_->executor()->Now();
  }
  ThreadExited();
}

template class XenbusBackend<NetbackInstance>;

}  // namespace kite
