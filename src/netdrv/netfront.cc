#include "src/netdrv/netfront.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/obs/flow.h"

namespace kite {

namespace {

// Per-frame guest-side processing cost (serialize + driver work).
constexpr SimDuration kFrameCost = Nanos(400);

}  // namespace

Netfront::Netfront(Domain* guest, DomId backend_dom, int devid, MacAddr mac)
    : NetIf(StrFormat("xn%d", devid), mac),
      XenbusFrontend(guest, backend_dom, DeviceKind::kVif, devid) {
  tx_dropped_ = rows_.counter("tx_dropped");
  rx_errors_ = rows_.counter("rx_errors");
  recovery_drops_ = rows_.counter("recovery_drops");
  rx_bad_responses_ = rows_.counter("rx_bad_response");
  tx_complete_ns_ = rows_.latency("tx_complete_ns");
  Start();
}

void Netfront::Publish() {
  // Allocate rings in shared pages and attach the ring objects to them.
  tx_ring_page_ = AllocPage();
  rx_ring_page_ = AllocPage();
  tx_shared_ = std::make_shared<NetTxSharedRing>(kNetRingSize);
  rx_shared_ = std::make_shared<NetRxSharedRing>(kNetRingSize);
  tx_ring_page_->object = tx_shared_;
  rx_ring_page_->object = rx_shared_;
  tx_ring_ = std::make_unique<NetTxFrontRing>(tx_shared_.get());
  rx_ring_ = std::make_unique<NetRxFrontRing>(rx_shared_.get());
  tx_ring_gref_ = guest_->grant_table().GrantAccess(backend_dom_, tx_ring_page_, false);
  rx_ring_gref_ = guest_->grant_table().GrantAccess(backend_dom_, rx_ring_page_, false);

  // Data pools: tx pages are granted read-only (backend copies out of them);
  // rx pages writable (backend copies into them).
  tx_slots_.resize(kNetRingSize);
  rx_slots_.resize(kNetRingSize);
  for (uint16_t i = 0; i < kNetRingSize; ++i) {
    tx_slots_[i].page = AllocPage();
    tx_slots_[i].gref =
        guest_->grant_table().GrantAccess(backend_dom_, tx_slots_[i].page, true);
    tx_free_ids_.push_back(i);
    rx_slots_[i].page = AllocPage();
    rx_slots_[i].gref =
        guest_->grant_table().GrantAccess(backend_dom_, rx_slots_[i].page, false);
    rx_free_ids_.push_back(i);
  }

  // Event channel: allocate unbound for the backend to bind.
  OpenEventChannel();

  // Publish connection parameters (paper §4.2 "Initialization").
  guest_->StoreWriteInt(frontend_path_ + "/tx-ring-ref", tx_ring_gref_);
  guest_->StoreWriteInt(frontend_path_ + "/rx-ring-ref", rx_ring_gref_);
  guest_->StoreWriteInt(frontend_path_ + "/event-channel", port_);
  guest_->StoreWrite(frontend_path_ + "/mac", mac().ToString());
  guest_->StoreWriteInt(frontend_path_ + "/request-rx-copy", 1);

  // Pre-post the full Rx ring so the backend can deliver immediately.
  PostRxBuffers();
}

void Netfront::ReleaseBackend() {
  SetUp(false);
  // In-flight tx frames die with the backend — acceptable for a NIC (the
  // wire can always lose frames; transport protocols retransmit).
  for (const Slot& slot : tx_slots_) {
    if (slot.in_use) {
      recovery_drops_->Inc();
    }
  }
  // Reclaim every granted page.
  for (Slot& slot : tx_slots_) {
    guest_->grant_table().EndAccess(slot.gref);
  }
  for (Slot& slot : rx_slots_) {
    guest_->grant_table().EndAccess(slot.gref);
  }
  guest_->grant_table().EndAccess(tx_ring_gref_);
  guest_->grant_table().EndAccess(rx_ring_gref_);
  tx_ring_gref_ = kInvalidGrantRef;
  rx_ring_gref_ = kInvalidGrantRef;
  tx_slots_.clear();
  rx_slots_.clear();
  tx_free_ids_.clear();
  rx_free_ids_.clear();
  tx_ring_.reset();
  rx_ring_.reset();
  tx_shared_.reset();
  rx_shared_.reset();
  tx_ring_page_.reset();
  rx_ring_page_.reset();
}

void Netfront::PostRxBuffers() {
  bool posted = false;
  while (!rx_free_ids_.empty() && !rx_ring_->Full()) {
    uint16_t id = rx_free_ids_.back();
    rx_free_ids_.pop_back();
    rx_slots_[id].in_use = true;
    NetRxRequest req;
    req.id = id;
    req.gref = rx_slots_[id].gref;
    rx_ring_->ProduceRequest(req);
    posted = true;
  }
  if (posted && rx_ring_->PushRequests() && connected_) {
    hv_->EventSend(guest_, port_);
  }
}

void Netfront::Output(EthernetFrame frame) {
  if (!connected_ || tx_free_ids_.empty() || tx_ring_->Full()) {
    tx_dropped_->Inc();
    return;
  }
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("netfront/io"));
    guest_->vcpu(0)->Charge(kFrameCost);
  }
  uint16_t id = tx_free_ids_.back();
  tx_free_ids_.pop_back();
  Slot& slot = tx_slots_[id];
  slot.in_use = true;

  // Serialize into the reusable scratch buffer (Output is synchronous, so
  // one per device suffices) — no per-packet allocation.
  Buffer& bytes = tx_scratch_;
  bytes.clear();
  SerializeEthernetInto(frame, &bytes);
  KITE_CHECK(bytes.size() <= kPageSize) << "frame exceeds page";
  std::copy(bytes.begin(), bytes.end(), slot.page->mutable_bytes().begin());

  const SimTime now = hv_->executor()->Now();
  slot.submit_ns = now.ns();
  const uint32_t ring_index = tx_ring_->req_prod_pvt();
  NetTxRequest req;
  req.gref = slot.gref;
  req.id = id;
  req.offset = 0;
  req.size = static_cast<uint16_t>(bytes.size());
  tx_ring_->ProduceRequest(req, now.ns());
  if (EventTracer& t = hv_->tracer(); t.enabled()) {
    t.FlowBegin(guest_->id(), 0, "net.tx", "tx_submit", now,
                MakeFlowId(FlowKind::kNetTx, guest_->id(), devid_, ring_index),
                kFrameCost);
  }
  if (tx_ring_->PushRequests()) {
    hv_->EventSend(guest_, port_);
  }
}

void Netfront::OnIrq() {
  ProcessTxResponses();
  ProcessRxResponses();
}

void Netfront::ProcessTxResponses() {
  const SimTime now = hv_->executor()->Now();
  EventTracer& t = hv_->tracer();
  const bool tracing = t.enabled();
  do {
    while (tx_ring_->HasUnconsumedResponses()) {
      // The response for request i reuses logical slot i: the response
      // consumer index is the flow id's ring-slot generation.
      const uint32_t ring_index = tx_ring_->rsp_cons();
      NetTxResponse rsp = tx_ring_->ConsumeResponse();
      KITE_CHECK(rsp.id < kNetRingSize);
      if (tx_slots_[rsp.id].in_use) {
        tx_slots_[rsp.id].in_use = false;
        tx_free_ids_.push_back(rsp.id);
        if (now.ns() >= tx_slots_[rsp.id].submit_ns) {
          tx_complete_ns_->Record(
              static_cast<uint64_t>(now.ns() - tx_slots_[rsp.id].submit_ns));
        }
      }
      if (tracing) {
        t.FlowEnd(guest_->id(), 0, "net.tx", "tx_complete", now,
                  MakeFlowId(FlowKind::kNetTx, guest_->id(), devid_, ring_index));
      }
    }
  } while (tx_ring_->FinalCheckForResponses());
}

void Netfront::ProcessRxResponses() {
  const SimTime now = hv_->executor()->Now();
  EventTracer& t = hv_->tracer();
  const bool tracing = t.enabled();
  do {
    while (rx_ring_->HasUnconsumedResponses()) {
      const uint32_t ring_index = rx_ring_->rsp_cons();
      NetRxResponse rsp = rx_ring_->ConsumeResponse();
      KITE_CHECK(rsp.id < kNetRingSize);
      if (tracing) {
        t.FlowEnd(guest_->id(), 0, "net.rx", "rx_deliver", now,
                  MakeFlowId(FlowKind::kNetRx, guest_->id(), devid_, ring_index),
                  kFrameCost);
      }
      Slot& slot = rx_slots_[rsp.id];
      slot.in_use = false;
      rx_free_ids_.push_back(rsp.id);
      if (rsp.size <= 0) {
        rx_errors_->Inc();
        continue;
      }
      // rsp.offset/rsp.size come from the backend: never parse outside the
      // posted page, even if the backend misbehaves.
      if (static_cast<size_t>(rsp.offset) > kPageSize ||
          static_cast<size_t>(rsp.size) > kPageSize - rsp.offset) {
        rx_bad_responses_->Inc();
        rx_errors_->Inc();
        continue;
      }
      {
        CpuScope cpu_scope(KITE_CPU_CATEGORY("netfront/io"));
        guest_->vcpu(0)->Charge(kFrameCost);
      }
      auto frame = ParseEthernet(
          slot.page->bytes().subspan(rsp.offset, static_cast<size_t>(rsp.size)));
      if (!frame.has_value()) {
        rx_errors_->Inc();
        continue;
      }
      DeliverInput(std::move(*frame));
    }
  } while (rx_ring_->FinalCheckForResponses());
  // Refill the Rx ring with the freed buffers.
  PostRxBuffers();
}

}  // namespace kite
