#include "src/netdrv/netfront.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/obs/flow.h"

namespace kite {

Netfront::Netfront(Domain* guest, DomId backend_dom, int devid, MacAddr mac,
                   std::function<void()> on_connected)
    : NetIf(StrFormat("xn%d", devid), mac),
      guest_(guest),
      hv_(guest->hypervisor()),
      backend_dom_(backend_dom),
      devid_(devid),
      on_connected_(std::move(on_connected)) {
  frontend_path_ = FrontendPath(guest->id(), "vif", devid);
  backend_path_ = BackendPath(backend_dom, "vif", guest->id(), devid);
  MetricRegistry* reg = hv_->metrics();
  tx_dropped_ = reg->counter(guest->name(), ifname(), "tx_dropped");
  rx_errors_ = reg->counter(guest->name(), ifname(), "rx_errors");
  recoveries_ = reg->counter(guest->name(), ifname(), "recoveries");
  recovery_drops_ = reg->counter(guest->name(), ifname(), "recovery_drops");
  rx_bad_responses_ = reg->counter(guest->name(), ifname(), "rx_bad_response");
  tx_complete_ns_ = reg->latency(guest->name(), ifname(), "tx_complete_ns");
  PublishAndInitialise();
  // Watch our own backend-id link: the toolstack rewrites it when it hands
  // this device to a replacement backend domain after a crash. The
  // registration fire reads the current id and is a no-op.
  relink_watch_ = guest_->StoreWatch(frontend_path_ + "/backend-id", "relink",
                                     [this](const std::string&, const std::string&) {
                                       OnToolstackRelink();
                                     });
}

Netfront::~Netfront() {
  *alive_ = false;
  if (backend_watch_ != 0) {
    hv_->store().RemoveWatch(backend_watch_);
  }
  if (relink_watch_ != 0) {
    hv_->store().RemoveWatch(relink_watch_);
  }
}

void Netfront::PublishAndInitialise() {
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
  port_ = hv_->EventAllocUnbound(guest_, backend_dom_);
  hv_->EventSetHandler(guest_, port_, [this] { OnIrq(); });

  // Publish connection parameters (paper §4.2 "Initialization").
  guest_->StoreWriteInt(frontend_path_ + "/tx-ring-ref", tx_ring_gref_);
  guest_->StoreWriteInt(frontend_path_ + "/rx-ring-ref", rx_ring_gref_);
  guest_->StoreWriteInt(frontend_path_ + "/event-channel", port_);
  guest_->StoreWrite(frontend_path_ + "/mac", mac().ToString());
  guest_->StoreWriteInt(frontend_path_ + "/request-rx-copy", 1);

  // Pre-post the full Rx ring so the backend can deliver immediately.
  PostRxBuffers();

  XenbusClient bus(&hv_->store(), guest_->id());
  bus.SwitchState(frontend_path_, XenbusState::kInitialised);

  // Watch the backend's state; Connected completes the handshake.
  backend_watch_ = guest_->StoreWatch(backend_path_ + "/state", "backend-state",
                                      [this](const std::string&, const std::string&) {
                                        OnBackendStateChange();
                                      });
  published_ = true;
}

void Netfront::OnBackendStateChange() {
  XenbusClient bus(&hv_->store(), guest_->id());
  XenbusState state = bus.ReadState(backend_path_);
  if (state == XenbusState::kInitWait || state == XenbusState::kInitialised ||
      state == XenbusState::kConnected) {
    backend_was_live_ = true;
  }
  if (state == XenbusState::kConnected && !connected_) {
    connected_ = true;
    bus.SwitchState(frontend_path_, XenbusState::kConnected);
    SetUp(true);
    if (on_connected_) {
      on_connected_();
    }
  }
  // Backend death: an explicit Closing/Closed transition, or its state node
  // vanishing after it had been live (domain destruction removes the
  // subtree; the watch fires but the read sees nothing).
  const bool gone = state == XenbusState::kUnknown && backend_was_live_ &&
                    !hv_->store().Exists(backend_path_ + "/state");
  if (state == XenbusState::kClosing || state == XenbusState::kClosed || gone) {
    HandleBackendDeath();
  }
}

void Netfront::HandleBackendDeath() {
  if (!published_) {
    return;
  }
  published_ = false;
  connected_ = false;
  backend_was_live_ = false;
  SetUp(false);
  XenbusClient bus(&hv_->store(), guest_->id());
  bus.SwitchState(frontend_path_, XenbusState::kClosed);
  // In-flight tx frames die with the backend — acceptable for a NIC (the
  // wire can always lose frames; transport protocols retransmit).
  for (const Slot& slot : tx_slots_) {
    if (slot.in_use) {
      recovery_drops_->Inc();
    }
  }
  // Reclaim every granted page. EndAccess succeeds because DestroyDomain
  // force-dropped the dead backend's mappings.
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
  hv_->EventClose(guest_, port_);
  port_ = kInvalidPort;
  if (backend_watch_ != 0) {
    hv_->store().RemoveWatch(backend_watch_);
    backend_watch_ = 0;
  }
}

void Netfront::OnToolstackRelink() {
  auto id = guest_->StoreReadInt(frontend_path_ + "/backend-id");
  if (!id.has_value()) {
    if (!hv_->store().Exists(frontend_path_ + "/backend-id")) {
      return;  // No toolstack link yet; the watch fires again when written.
    }
    // The key exists but the read failed (fault injection): a missed relink
    // would strand the guest, so retry until the write is visible.
    hv_->executor()->PostAfter(Millis(1), KITE_POST_SITE("netfront/relink-retry"),
                               [this, alive = alive_] {
      if (*alive) {
        OnToolstackRelink();
      }
    });
    return;
  }
  if (static_cast<DomId>(*id) == backend_dom_) {
    return;  // Registration fire, or a rewrite of the same link.
  }
  HandleBackendDeath();  // No-op if the death watch already cleaned up.
  backend_dom_ = static_cast<DomId>(*id);
  backend_path_ = BackendPath(backend_dom_, "vif", guest_->id(), devid_);
  recoveries_->Inc();
  PublishAndInitialise();
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
    guest_->vcpu(0)->Charge(frame_cost_);
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
  CountTx(frame);
  if (EventTracer* t = hv_->tracer(); t != nullptr && t->enabled()) {
    t->FlowBegin(guest_->id(), 0, "net.tx", "tx_submit", now,
                 MakeFlowId(FlowKind::kNetTx, guest_->id(), devid_, ring_index),
                 frame_cost_);
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
  EventTracer* t = hv_->tracer();
  const bool tracing = t != nullptr && t->enabled();
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
        t->FlowEnd(guest_->id(), 0, "net.tx", "tx_complete", now,
                   MakeFlowId(FlowKind::kNetTx, guest_->id(), devid_, ring_index));
      }
    }
  } while (tx_ring_->FinalCheckForResponses());
}

void Netfront::ProcessRxResponses() {
  const SimTime now = hv_->executor()->Now();
  EventTracer* t = hv_->tracer();
  const bool tracing = t != nullptr && t->enabled();
  do {
    while (rx_ring_->HasUnconsumedResponses()) {
      const uint32_t ring_index = rx_ring_->rsp_cons();
      NetRxResponse rsp = rx_ring_->ConsumeResponse();
      KITE_CHECK(rsp.id < kNetRingSize);
      if (tracing) {
        t->FlowEnd(guest_->id(), 0, "net.rx", "rx_deliver", now,
                   MakeFlowId(FlowKind::kNetRx, guest_->id(), devid_, ring_index),
                   frame_cost_);
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
        guest_->vcpu(0)->Charge(frame_cost_);
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
