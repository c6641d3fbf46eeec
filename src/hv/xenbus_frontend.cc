#include "src/hv/xenbus_frontend.h"

#include "src/base/strings.h"

namespace kite {

XenbusFrontend::XenbusFrontend(Domain* guest, DomId backend_dom, DeviceKind kind, int devid)
    : guest_(guest),
      hv_(guest->hypervisor()),
      devid_(devid),
      backend_dom_(backend_dom),
      frontend_path_(FrontendPath(guest->id(), DeviceTypeName(kind), devid)),
      backend_path_(BackendPath(backend_dom, DeviceTypeName(kind), guest->id(), devid)),
      rows_(hv_->metrics().Own(guest->name(),
                               StrFormat(kind == DeviceKind::kVif ? "xn%d" : "xvd%d", devid),
                               MetricRegistry::kGuestsRetired,
                               StrFormat("%s-retired", DeviceTypeName(kind)))),
      kind_(kind),
      recoveries_(rows_.counter("recoveries")) {}

XenbusFrontend::~XenbusFrontend() {
  *alive_ = false;
  if (backend_watch_ != 0) {
    hv_->store().RemoveWatch(backend_watch_);
  }
  if (relink_watch_ != 0) {
    hv_->store().RemoveWatch(relink_watch_);
  }
  if (port_ != kInvalidPort) {
    hv_->EventClose(guest_, port_);
  }
}

void XenbusFrontend::Start() {
  Begin();
  // Watch our own backend-id link: the toolstack rewrites it when it hands
  // this device to a replacement backend domain after a crash. The
  // registration fire reads the current id and is a no-op.
  relink_watch_ = guest_->StoreWatch(frontend_path_ + "/backend-id", "relink",
                                     [this](const std::string&, const std::string&) {
                                       OnToolstackRelink();
                                     });
}

void XenbusFrontend::OpenEventChannel() {
  port_ = hv_->EventAllocUnbound(guest_, backend_dom_);
  hv_->EventSetHandler(guest_, port_, [this] { OnIrq(); });
}

void XenbusFrontend::Begin() {
  if (kind_ == DeviceKind::kVif) {
    PublishAndInitialise();
  } else {
    SwitchState(XenbusState::kInitialising);
  }
  // The watch fires once on registration: if the backend already advertises
  // InitWait a vbd publishes then, otherwise when it gets there. A relink
  // replaces the watch on the old backend, which a vbd still holds when that
  // backend died before the vbd published.
  if (backend_watch_ != 0) {
    hv_->store().RemoveWatch(backend_watch_);
  }
  backend_watch_ = guest_->StoreWatch(backend_path_ + "/state", "backend-state",
                                      [this](const std::string&, const std::string&) {
                                        OnBackendStateChange();
                                      });
}

void XenbusFrontend::PublishAndInitialise() {
  published_ = true;
  Publish();
  SwitchState(XenbusState::kInitialised);
}

void XenbusFrontend::OnBackendStateChange() {
  XenbusClient bus(&hv_->store(), guest_->id());
  const XenbusState state = bus.ReadState(backend_path_);
  if (state == XenbusState::kInitWait || state == XenbusState::kInitialised ||
      state == XenbusState::kConnected) {
    backend_was_live_ = true;
  }
  if (state == XenbusState::kInitWait && !published_) {
    PublishAndInitialise();
    return;
  }
  if (state == XenbusState::kConnected && !connected_) {
    connected_ = true;
    SwitchState(XenbusState::kConnected);
    OnConnected();
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

void XenbusFrontend::HandleBackendDeath() {
  connected_ = false;
  backend_was_live_ = false;
  if (!published_) {
    return;  // Nothing granted yet; relink alone will restart the handshake.
  }
  published_ = false;
  SwitchState(XenbusState::kClosed);
  // EndAccess succeeds because DestroyDomain force-dropped the dead
  // backend's mappings.
  ReleaseBackend();
  hv_->EventClose(guest_, port_);
  port_ = kInvalidPort;
  if (backend_watch_ != 0) {
    hv_->store().RemoveWatch(backend_watch_);
    backend_watch_ = 0;
  }
}

void XenbusFrontend::OnToolstackRelink() {
  auto id = guest_->StoreReadInt(frontend_path_ + "/backend-id");
  if (!id.has_value()) {
    if (!hv_->store().Exists(frontend_path_ + "/backend-id")) {
      return;  // No toolstack link yet; the watch fires again when written.
    }
    // The key exists but the read failed (fault injection): a missed relink
    // would strand the guest, so retry until the write is visible.
    hv_->executor()->PostAfter(Millis(1), KITE_POST_SITE("xenbus/relink-retry"),
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
  backend_path_ = BackendPath(backend_dom_, DeviceTypeName(kind_), guest_->id(), devid_);
  recoveries_->Inc();
  Begin();
}

void XenbusFrontend::SwitchState(XenbusState state) {
  XenbusClient(&hv_->store(), guest_->id()).SwitchState(frontend_path_, state);
}

}  // namespace kite
