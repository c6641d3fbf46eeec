// XenbusFrontend: the frontend half of a xenbus device (paper §4.2, §4.4),
// the base of Netfront (vifs) and Blkfront (vbds).
//
// It publishes the device against its backend, connects when the backend
// reports Connected, and treats Closing, Closed, or the backend's state node
// vanishing after it was live as backend death: it switches to Closed, has
// the device release what the dead backend held, and closes the event
// channel. A watch on the frontend's own backend-id follows the toolstack
// to a replacement backend after a driver-domain restart, and the handshake
// starts again there. A vif publishes at once, so it goes from Closed
// straight back to Initialised; a vbd needs its backend's features (size,
// indirect segments) first, so it waits in Initialising for InitWait.
#ifndef SRC_HV_XENBUS_FRONTEND_H_
#define SRC_HV_XENBUS_FRONTEND_H_

#include <memory>
#include <string>

#include "src/hv/domain.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus.h"

namespace kite {

class XenbusFrontend {
 public:
  // Closes the event channel: a backend still bound to it must not reach
  // the handler of a destroyed device.
  virtual ~XenbusFrontend();

  // Watch callbacks, the IRQ handler and posted retries hold `this`.
  XenbusFrontend(const XenbusFrontend&) = delete;
  XenbusFrontend& operator=(const XenbusFrontend&) = delete;

  bool connected() const { return connected_; }
  int devid() const { return devid_; }
  Domain* guest() const { return guest_; }
  DomId backend_dom() const { return backend_dom_; }
  // Completed reconnects to a fresh backend after the old one died.
  uint64_t recoveries() const { return recoveries_->value(); }

 protected:
  // The xenstore device directories must already exist (created by the
  // toolstack, see core/system.h). The device calls Start() once it is
  // fully constructed.
  XenbusFrontend(Domain* guest, DomId backend_dom, DeviceKind kind, int devid);

  // Starts the handshake and watches the backend-id link.
  void Start();
  // Allocates port_ for the backend to bind, with OnIrq as its handler.
  void OpenEventChannel();

  Domain* const guest_;
  Hypervisor* const hv_;
  const int devid_;
  DomId backend_dom_;
  const std::string frontend_path_;
  std::string backend_path_;
  EvtPort port_ = kInvalidPort;
  bool connected_ = false;
  // The device's registry rows under (guest domain, xnN / xvdN). They fold
  // into the machine-wide (guests, "<type>-retired") rows when the device
  // is destroyed with its guest.
  const MetricRegistry::Owner rows_;

 private:
  // What differs by device kind. Publish grants the rings and pages, calls
  // OpenEventChannel and writes the connection keys; ReleaseBackend settles
  // the in-flight requests and ends every grant after the backend died.
  virtual void Publish() = 0;
  virtual void ReleaseBackend() = 0;
  virtual void OnConnected() = 0;
  virtual void OnIrq() = 0;

  // Publishes now (vif) or waits for the backend's InitWait (vbd), and
  // watches the backend's state.
  void Begin();
  void PublishAndInitialise();
  void OnBackendStateChange();
  // Releases every resource tied to the dead backend (idempotent).
  void HandleBackendDeath();
  void OnToolstackRelink();
  void SwitchState(XenbusState state);

  const DeviceKind kind_;
  WatchId backend_watch_ = 0;
  WatchId relink_watch_ = 0;
  bool published_ = false;
  // Set once the backend shows signs of life; distinguishes "backend died"
  // from "backend not there yet" when the state node is missing.
  bool backend_was_live_ = false;
  // Outlives `this` so posted retries can detect destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Counter* recoveries_;
};

}  // namespace kite

#endif  // SRC_HV_XENBUS_FRONTEND_H_
