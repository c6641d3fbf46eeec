// XenBus: the device-connection protocol layered on xenstore.
//
// Frontends and backends each expose a `state` node and step through the
// XenbusState machine (Initialising → InitWait → Initialised → Connected →
// Closing → Closed) while exchanging device parameters in their respective
// directories. This module provides the path conventions and typed state
// helpers used by netfront/netback and blkfront/blkback.
#ifndef SRC_HV_XENBUS_H_
#define SRC_HV_XENBUS_H_

#include <string>

#include "src/hv/xenstore.h"

namespace kite {

enum class XenbusState : int {
  kUnknown = 0,
  kInitialising = 1,
  kInitWait = 2,
  kInitialised = 3,
  kConnected = 4,
  kClosing = 5,
  kClosed = 6,
};

const char* XenbusStateName(XenbusState state);

// Path conventions (mirroring /local/domain/<d>/...).
std::string DomainPath(DomId dom);
// .../backend/<type>/<frontend-dom>/<devid>
std::string BackendPath(DomId backend_dom, const std::string& type, DomId frontend_dom,
                        int devid);
// .../device/<type>/<devid>
std::string FrontendPath(DomId frontend_dom, const std::string& type, int devid);

// The two paravirtual device classes a guest links to a driver domain.
enum class DeviceKind { kVif, kVbd };

// The <type> path component of a device kind: "vif" or "vbd".
constexpr const char* DeviceTypeName(DeviceKind kind) {
  return kind == DeviceKind::kVif ? "vif" : "vbd";
}

// Typed state accessors over a xenstore device directory.
class XenbusClient {
 public:
  XenbusClient(XenStore* store, DomId caller) : store_(store), caller_(caller) {}

  bool SwitchState(const std::string& device_path, XenbusState state);
  XenbusState ReadState(const std::string& device_path) const;

  XenStore* store() const { return store_; }
  DomId caller() const { return caller_; }

 private:
  XenStore* store_;
  DomId caller_;
};

}  // namespace kite

#endif  // SRC_HV_XENBUS_H_
