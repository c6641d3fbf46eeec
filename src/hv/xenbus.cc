#include "src/hv/xenbus.h"

#include "src/base/strings.h"
#include "src/obs/recorder.h"

namespace kite {

const char* XenbusStateName(XenbusState state) {
  switch (state) {
    case XenbusState::kUnknown:
      return "Unknown";
    case XenbusState::kInitialising:
      return "Initialising";
    case XenbusState::kInitWait:
      return "InitWait";
    case XenbusState::kInitialised:
      return "Initialised";
    case XenbusState::kConnected:
      return "Connected";
    case XenbusState::kClosing:
      return "Closing";
    case XenbusState::kClosed:
      return "Closed";
  }
  return "?";
}

std::string DomainPath(DomId dom) { return StrFormat("/local/domain/%d", dom); }

std::string BackendPath(DomId backend_dom, const std::string& type, DomId frontend_dom,
                        int devid) {
  return StrFormat("/local/domain/%d/backend/%s/%d/%d", backend_dom, type.c_str(),
                   frontend_dom, devid);
}

std::string FrontendPath(DomId frontend_dom, const std::string& type, int devid) {
  return StrFormat("/local/domain/%d/device/%s/%d", frontend_dom, type.c_str(), devid);
}

bool XenbusClient::SwitchState(const std::string& device_path, XenbusState state) {
  const bool ok =
      store_->WriteInt(caller_, device_path + "/state", static_cast<int>(state));
  if (ok) {
    store_->recorder()->Record(caller_, FlightKind::kXenbusSwitch, 0,
                               static_cast<uint64_t>(static_cast<int>(state)));
  }
  return ok;
}

XenbusState XenbusClient::ReadState(const std::string& device_path) const {
  auto v = store_->ReadInt(caller_, device_path + "/state");
  if (!v.has_value() || *v < 0 || *v > 6) {
    return XenbusState::kUnknown;
  }
  return static_cast<XenbusState>(*v);
}

}  // namespace kite
