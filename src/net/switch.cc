#include "src/net/switch.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {

EtherSwitch::EtherSwitch(Executor* executor, std::string name)
    : executor_(executor),
      name_(std::move(name)),
      bridge_(name_ + ":fabric", /*vcpu=*/nullptr, /*forward_cost=*/Nanos(0)) {}

void EtherSwitch::Plug(Nic* endpoint) {
  KITE_CHECK(endpoint != nullptr);
  KITE_CHECK(endpoint->peer() == nullptr)
      << "endpoint still cabled; Nic::Disconnect it before plugging";
  const int n = port_count();
  auto port = std::make_unique<Nic>(
      executor_, StrFormat("%s:port%d", name_.c_str(), n),
      StrFormat("%s-p%d", name_.c_str(), n),
      MacAddr::FromId(0x400000u + static_cast<uint32_t>(n)));
  port->netif()->SetUp(true);
  bridge_.AddIf(port->netif());
  Nic::ConnectBackToBack(port.get(), endpoint);
  ports_.push_back(std::move(port));
}

}  // namespace kite
