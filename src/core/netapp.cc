#include "src/core/netapp.h"

#include "src/base/log.h"

namespace kite {

// --- IfConfig. ---

IfConfig::IfConfig(BmkSched* sched) : sched_(sched) {}

void IfConfig::AssignIp(NetIf* netif, Ipv4Addr ip) {
  // A couple of ioctl round trips (SIOCSIFADDR etc).
  CpuScope cpu_scope(KITE_CPU_CATEGORY("app/config"));
  sched_->vcpu()->Charge(Micros(8));
  netif->SetUp(true);
}

// --- BrConfig. ---

BrConfig::BrConfig(BmkSched* sched) : sched_(sched) {}

std::unique_ptr<Bridge> BrConfig::CreateBridge(const std::string& name) {
  CpuScope cpu_scope(KITE_CPU_CATEGORY("app/config"));
  sched_->vcpu()->Charge(Micros(10));
  return std::make_unique<Bridge>(name, sched_->vcpu());
}

void BrConfig::AddIf(Bridge* bridge, NetIf* netif) {
  CpuScope cpu_scope(KITE_CPU_CATEGORY("app/config"));
  sched_->vcpu()->Charge(Micros(6));
  netif->SetUp(true);
  bridge->AddIf(netif);
}

// --- NetworkApp. ---

NetworkApp::NetworkApp(BmkSched* sched, NetworkBackendDriver* driver, NetIf* physical_if,
                       Ipv4Addr gateway_ip)
    : ConfigApp(sched, driver), ifconfig_(sched), brconfig_(sched) {
  // Paper §4.3: create the bridge, assign the gateway IP to the physical
  // interface, add the physical interface, then service new VIFs forever.
  bridge_ = brconfig_.CreateBridge("xenbr0");
  ifconfig_.AssignIp(physical_if, gateway_ip);
  brconfig_.AddIf(bridge_.get(), physical_if);
}

void NetworkApp::Configure(NetbackInstance* vif) {
  brconfig_.AddIf(bridge_.get(), vif);
  vif->CompleteHotplug();
  KITE_LOG(Info) << "network-app: added " << vif->ifname() << " to " << bridge_->name();
}

}  // namespace kite
