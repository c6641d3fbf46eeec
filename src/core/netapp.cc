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
  assignments_.push_back({netif->ifname(), ip});
}

void IfConfig::SetUp(NetIf* netif) {
  CpuScope cpu_scope(KITE_CPU_CATEGORY("app/config"));
  sched_->vcpu()->Charge(Micros(4));
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
  ++adds_;
}

// --- NetworkApp. ---

NetworkApp::NetworkApp(BmkSched* sched, NetworkBackendDriver* driver, NetIf* physical_if,
                       Ipv4Addr gateway_ip)
    : sched_(sched),
      driver_(driver),
      ifconfig_(sched),
      brconfig_(sched),
      vif_wake_(sched->executor()) {
  // Paper §4.3: create the bridge, assign the gateway IP to the physical
  // interface, add the physical interface, then service new VIFs forever.
  bridge_ = brconfig_.CreateBridge("xenbr0");
  ifconfig_.AssignIp(physical_if, gateway_ip);
  brconfig_.AddIf(bridge_.get(), physical_if);
  driver_->SetOnNew([this](NetbackInstance* vif) {
    pending_vifs_.push_back(vif);
    vif_wake_.Signal();
  });
  // A reaped VIF must leave the bridge before its pointer dies; it may also
  // still be sitting in the hotplug queue if the guest died mid-pairing.
  driver_->SetOnGone([this](NetbackInstance* vif) {
    bridge_->RemoveIf(vif);
    std::erase(pending_vifs_, vif);
  });
  sched_->Spawn("network-app", [this] { return MainLoop(); });
}

Task NetworkApp::MainLoop() {
  for (;;) {
    co_await vif_wake_.Wait();
    while (!pending_vifs_.empty()) {
      NetbackInstance* vif = pending_vifs_.front();
      pending_vifs_.pop_front();
      brconfig_.AddIf(bridge_.get(), vif);
      vif->CompleteHotplug();
      ++vifs_added_;
      KITE_LOG(Info) << "network-app: added " << vif->ifname() << " to " << bridge_->name();
      // Explicitly yield so netback, the NIC driver, and the network stack
      // make progress (paper §4.3).
      co_await sched_->Yield();
    }
  }
}

}  // namespace kite
