// The network driver domain's configuration application (paper §4.3) and the
// ported ifconfig(8)/brconfig(8) utilities (paper Table 1 "Utilities").
//
// In Linux driver domains this work is done by shell scripts spawned by the
// xl devd daemon; Kite replaces them with one single-process application that
// creates the bridge, assigns the gateway IP to the physical interface, and
// adds each new netback VIF to the bridge as guests connect — yielding the
// CPU explicitly between operations.
#ifndef SRC_CORE_NETAPP_H_
#define SRC_CORE_NETAPP_H_

#include <memory>
#include <string>

#include "src/bmk/sched.h"
#include "src/core/configapp.h"
#include "src/net/bridge.h"
#include "src/netdrv/netback.h"

namespace kite {

// Ported ifconfig(8): interface address assignment.
class IfConfig {
 public:
  explicit IfConfig(BmkSched* sched);

  void AssignIp(NetIf* netif, Ipv4Addr ip);

 private:
  BmkSched* sched_;
};

// Ported brconfig(8): bridge creation and port membership.
class BrConfig {
 public:
  explicit BrConfig(BmkSched* sched);

  std::unique_ptr<Bridge> CreateBridge(const std::string& name);
  void AddIf(Bridge* bridge, NetIf* netif);

 private:
  BmkSched* sched_;
};

// The unified network application.
class NetworkApp : public ConfigApp<NetbackInstance> {
 public:
  NetworkApp(BmkSched* sched, NetworkBackendDriver* driver, NetIf* physical_if,
             Ipv4Addr gateway_ip);

  Bridge* bridge() const { return bridge_.get(); }

 private:
  // Adds the vif to the bridge.
  void Configure(NetbackInstance* vif) override;
  // A reaped vif must leave the bridge before its pointer dies.
  void Forget(NetbackInstance* vif) override { bridge_->RemoveIf(vif); }

  IfConfig ifconfig_;
  BrConfig brconfig_;
  std::unique_ptr<Bridge> bridge_;
};

}  // namespace kite

#endif  // SRC_CORE_NETAPP_H_
