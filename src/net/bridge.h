// Learning Ethernet bridge (NetBSD bridge(4) analogue).
//
// Kite's network application creates a bridge, adds the physical interface,
// and adds each netback VIF as guests connect (paper §4.3). The bridge
// learns source MACs per port, forwards unicast to the learned port, and
// floods unknown/broadcast frames.
#ifndef SRC_NET_BRIDGE_H_
#define SRC_NET_BRIDGE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/netif.h"
#include "src/net/queue.h"
#include "src/sim/cpu.h"

namespace kite {

class Bridge {
 public:
  // forward_cost is charged to `vcpu` per forwarded frame (the driver
  // domain's CPU doing the bridging). vcpu may be null (no accounting).
  Bridge(std::string name, Vcpu* vcpu, SimDuration forward_cost = Nanos(100))
      : name_(std::move(name)), vcpu_(vcpu), forward_cost_(forward_cost) {}

  const std::string& name() const { return name_; }

  // Adds an interface as a bridge port; the bridge takes over the
  // interface's input handler (promiscuous member port).
  void AddIf(NetIf* netif);
  void RemoveIf(NetIf* netif);
  bool HasIf(const NetIf* netif) const;
  int port_count() const { return static_cast<int>(ports_.size()); }

  // Attaches a bounded egress queue to a member port: frames the bridge
  // forwards out `port` pass the queue's drop-tail admission and serialize
  // at its drain rate instead of being delivered synchronously. Ports
  // without a queue (the default) keep the synchronous model. Re-enabling
  // replaces the old queue.
  void EnablePortQueue(Executor* executor, NetIf* port, EgressQueueParams params);

  // Unicast frames actually admitted toward their egress port; frames a
  // full port queue rejects count in queue_drops() instead.
  uint64_t forwarded() const { return forwarded_; }
  // Frames dropped at port egress queues (all ports).
  uint64_t queue_drops() const;

  // Test hook: the port the FDB learned for a MAC (nullptr if unknown).
  NetIf* LookupFdb(MacAddr mac) const;

 private:
  // Unicast moves the frame to its egress port; only flooding copies it.
  void Input(NetIf* ingress, EthernetFrame&& frame);
  // Returns false if the port's egress queue dropped the frame.
  bool SendOut(NetIf* port, EthernetFrame&& frame);

  std::string name_;
  Vcpu* vcpu_;
  SimDuration forward_cost_;
  std::vector<NetIf*> ports_;
  std::map<NetIf*, std::unique_ptr<EgressQueue>> queues_;
  std::map<MacAddr, NetIf*> fdb_;
  uint64_t forwarded_ = 0;
};

}  // namespace kite

#endif  // SRC_NET_BRIDGE_H_
