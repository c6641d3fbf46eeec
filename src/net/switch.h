// Top-of-rack Ethernet switch: a box of NIC ports tied together by a
// learning bridge.
//
// A single driver domain talks to the client over a direct cable
// (Nic::ConnectBackToBack) — the paper's testbed. Sharding guest VIFs over
// K netback domains needs K server-side uplinks, so KiteSystem inserts an
// EtherSwitch the moment the second network domain appears: the direct cable
// is unplugged and every endpoint (client NIC plus each domain's passthrough
// NIC) is cabled into its own switch port. Single-domain topologies never
// pay for the hop, keeping the paper-figure benches byte-identical.
//
// Ports are real Nic instances (line-rate serialization, bounded queues,
// propagation delay), so a switched path costs one extra store-and-forward
// hop — exactly what a physical ToR adds. Forwarding burns no vCPU: the
// switch fabric is hardware, not a domain.
#ifndef SRC_NET_SWITCH_H_
#define SRC_NET_SWITCH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/bridge.h"
#include "src/net/nic.h"
#include "src/sim/executor.h"

namespace kite {

class EtherSwitch {
 public:
  EtherSwitch(Executor* executor, std::string name);

  EtherSwitch(const EtherSwitch&) = delete;
  EtherSwitch& operator=(const EtherSwitch&) = delete;

  // Cables `endpoint` into a fresh switch port. The endpoint must be
  // unpeered (Nic::Disconnect it first if it was direct-cabled).
  void Plug(Nic* endpoint);

  int port_count() const { return static_cast<int>(ports_.size()); }
  Bridge* bridge() { return &bridge_; }

 private:
  Executor* executor_;
  std::string name_;
  Bridge bridge_;
  std::vector<std::unique_ptr<Nic>> ports_;
};

}  // namespace kite

#endif  // SRC_NET_SWITCH_H_
