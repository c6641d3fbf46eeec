#include "src/net/bridge.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"

namespace kite {

void Bridge::AddIf(NetIf* netif) {
  KITE_CHECK(!HasIf(netif));
  ports_.push_back(netif);
  netif->SetInputHandler(
      [this, netif](EthernetFrame&& frame) { Input(netif, std::move(frame)); });
}

void Bridge::RemoveIf(NetIf* netif) {
  auto it = std::find(ports_.begin(), ports_.end(), netif);
  if (it == ports_.end()) {
    return;
  }
  ports_.erase(it);
  queues_.erase(netif);
  netif->SetInputHandler(nullptr);
  // Flush FDB entries pointing at the removed port.
  for (auto fdb_it = fdb_.begin(); fdb_it != fdb_.end();) {
    if (fdb_it->second == netif) {
      fdb_it = fdb_.erase(fdb_it);
    } else {
      ++fdb_it;
    }
  }
}

bool Bridge::HasIf(const NetIf* netif) const {
  return std::find(ports_.begin(), ports_.end(), netif) != ports_.end();
}

NetIf* Bridge::LookupFdb(MacAddr mac) const {
  auto it = fdb_.find(mac);
  return it == fdb_.end() ? nullptr : it->second;
}

void Bridge::EnablePortQueue(Executor* executor, NetIf* port,
                             EgressQueueParams params) {
  KITE_CHECK(HasIf(port));
  queues_[port] = std::make_unique<EgressQueue>(executor, port, params);
}

uint64_t Bridge::queue_drops() const {
  uint64_t drops = 0;
  for (const auto& [port, queue] : queues_) {
    drops += queue->dropped();
  }
  return drops;
}

bool Bridge::SendOut(NetIf* port, EthernetFrame&& frame) {
  auto it = queues_.find(port);
  if (it == queues_.end()) {
    port->Output(std::move(frame));
    return true;
  }
  return it->second->Offer(std::move(frame));
}

void Bridge::Input(NetIf* ingress, EthernetFrame&& frame) {
  if (vcpu_ != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("net/bridge"));
    vcpu_->Charge(forward_cost_);
  }
  // Learn the source.
  fdb_[frame.src] = ingress;

  if (!frame.dst.IsBroadcast()) {
    auto it = fdb_.find(frame.dst);
    if (it != fdb_.end()) {
      if (it->second != ingress && it->second->up()) {
        // Count only frames the egress queue admitted: a drop-tail rejection
        // already shows up in queue_drops(), and a frame must not appear in
        // both tallies.
        if (SendOut(it->second, std::move(frame))) {
          ++forwarded_;
        }
      }
      return;
    }
  }
  // Broadcast or unknown unicast: flood all other up ports.
  for (NetIf* port : ports_) {
    if (port != ingress && port->up()) {
      SendOut(port, EthernetFrame(frame));  // Each port gets its own copy.
    }
  }
}

}  // namespace kite
