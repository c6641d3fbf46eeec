// Physical NIC model (Intel 82599ES 10GbE class) and the point-to-point
// link between the server's passthrough NIC and the client machine's NIC.
//
// Transmission serializes at line rate; receive queues are bounded, so
// overload produces real packet loss (what the nuttcp UDP benchmark
// measures). The NIC is a PciDevice: in the testbed it is assigned to the
// driver domain via PCI passthrough.
#ifndef SRC_NET_NIC_H_
#define SRC_NET_NIC_H_

#include <deque>

#include "src/fault/fault.h"
#include "src/hv/pci.h"
#include "src/net/netif.h"
#include "src/net/queue.h"
#include "src/sim/cpu.h"
#include "src/sim/executor.h"

namespace kite {

class Nic;

// The NIC's host-facing interface (e.g. ixg0). Output goes to the wire.
class NicNetIf : public NetIf {
 public:
  NicNetIf(std::string ifname, MacAddr mac, Nic* nic) : NetIf(std::move(ifname), mac), nic_(nic) {}
  void Output(EthernetFrame frame) override;

 private:
  friend class Nic;
  Nic* nic_;
};

class Nic : public PciDevice {
 public:
  // `faults` is rolled on the receive side of the wire (frame loss, FCS
  // corruption). Null for a NIC that rolls nothing: the bare NICs that tests
  // cable together, and a switch's ports, whose endpoints roll for them.
  Nic(Executor* executor, std::string bdf, std::string ifname, MacAddr mac,
      FaultInjector* faults = nullptr);
  ~Nic() override;

  NetIf* netif() { return &netif_; }
  MacAddr mac() const { return netif_.mac(); }

  // Connects two NICs back to back (full duplex).
  static void ConnectBackToBack(Nic* a, Nic* b);
  // Unplugs the cable between `a` and its peer (both ends become unpeered;
  // no-op if already unplugged). Frames already on the wire still arrive.
  static void Disconnect(Nic* a);
  Nic* peer() const { return peer_; }

  // For endpoints outside Xen (the client machine): the vCPU charged for
  // frame processing. For passthrough NICs this is set on domain assignment.
  void SetProcessingVcpu(Vcpu* vcpu) { vcpu_ = vcpu; }
  void OnAssigned(Domain* owner) override;
  void OnUnassigned() override;

  // Wire-side: queues the frame for transmission at line rate.
  void Transmit(EthernetFrame frame);

  uint64_t tx_dropped() const { return tx_dropped_; }
  uint64_t rx_delivered() const { return rx_delivered_; }

 private:
  friend class NicNetIf;

  void Arrive(EthernetFrame&& frame);  // Called by the peer after propagation.
  // The wire-arrival event: hands the oldest frame on the wire to its peer.
  void LandOnPeer();
  void ScheduleRxDrain();
  void DrainRx();

  Executor* executor_;
  NicNetIf netif_;
  Nic* peer_ = nullptr;
  Vcpu* vcpu_ = nullptr;
  FaultInjector* faults_;

  SimTime tx_free_at_;
  // Frames on the wire, oldest first, each with the peer it was sent to (a
  // frame still arrives after Disconnect). Each frame adds at least 67 ns of
  // wire time at 10 Gb/s, so one NIC's arrival times strictly increase and
  // the arrival events fire in this order, under schedule shuffle too. The
  // events therefore carry only `this`, which fits the executor's inline
  // callback slot, instead of boxing a copy of the frame.
  struct InFlight {
    Nic* peer;
    EthernetFrame frame;
  };
  std::deque<InFlight> wire_;
  std::deque<EthernetFrame> rx_queue_;
  bool rx_drain_scheduled_ = false;

  uint64_t tx_dropped_ = 0;
  uint64_t rx_delivered_ = 0;
};

}  // namespace kite

#endif  // SRC_NET_NIC_H_
