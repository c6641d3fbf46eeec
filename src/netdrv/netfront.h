// Netfront: the paravirtualized network frontend driver in a guest DomU.
//
// Presents a NetIf to the guest's network stack. Allocates the Tx/Rx shared
// rings and data pages, grants them to the backend domain, negotiates over
// xenbus, and then exchanges frames through the rings with event-channel
// notifications (paper §2.2.1, §4.2).
#ifndef SRC_NETDRV_NETFRONT_H_
#define SRC_NETDRV_NETFRONT_H_

#include <memory>
#include <vector>

#include "src/base/bytes.h"
#include "src/hv/domain.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus_frontend.h"
#include "src/net/netif.h"
#include "src/netdrv/netif_ring.h"

namespace kite {

class Netfront : public NetIf, public XenbusFrontend {
 public:
  // The xenstore device directories must already exist (created by the
  // toolstack, see core/system.h). Construction publishes the device.
  Netfront(Domain* guest, DomId backend_dom, int devid, MacAddr mac);

  // NetIf: transmit a frame from the guest stack toward the backend.
  void Output(EthernetFrame frame) override;

  uint64_t tx_dropped() const { return tx_dropped_->value(); }
  uint64_t rx_errors() const { return rx_errors_->value(); }
  // In-flight tx frames discarded on backend death (net drops; TCP retransmits).
  uint64_t recovery_drops() const { return recovery_drops_->value(); }

 private:
  // XenbusFrontend: publish both rings and every data page; on backend
  // death count and drop the in-flight Tx frames; once connected, link up.
  void Publish() override;
  void ReleaseBackend() override;
  void OnConnected() override { SetUp(true); }
  void OnIrq() override;
  void ProcessTxResponses();
  void ProcessRxResponses();
  void PostRxBuffers();

  // Rings (frontend-allocated; shared via ring-page grants).
  PageRef tx_ring_page_;
  PageRef rx_ring_page_;
  std::shared_ptr<NetTxSharedRing> tx_shared_;
  std::shared_ptr<NetRxSharedRing> rx_shared_;
  std::unique_ptr<NetTxFrontRing> tx_ring_;
  std::unique_ptr<NetRxFrontRing> rx_ring_;
  GrantRef tx_ring_gref_ = kInvalidGrantRef;
  GrantRef rx_ring_gref_ = kInvalidGrantRef;

  // Data page pools, one page per ring slot id.
  struct Slot {
    PageRef page;
    GrantRef gref = kInvalidGrantRef;
    bool in_use = false;
    int64_t submit_ns = 0;  // Tx: when the request was produced (observability).
  };
  std::vector<Slot> tx_slots_;
  std::vector<uint16_t> tx_free_ids_;
  std::vector<Slot> rx_slots_;
  std::vector<uint16_t> rx_free_ids_;
  // TX serialization scratch: Output() is synchronous, so one reusable
  // buffer replaces a per-packet allocation.
  Buffer tx_scratch_;

  // Registry-backed under (guest domain, xnN, <name>).
  Counter* tx_dropped_;
  Counter* rx_errors_;
  Counter* recovery_drops_;
  Counter* rx_bad_responses_;
  // Submit → tx response consumed, per frame (ns).
  LatencyHistogram* tx_complete_ns_;
};

}  // namespace kite

#endif  // SRC_NETDRV_NETFRONT_H_
