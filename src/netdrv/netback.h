// Netback: the network backend driver in a driver domain (the paper's main
// networking contribution, §3.2/§4.2).
//
// One NetbackInstance exists per connected netfront; it exposes a VIF NetIf
// that the driver domain's bridge forwards through. The instance runs two
// dedicated BMK threads so that neither the event-channel handler nor the
// network-stack callback ever performs expensive hypercall work:
//   - `pusher`     — drains guest Tx requests (guest → world),
//   - `soft_start` — feeds guest Rx responses (world → guest).
// The event handler and the VIF output callback only *wake* these threads.
//
// NetworkBackendDriver is the xenbus backend bus (src/hv/xenbus_backend.h)
// over NetbackInstance: it creates, connects and reaps one per vif node.
#ifndef SRC_NETDRV_NETBACK_H_
#define SRC_NETDRV_NETBACK_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/bmk/sched.h"
#include "src/hv/domain.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus.h"
#include "src/hv/xenbus_backend.h"
#include "src/net/netif.h"
#include "src/net/queue.h"
#include "src/netdrv/netif_ring.h"
#include "src/os/profile.h"

namespace kite {

struct NetbackParams {
  // Hypervisor-copy data movement (modern netfront/netback default). When
  // false, the backend maps/unmaps the guest page per packet (ablation).
  bool use_hv_copy = true;
  // Dedicated pusher/soft_start threads (Kite's design). When false, work is
  // processed immediately at the event with per-packet response pushes — the
  // naive in-handler structure the paper argues against (ablation).
  bool dedicated_threads = true;
};

class NetbackInstance : public NetIf, public XenbusBackendInstance {
 public:
  static constexpr const char* kType = "vif";
  static constexpr const char* kName = "netback";

  NetbackInstance(Domain* backend, BmkSched* sched, const OsCostProfile* costs,
                  NetbackParams params, DomId frontend_dom, int devid);

  // Advertises InitWait in xenstore when the vif's backend node appears.
  void Advertise();
  // Reads the frontend's published parameters, maps the rings, binds the
  // event channel, and starts the threads. Returns false if the frontend's
  // entries are missing or invalid.
  bool Connect();

  // NetIf: bridge → guest direction (moves the frame onto soft_start's queue).
  void Output(EthernetFrame frame) override;

  // Advertises Connected in xenstore. As on real Xen, where the hotplug
  // script must bridge the vif before the state switch, the network
  // application calls this after AddIf; the frontend therefore never sees
  // Connected while its traffic would still bypass the bridge.
  void CompleteHotplug();

  // Once draining (RequestDrain also takes the vif off the bridge): true
  // when every consumed request has a pushed response and the Rx backlog is
  // flushed — nothing acknowledged remains only on this side. Unconsumed Tx
  // requests are unacknowledged; the frontend retransmits them after relink.
  bool ReadyToRetire() const;
  // BeginShutdown plus synchronous release of the ring mappings. Must run
  // *before* the backend's xenstore subtree is removed: the live frontend's
  // EndAccess only succeeds once this side holds no active maps.
  void RetireGracefully();

  uint64_t guest_tx_frames() const { return guest_tx_frames_->value(); }
  uint64_t guest_rx_frames() const { return guest_rx_frames_->value(); }
  uint64_t rx_queue_drops() const { return rx_queue_drops_->value(); }
  // Guest Tx requests rejected before any copy because offset/size fell
  // outside the granted page (malformed or malicious ring input).
  uint64_t tx_bad_requests() const { return tx_bad_requests_->value(); }
  // True when both rings are quiet: every published Tx request consumed, one
  // response per consumed request on both rings, and everything pushed back
  // to the frontend. On false, `detail` (if non-null) says which leg failed.
  bool RingsQuiescent(std::string* detail) const;

  // Audits the per-vif conservation law over *this instance's* lifetime:
  // every consumed Tx request is resolved as exactly one of delivered to the
  // bridge, shape-rejected, copy-failed or unparseable. Registry counters are
  // baselined at construction because the same key persists across
  // driver-domain restarts while ring indices reset.
  bool TxConservationHolds(std::string* detail) const;

 private:
  void WakeThreads() override;
  // Takes the vif off the bridge; on shutdown also drops the Rx backlog.
  void StopIntake(bool shutdown) override;
  Task PusherThread();
  Task SoftStartThread();
  // Netback's pass latency; none in the in-handler (ablation) structure.
  SimDuration PassLatency() const;
  void PushTxResponses();
  void PushRxResponses();
  bool CopyFromGuest(GrantRef gref, uint16_t offset, std::span<uint8_t> out);
  bool CopyToGuest(GrantRef gref, std::span<const uint8_t> data);

  NetbackParams params_;

  MappedGrant tx_ring_map_;
  MappedGrant rx_ring_map_;
  std::unique_ptr<NetTxBackRing> tx_ring_;
  std::unique_ptr<NetRxBackRing> rx_ring_;

  WakeFlag tx_wake_;
  WakeFlag rx_wake_;
  // Frames queued toward the guest, with their arrival time so soft_start
  // can account backend-side queueing delay.
  struct PendingRx {
    EthernetFrame frame;
    int64_t arrival_ns;
  };
  std::deque<PendingRx> rx_pending_;

  // Per-thread scratch buffers (pusher owns tx_scratch_, soft_start owns
  // rx_scratch_): packet bytes are staged here instead of allocating a fresh
  // Buffer per packet. Capacity sticks at the high-water mark (≤ one page).
  Buffer tx_scratch_;
  Buffer rx_scratch_;

  SimTime pusher_last_active_;
  SimTime soft_start_last_active_;

  // Registry-backed under (backend domain, vifX.Y, <name>).
  Counter* guest_tx_frames_;
  Counter* guest_rx_frames_;
  Counter* rx_queue_drops_;
  Counter* tx_bad_requests_;
  Counter* rx_copy_fails_;
  Counter* tx_copy_fails_;
  // In-bounds, copyable Tx payloads that did not parse as an Ethernet frame
  // (acknowledged kOkay — the bytes moved — but never reached the bridge).
  Counter* tx_unparseable_;
  // Stage latencies (ns): queue = time waiting before the worker thread
  // picked the item up, service = pickup to response produced.
  LatencyHistogram* tx_queue_ns_;
  LatencyHistogram* tx_service_ns_;
  LatencyHistogram* rx_queue_ns_;
  LatencyHistogram* rx_service_ns_;
  // Counter values at construction (see TxConservationHolds).
  uint64_t tx_frames_base_ = 0;
  uint64_t tx_bad_base_ = 0;
  uint64_t tx_copy_fail_base_ = 0;
  uint64_t tx_unparseable_base_ = 0;
};

// Backend invocation (paper §4.1) for vifs: the xenbus backend bus.
using NetworkBackendDriver = XenbusBackend<NetbackInstance>;
extern template class XenbusBackend<NetbackInstance>;

}  // namespace kite

#endif  // SRC_NETDRV_NETBACK_H_
