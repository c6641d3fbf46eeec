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
#include "src/sim/wait.h"

namespace kite {

struct NetbackParams {
  // Hypervisor-copy data movement (modern netfront/netback default). When
  // false, the backend maps/unmaps the guest page per packet (ablation).
  bool use_hv_copy = true;
  // Dedicated pusher/soft_start threads (Kite's design). When false, work is
  // processed immediately at the event with per-packet response pushes — the
  // naive in-handler structure the paper argues against (ablation).
  bool dedicated_threads = true;
  // Packets processed per CPU quantum before yielding.
  int batch_limit = 64;
  // Backend-side queue toward a guest; overflow drops the tail (observable
  // as UDP loss in the nuttcp benchmark). As for every queue in
  // src/net/queue.h, 0 means unbounded — never drop.
  size_t rx_queue_cap = 512;
};

class NetbackInstance : public NetIf {
 public:
  static constexpr const char* kType = "vif";
  static constexpr const char* kName = "netback";

  NetbackInstance(Domain* backend, BmkSched* sched, const OsCostProfile* costs,
                  NetbackParams params, DomId frontend_dom, int devid);
  ~NetbackInstance() override;

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

  // Frontend death (paper §6: guests may crash at any time): stop accepting
  // work, close the event port, and ask the worker threads to exit at their
  // next resumption. The instance must stay allocated until drained() —
  // its coroutine frames are parked in the shared scheduler and would
  // otherwise resume into freed memory.
  void BeginShutdown();
  bool drained() const { return threads_running_ == 0; }
  void set_on_drained(std::function<void()> fn) { on_drained_ = std::move(fn); }

  // Graceful drain (toolstack-initiated migration): stop consuming new Tx
  // requests and stop accepting new bridge frames, but keep flushing work
  // already accepted. Unconsumed Tx requests stay on the ring — they are
  // unacknowledged, so the frontend retransmits them after relink.
  void RequestDrain();
  bool draining() const { return draining_; }
  // True once every consumed request has a pushed response and the Rx
  // backlog is flushed — nothing acknowledged remains only on this side.
  bool ReadyToRetire() const;
  // BeginShutdown plus synchronous release of the ring mappings. Must run
  // *before* the backend's xenstore subtree is removed: the live frontend's
  // EndAccess only succeeds once this side holds no active maps.
  void RetireGracefully();

  DomId frontend_dom() const { return frontend_dom_; }
  int devid() const { return devid_; }
  bool connected() const { return connected_; }

  uint64_t guest_tx_frames() const { return guest_tx_frames_->value(); }
  uint64_t guest_rx_frames() const { return guest_rx_frames_->value(); }
  uint64_t rx_queue_drops() const { return rx_queue_drops_->value(); }
  // Guest Tx requests rejected before any copy because offset/size fell
  // outside the granted page (malformed or malicious ring input).
  uint64_t tx_bad_requests() const { return tx_bad_requests_->value(); }
  // Rx copies toward the guest that failed (bad gref, injected fault).
  uint64_t rx_copy_fails() const { return rx_copy_fails_->value(); }
  // Tx copies from the guest that failed (bad gref, injected fault).
  uint64_t tx_copy_fails() const { return tx_copy_fails_->value(); }
  // In-bounds, copyable Tx payloads that did not parse as an Ethernet frame
  // (acknowledged kOkay — the bytes moved — but never reached the bridge).
  uint64_t tx_unparseable() const { return tx_unparseable_->value(); }
  // Tx ring requests consumed so far. Every consumed request is resolved as
  // exactly one of: delivered to the bridge (guest_tx_frames), shape-rejected
  // (tx_bad_requests), copy-failed (tx_copy_fails), or unparseable
  // (tx_unparseable) — the per-vif conservation law the checker audits.
  uint64_t tx_requests_consumed() const;

  // True when both rings are quiet: every published Tx request consumed, one
  // response per consumed request on both rings, and everything pushed back
  // to the frontend. On false, `detail` (if non-null) says which leg failed.
  bool RingsQuiescent(std::string* detail) const;

  // Audits the per-vif conservation law over *this instance's* lifetime
  // (registry counters are baselined at construction because the same key
  // persists across driver-domain restarts while ring indices reset).
  bool TxConservationHolds(std::string* detail) const;

 private:
  Task PusherThread();
  Task SoftStartThread();
  void ThreadExited();
  // Pass latency (thread scheduling) plus a cold-path penalty after idle.
  SimDuration WakeLatency(SimTime* last_active) const;
  void PushTxResponses();
  void PushRxResponses();
  bool CopyFromGuest(GrantRef gref, uint16_t offset, std::span<uint8_t> out);
  bool CopyToGuest(GrantRef gref, std::span<const uint8_t> data);

  Domain* backend_;
  Hypervisor* hv_;
  BmkSched* sched_;
  const OsCostProfile* costs_;
  NetbackParams params_;
  DomId frontend_dom_;
  int devid_;
  bool connected_ = false;
  // Drain protocol: pusher stops consuming, Output stops accepting.
  bool draining_ = false;
  // Shutdown protocol: checked by the worker threads after every co_await.
  bool stopping_ = false;
  int threads_running_ = 0;
  std::function<void()> on_drained_;

  std::string backend_path_;
  std::string frontend_path_;

  MappedGrant tx_ring_map_;
  MappedGrant rx_ring_map_;
  std::unique_ptr<NetTxBackRing> tx_ring_;
  std::unique_ptr<NetRxBackRing> rx_ring_;
  EvtPort port_ = kInvalidPort;
  // Watchdog registration (0 = never registered / already unregistered).
  int64_t health_id_ = 0;

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
