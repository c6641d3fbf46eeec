// Bounded L2 queue models (drop-tail).
//
// Real switches and NICs drop frames at finite queues; the transport's
// congestion response (src/net/tcp.h) is only honest if loss happens at the
// same places. This header provides the two pieces every queueing point
// shares:
//
//   - QueueFull: the drop-tail admission test, used by the NIC rings,
//     netback's Rx queue and EgressQueue alike.
//   - EgressQueue: a depth-bounded FIFO in front of a NetIf that serializes
//     frames out at a configured line rate. The bridge attaches one per
//     bottleneck port; with limit 0 it bypasses entirely (synchronous
//     forward, byte-identical to the unqueued model).
#ifndef SRC_NET_QUEUE_H_
#define SRC_NET_QUEUE_H_

#include <deque>
#include <memory>
#include <string>

#include "src/net/netif.h"
#include "src/obs/metrics.h"
#include "src/sim/executor.h"

namespace kite {

// Drop-tail admission: true when a queue holding `depth_frames` must drop an
// arriving frame. `limit_frames == 0` means unbounded (never drop), not
// "drop everything".
inline bool QueueFull(size_t depth_frames, size_t limit_frames) {
  return limit_frames != 0 && depth_frames >= limit_frames;
}

struct EgressQueueParams {
  // Queue depth in frames. 0 = bypass: frames forward synchronously with no
  // serialization model — exactly the pre-queue behaviour.
  size_t limit_frames = 0;
  // Serialization rate of the port while queueing is enabled.
  double drain_gbps = 10.0;
  // Optional registry instrumentation: publishes `depth_frames` (gauge) and
  // `queue_drops` (counter) under (metrics_domain, metrics_device) so the
  // metric sampler can record the queue's occupancy over time. Null = the
  // historical untracked queue.
  MetricRegistry* metrics = nullptr;
  std::string metrics_domain = "net";
  std::string metrics_device;  // Defaults to the port's name.
};

// A bounded egress queue in front of a NetIf. Admitted frames serialize out
// one at a time at drain_gbps; arrivals that find the queue full are counted
// and discarded — where a real switch drops under overload.
class EgressQueue {
 public:
  EgressQueue(Executor* executor, NetIf* port, EgressQueueParams params);
  ~EgressQueue();

  EgressQueue(const EgressQueue&) = delete;
  EgressQueue& operator=(const EgressQueue&) = delete;

  // Queues (or, with limit 0, directly forwards) the frame, taking ownership.
  // Returns false if the full queue dropped it.
  bool Offer(EthernetFrame frame);

  NetIf* port() const { return port_; }
  size_t depth() const { return queue_.size(); }
  uint64_t forwarded() const { return forwarded_; }
  uint64_t dropped() const { return dropped_; }
  const EgressQueueParams& params() const { return params_; }

 private:
  void ScheduleDrain(SimTime at);

  Executor* executor_;
  NetIf* port_;
  EgressQueueParams params_;
  std::deque<EthernetFrame> queue_;
  SimTime busy_until_;
  bool drain_scheduled_ = false;
  uint64_t forwarded_ = 0;
  uint64_t dropped_ = 0;
  // Registry handles (null without EgressQueueParams::metrics).
  Gauge* depth_gauge_ = nullptr;
  Counter* drop_counter_ = nullptr;
  // Drain events capture this flag; a destroyed queue (port removed from the
  // bridge mid-run) turns them into no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kite

#endif  // SRC_NET_QUEUE_H_
