#include "src/net/queue.h"

#include <utility>

namespace kite {

EgressQueue::EgressQueue(Executor* executor, NetIf* port, EgressQueueParams params)
    : executor_(executor), port_(port), params_(params) {
  if (params_.metrics != nullptr) {
    const std::string device =
        params_.metrics_device.empty() ? port_->ifname() : params_.metrics_device;
    depth_gauge_ = params_.metrics->gauge(params_.metrics_domain, device, "depth_frames");
    drop_counter_ = params_.metrics->counter(params_.metrics_domain, device, "queue_drops");
  }
}

EgressQueue::~EgressQueue() { *alive_ = false; }

bool EgressQueue::Offer(EthernetFrame frame) {
  if (params_.limit_frames == 0) {
    // Bypass: the unqueued synchronous model.
    ++forwarded_;
    port_->Output(std::move(frame));
    return true;
  }
  if (QueueFull(queue_.size(), params_.limit_frames)) {
    ++dropped_;
    if (drop_counter_ != nullptr) {
      drop_counter_->Inc();
    }
    return false;
  }
  queue_.push_back(std::move(frame));
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  const SimTime now = executor_->Now();
  if (!drain_scheduled_) {
    ScheduleDrain(busy_until_ > now ? busy_until_ : now);
  }
  return true;
}

void EgressQueue::ScheduleDrain(SimTime at) {
  drain_scheduled_ = true;
  executor_->PostAt(at, KITE_POST_SITE("net/queue-drain"), [this, alive = alive_] {
    if (!*alive) {
      return;
    }
    if (queue_.empty()) {
      drain_scheduled_ = false;
      return;
    }
    EthernetFrame frame = std::move(queue_.front());
    queue_.pop_front();
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
    const double bits = static_cast<double>(frame.WireBytes()) * 8.0;
    busy_until_ =
        executor_->Now() + Nanos(static_cast<int64_t>(bits / params_.drain_gbps));
    ++forwarded_;
    // drain_scheduled_ stays true across Output: delivery is synchronous and
    // can reenter Offer (ACK -> new data -> same queue); clearing the flag
    // first would let that reentrant Offer start a second drain chain and
    // the port would serialize above its line rate.
    if (port_->up()) {
      port_->Output(std::move(frame));
    }
    if (!queue_.empty()) {
      ScheduleDrain(busy_until_);
    } else {
      drain_scheduled_ = false;
    }
  });
}

}  // namespace kite
