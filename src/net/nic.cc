#include "src/net/nic.h"

#include "src/base/log.h"
#include "src/hv/domain.h"

namespace kite {

void NicNetIf::Output(EthernetFrame frame) {
  CountTx(frame);
  nic_->Transmit(std::move(frame));
}

Nic::Nic(Executor* executor, std::string bdf, std::string ifname, MacAddr mac,
         NicParams params)
    : PciDevice(std::move(bdf), "10GbE NIC"),
      executor_(executor),
      params_(params),
      netif_(std::move(ifname), mac, this) {}

Nic::~Nic() {
  if (peer_ != nullptr) {
    peer_->peer_ = nullptr;
  }
}

void Nic::ConnectBackToBack(Nic* a, Nic* b) {
  KITE_CHECK(a->peer_ == nullptr && b->peer_ == nullptr);
  a->peer_ = b;
  b->peer_ = a;
}

void Nic::Disconnect(Nic* a) {
  if (a->peer_ != nullptr) {
    a->peer_->peer_ = nullptr;
    a->peer_ = nullptr;
  }
}

void Nic::OnAssigned(Domain* owner) { vcpu_ = owner->vcpu(0); }

void Nic::OnUnassigned() { vcpu_ = nullptr; }

void Nic::Transmit(EthernetFrame frame) {
  if (peer_ == nullptr) {
    ++tx_dropped_;
    return;
  }
  // Bounded transmit queue: when the backlog fills the ring, drop the tail —
  // what a real NIC does under overload.
  const SimTime now = executor_->Now();
  if (QueueFull(wire_.size(), params_.tx_queue_frames)) {
    ++tx_dropped_;
    return;
  }
  if (vcpu_ != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("net/nic"));
    vcpu_->Charge(params_.tx_frame_cost);
  }
  const double bits = static_cast<double>(frame.WireBytes()) * 8.0;
  const SimDuration wire_time = Nanos(static_cast<int64_t>(bits / params_.gbps));
  SimTime start = tx_free_at_ > now ? tx_free_at_ : now;
  tx_free_at_ = start + wire_time;
  wire_.emplace_back(peer_, std::move(frame));
  executor_->PostAt(tx_free_at_ + params_.propagation, KITE_POST_SITE("nic/wire-arrival"),
                    [this] { LandOnPeer(); });
}

void Nic::LandOnPeer() {
  // Arrive only queues on the peer's side, so the front stays put until the
  // frame has moved out of it.
  wire_.front().peer->Arrive(std::move(wire_.front().frame));
  wire_.pop_front();
}

void Nic::Arrive(EthernetFrame&& frame) {
  if (faults_ != nullptr) {
    if (faults_->ShouldFail(FaultSite::kNicLoss)) {
      ++rx_lost_;  // Lost on the wire: the receive side never sees it.
      return;
    }
    if (faults_->ShouldFail(FaultSite::kNicCorrupt)) {
      ++rx_fcs_errors_;  // Bad FCS: hardware discards before the ring.
      return;
    }
  }
  if (QueueFull(rx_queue_.size(), params_.rx_queue_frames)) {
    ++rx_dropped_;
    return;
  }
  rx_queue_.push_back(std::move(frame));
  ScheduleRxDrain();
}

void Nic::ScheduleRxDrain() {
  if (rx_drain_scheduled_) {
    return;
  }
  rx_drain_scheduled_ = true;
  executor_->PostAfter(params_.irq_latency, KITE_POST_SITE("nic/rx-irq"),
                       [this] { DrainRx(); });
}

void Nic::DrainRx() {
  rx_drain_scheduled_ = false;
  // NAPI-style batch: drain everything queued; new arrivals during the drain
  // are picked up in this loop as well since we re-check the queue.
  while (!rx_queue_.empty()) {
    EthernetFrame frame = std::move(rx_queue_.front());
    rx_queue_.pop_front();
    if (vcpu_ != nullptr) {
      CpuScope cpu_scope(KITE_CPU_CATEGORY("net/nic"));
      vcpu_->Charge(params_.rx_frame_cost);
    }
    ++rx_delivered_;
    netif_.DeliverInput(std::move(frame));
  }
}

}  // namespace kite
