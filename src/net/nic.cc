#include "src/net/nic.h"

#include "src/base/log.h"
#include "src/hv/domain.h"

namespace kite {
namespace {

// The 10GbE NIC: line rate, cable, driver per-frame costs and ring depths in
// frames (both rings drop tail).
constexpr double kLineGbps = 10.0;
constexpr SimDuration kPropagation = Nanos(500);  // Direct SFI/SFP+ cable.
constexpr SimDuration kRxFrameCost = Nanos(250);
constexpr SimDuration kTxFrameCost = Nanos(200);
constexpr SimDuration kIrqLatency = Micros(1);
constexpr size_t kTxQueueFrames = 1024;
constexpr size_t kRxQueueFrames = 1024;

}  // namespace

void NicNetIf::Output(EthernetFrame frame) {
  nic_->Transmit(std::move(frame));
}

Nic::Nic(Executor* executor, std::string bdf, std::string ifname, MacAddr mac,
         FaultInjector* faults)
    : PciDevice(std::move(bdf), "10GbE NIC"),
      executor_(executor),
      netif_(std::move(ifname), mac, this),
      faults_(faults) {}

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
  if (QueueFull(wire_.size(), kTxQueueFrames)) {
    ++tx_dropped_;
    return;
  }
  if (vcpu_ != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("net/nic"));
    vcpu_->Charge(kTxFrameCost);
  }
  const double bits = static_cast<double>(frame.WireBytes()) * 8.0;
  const SimDuration wire_time = Nanos(static_cast<int64_t>(bits / kLineGbps));
  SimTime start = tx_free_at_ > now ? tx_free_at_ : now;
  tx_free_at_ = start + wire_time;
  wire_.emplace_back(peer_, std::move(frame));
  executor_->PostAt(tx_free_at_ + kPropagation, KITE_POST_SITE("nic/wire-arrival"),
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
    // Lost on the wire, the receive side never sees the frame; with a bad
    // FCS, hardware discards it before the ring.
    if (faults_->ShouldFail(FaultSite::kNicLoss) ||
        faults_->ShouldFail(FaultSite::kNicCorrupt)) {
      return;
    }
  }
  if (QueueFull(rx_queue_.size(), kRxQueueFrames)) {
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
  executor_->PostAfter(kIrqLatency, KITE_POST_SITE("nic/rx-irq"),
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
      vcpu_->Charge(kRxFrameCost);
    }
    ++rx_delivered_;
    netif_.DeliverInput(std::move(frame));
  }
}

}  // namespace kite
