#include "src/obs/recorder.h"

#include "src/base/strings.h"

namespace kite {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

const char* FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kDomainCreated:
      return "domain-created";
    case FlightKind::kDomainDestroyed:
      return "domain-destroyed";
    case FlightKind::kXenbusSwitch:
      return "xenbus-switch";
    case FlightKind::kRingPush:
      return "ring-push";
    case FlightKind::kGrantMap:
      return "grant-map";
    case FlightKind::kGrantMapFail:
      return "grant-map-fail";
    case FlightKind::kGrantUnmap:
      return "grant-unmap";
    case FlightKind::kEventDropped:
      return "event-dropped";
    case FlightKind::kEventVanished:
      return "event-vanished";
    case FlightKind::kFaultTripped:
      return "fault-tripped";
    case FlightKind::kInstanceReaped:
      return "instance-reaped";
    case FlightKind::kHealthTransition:
      return "health-transition";
    case FlightKind::kMigrateStart:
      return "migrate-start";
    case FlightKind::kMigrateDone:
      return "migrate-done";
    case FlightKind::kInstanceRetired:
      return "instance-retired";
  }
  return "?";
}

FlightRecorder::FlightRecorder(Executor* executor, size_t capacity)
    : executor_(executor), capacity_(RoundUpPow2(capacity == 0 ? 1 : capacity)) {}

FlightRecorder::DomainRing* FlightRecorder::ring(int32_t dom) {
  auto it = rings_.find(dom);
  if (it == rings_.end()) {
    if (dom >= 0 && static_cast<size_t>(dom) < destroyed_.size() && destroyed_[dom]) {
      return nullptr;
    }
    it = rings_.emplace(dom, std::make_unique<DomainRing>(executor_, dom, capacity_))
             .first;
  }
  return it->second.get();
}

void FlightRecorder::DomainDestroyed(int32_t dom) {
  if (dom >= 0) {
    if (static_cast<size_t>(dom) >= destroyed_.size()) {
      destroyed_.resize(static_cast<size_t>(dom) + 1);
    }
    destroyed_[dom] = true;
  }
  if (rings_.count(dom) != 0) {
    dead_rings_.push_back(dom);
  }
  while (dead_rings_.size() > kDeadRings) {
    rings_.erase(dead_rings_.front());
    dead_rings_.pop_front();
  }
}

uint64_t FlightRecorder::recorded(int32_t dom) const {
  auto it = rings_.find(dom);
  return it == rings_.end() ? 0 : it->second->recorded();
}

uint64_t FlightRecorder::total_recorded() const {
  uint64_t total = 0;
  for (const auto& [dom, ring] : rings_) {
    total += ring->recorded();
  }
  return total;
}

std::vector<FlightRecord> FlightRecorder::DomainRing::Tail(size_t max) const {
  const uint64_t available = head_ < capacity() ? head_ : capacity();
  const uint64_t take = available < max ? available : max;
  std::vector<FlightRecord> out;
  out.reserve(take);
  for (uint64_t i = head_ - take; i < head_; ++i) {
    out.push_back(slots_[i & mask_]);
  }
  return out;
}

std::string FlightRecorder::FormatTail(int32_t dom, size_t max) const {
  auto it = rings_.find(dom);
  if (it == rings_.end()) {
    return StrFormat("  dom %d: no records\n", dom);
  }
  const DomainRing& ring = *it->second;
  std::string out =
      StrFormat("  dom %d: %llu record(s)", dom,
                static_cast<unsigned long long>(ring.recorded()));
  const std::vector<FlightRecord> tail = ring.Tail(max);
  if (ring.recorded() > tail.size()) {
    out += StrFormat(", last %zu", tail.size());
  }
  out += "\n";
  for (const FlightRecord& r : tail) {
    out += StrFormat("    t=%.9fs %-17s dev=%d a=%llu b=%llu\n",
                     static_cast<double>(r.t_ns) * 1e-9, FlightKindName(r.kind), r.dev,
                     static_cast<unsigned long long>(r.a),
                     static_cast<unsigned long long>(r.b));
  }
  return out;
}

std::string FlightRecorder::FormatAll(size_t max_per_domain) const {
  std::string out;
  for (const auto& [dom, ring] : rings_) {
    (void)ring;
    out += FormatTail(dom, max_per_domain);
  }
  return out;
}

}  // namespace kite
