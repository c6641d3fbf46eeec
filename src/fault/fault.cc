#include "src/fault/fault.h"

#include "src/base/log.h"

namespace kite {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kGrantMap:
      return "grant-map";
    case FaultSite::kEventNotify:
      return "event-notify";
    case FaultSite::kXenstoreRead:
      return "xenstore-read";
    case FaultSite::kDiskIo:
      return "disk-io";
    case FaultSite::kNicLoss:
      return "nic-loss";
    case FaultSite::kNicCorrupt:
      return "nic-corrupt";
    case FaultSite::kDiskHang:
      return "disk-hang";
    case FaultSite::kCount:
      break;
  }
  return "?";
}

FaultInjector::FaultInjector(uint64_t seed, MetricRegistry* registry,
                             FlightRecorder* recorder)
    : rng_(seed), recorder_(recorder) {
  for (int i = 0; i < kSites; ++i) {
    const char* site = FaultSiteName(static_cast<FaultSite>(i));
    trips_[i] = registry->counter("fault", site, "trips");
    rolls_[i] = registry->counter("fault", site, "rolls");
  }
}

void FaultInjector::set_rate(FaultSite site, double p) {
  KITE_CHECK(p >= 0.0 && p <= 1.0) << "fault rate must be a probability";
  rates_[static_cast<int>(site)] = p;
}

void FaultInjector::ClearRates() { rates_.fill(0.0); }

bool FaultInjector::ShouldFail(FaultSite site) {
  const int i = static_cast<int>(site);
  if (rates_[i] <= 0.0) {
    return false;  // No RNG consumption: fault-free runs stay byte-identical.
  }
  rolls_[i]->Inc();
  if (!rng_.NextBool(rates_[i])) {
    return false;
  }
  trips_[i]->Inc();
  recorder_->Record(0, FlightKind::kFaultTripped, i, trips_[i]->value());
  return true;
}

uint64_t FaultInjector::trips(FaultSite site) const {
  return trips_[static_cast<int>(site)]->value();
}

uint64_t FaultInjector::rolls(FaultSite site) const {
  return rolls_[static_cast<int>(site)]->value();
}

uint64_t FaultInjector::total_trips() const {
  uint64_t n = 0;
  for (Counter* t : trips_) {
    n += t->value();
  }
  return n;
}

}  // namespace kite
