#include "src/base/stats.h"

#include <algorithm>
#include <cmath>

#include "src/base/log.h"

namespace kite {

void Stats::Add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void Stats::Merge(const Stats& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

double Stats::Sum() const {
  double s = 0.0;
  for (double v : samples_) {
    s += v;
  }
  return s;
}

double Stats::Mean() const { return samples_.empty() ? 0.0 : Sum() / samples_.size(); }

double Stats::Min() const {
  KITE_CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Stats::Max() const {
  KITE_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Stats::StdDev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double mean = Mean();
  double acc = 0.0;
  for (double v : samples_) {
    acc += (v - mean) * (v - mean);
  }
  return std::sqrt(acc / (samples_.size() - 1));
}

double Stats::RelStdDevPercent() const {
  const double mean = Mean();
  if (mean == 0.0) {
    return 0.0;
  }
  return 100.0 * StdDev() / std::abs(mean);
}

double Stats::Percentile(double p) const {
  KITE_CHECK(!samples_.empty());
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (p <= 0.0) {
    return samples_.front();
  }
  if (p >= 100.0) {
    return samples_.back();
  }
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * samples_.size()));
  return samples_[rank == 0 ? 0 : rank - 1];
}

}  // namespace kite
