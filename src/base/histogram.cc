#include "src/base/histogram.h"

#include <cmath>

namespace kite {

uint64_t LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  if (p <= 0) {
    return min_;
  }
  if (p > 100) {
    p = 100;
  }
  // Nearest rank: the smallest rank r (1-based) with r >= p% of count.
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > count_) {
    rank = count_;
  }
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return BucketLowerBound(i);
    }
  }
  return max_;  // Unreachable: cumulative reaches count_.
}

void LatencyHistogram::Reset() {
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
  buckets_.fill(0);
}

}  // namespace kite
