#include "src/base/histogram.h"

#include <algorithm>
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

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  // Only the buckets from other's min to its max can hold observations.
  const int last = BucketIndex(other.max_);
  for (int i = BucketIndex(other.min_); i <= last; ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

void LatencyHistogram::Reset() {
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
  buckets_.fill(0);
}

}  // namespace kite
