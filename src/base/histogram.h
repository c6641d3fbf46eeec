// A log-bucketed latency histogram with percentile extraction.
//
// `LatencyHistogram` keeps an HdrHistogram-style log-linear bucket array over
// nanosecond values: each power-of-two octave is split into 32 linear
// sub-buckets, so the bucket width is always < 1/32 of the value (≤ ~3.1%
// relative error), values 0..63 ns land in their own exact bucket, and the
// full uint64 range fits in 1920 buckets (15 KiB, fixed at construction).
// Recording is one array-index increment plus two compares; percentiles are
// extracted on demand by a nearest-rank walk and reported as the bucket's
// lower bound, so any recorded value that *is* a bucket boundary reads back
// exactly.
//
// It lives in src/base so every layer shares one type: the registry's stage
// histograms (src/obs), the vCPU run-queue wait ledger (src/sim) and the
// bench pipeline all record into it.
#ifndef SRC_BASE_HISTOGRAM_H_
#define SRC_BASE_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstdint>

namespace kite {

class LatencyHistogram {
 public:
  // 32 sub-buckets per octave; indices 0..63 are the two exact low octaves.
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 32
  // Highest index: msb=63 → (63-5)*32 + 63 = 1919.
  static constexpr int kNumBuckets = (63 - kSubBucketBits) * kSubBuckets + 2 * kSubBuckets;

  // Bucket index for a value: identity below 2*kSubBuckets, then
  // (msb - 5)*32 + the top six bits of the value.
  static int BucketIndex(uint64_t v) {
    if (v < 2 * kSubBuckets) {
      return static_cast<int>(v);
    }
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBucketBits;
    return (msb - kSubBucketBits) * kSubBuckets + static_cast<int>(v >> shift);
  }

  // Smallest value mapping to bucket `index` (inverse of BucketIndex).
  static uint64_t BucketLowerBound(int index) {
    if (index < 2 * kSubBuckets) {
      return static_cast<uint64_t>(index);
    }
    const int octave = index / kSubBuckets;  // >= 2
    const int sub = index % kSubBuckets;
    return static_cast<uint64_t>(sub + kSubBuckets) << (octave - 1);
  }

  // min_ starts at UINT64_MAX and max_ at 0, so the first sample sets both.
  void Record(uint64_t value_ns) {
    if (value_ns < min_) {
      min_ = value_ns;
    }
    if (value_ns > max_) {
      max_ = value_ns;
    }
    ++count_;
    sum_ += value_ns;
    ++buckets_[BucketIndex(value_ns)];
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0 : static_cast<double>(sum_) / static_cast<double>(count_); }

  // Nearest-rank percentile (p in [0,100]) reported as the lower bound of
  // the bucket holding that rank. Empty histogram → 0; p≤0 → min().
  uint64_t Percentile(double p) const;

  uint64_t p50() const { return Percentile(50); }
  uint64_t p90() const { return Percentile(90); }
  uint64_t p99() const { return Percentile(99); }
  uint64_t p999() const { return Percentile(99.9); }

  // Adds every observation of `other`, bucket by bucket: the result is
  // exactly the histogram that recorded both sample sets (same count, sum,
  // min, max and percentiles). Merging an empty histogram changes nothing.
  void Merge(const LatencyHistogram& other);

  void Reset();

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  std::array<uint64_t, kNumBuckets> buckets_{};
};

}  // namespace kite

#endif  // SRC_BASE_HISTOGRAM_H_
