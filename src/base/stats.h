// Running statistics used by benchmarks to report means, relative standard
// deviations (the paper's Table 4), and latency percentiles.
#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <cstddef>
#include <vector>

namespace kite {

// Accumulates samples; cheap to copy. Percentile queries sort lazily.
class Stats {
 public:
  void Add(double sample);
  void Merge(const Stats& other);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  // Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double StdDev() const;
  // Relative standard deviation in percent: 100 * stddev / mean.
  double RelStdDevPercent() const;
  // p in [0, 100]; nearest-rank percentile.
  double Percentile(double p) const;
  // Raw samples (order unspecified: percentile queries sort in place). Lets
  // callers feed the same series into a LatencyHistogram or a report.
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace kite

#endif  // SRC_BASE_STATS_H_
