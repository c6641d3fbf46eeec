// Per-layer probe for the traced run: reads the program's registry counters,
// CPU ledgers, stage histograms and xenstore tree through their public
// accessors around each timed window, and pools them over the windows it saw.
// Every value it reports is a function of the simulation alone, so it must
// repeat exactly across runs of one seed.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {

// Quantiles over several log-bucketed histograms. Neither histogram type can
// be merged, so each is sampled at kGrid evenly spaced quantiles, each point
// weighted by the histogram's count. Integer weights keep the result exact.
class QuantileSketch {
 public:
  template <typename H>
  void Add(const H& h) {
    for (int k = 0; k < kGrid && h.count() > 0; ++k) {
      points_.emplace_back(h.Percentile(100.0 * (k + 0.5) / kGrid), h.count());
      total_ += h.count();
    }
  }
  bool empty() const { return total_ == 0; }
  // The smallest sampled value with at least per_mille/1000 of the weight at
  // or below it.
  uint64_t Quantile(uint64_t per_mille);

 private:
  static constexpr int kGrid = 200;
  std::vector<std::pair<uint64_t, uint64_t>> points_;  // (value, weight)
  uint64_t total_ = 0;
};

class LayerProbe {
 public:
  // Turns on CPU attribution and records the starting state. Call right
  // before a window.
  void Begin(Workload& w);
  // Adds the window that just ended, which completed `ops` ops.
  void End(Workload& w, uint64_t ops);
  // Per-op layer metrics over every window seen. A metric whose layer did
  // no work (a ratio with nothing to divide, an empty histogram) is left
  // out, and reported as n/a.
  std::map<std::string, double> Report();

 private:
  std::map<kite::MetricKey, uint64_t> counters_;
  size_t registry_keys_ = 0;
  size_t xenstore_nodes_ = 0;
  double ops_ = 0;
  std::map<std::string, double> totals_;  // Summed over windows.
  std::map<std::string, QuantileSketch> sketches_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
