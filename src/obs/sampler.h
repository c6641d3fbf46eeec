// Continuous telemetry: a time-series sampler over the metric registry.
//
// End-of-run snapshots (FormatTable, BenchReport counters) say *what*
// happened; the sampler says *when*. Every `period` it walks the registry
// and appends one point per counter/gauge to a ring-bounded timeline:
// counters record the delta since the previous tick (a rate series), gauges
// record the level (queue depths, health states, cwnd). bench_failover's
// recovery dip and bench_tcp_loss's cwnd sawtooth both fall out of this one
// mechanism (DESIGN.md §15).
//
// Determinism contract: the tick runs as a *daemon* event, so an armed
// sampler never holds RunUntilIdle open and never draws from the shuffle
// RNG (see src/sim/executor.h) — enabling telemetry cannot perturb the
// schedule. Tick times, registry iteration order (std::map key order), and
// the sampled values are all functions of the simulation alone, so the same
// seed yields a byte-identical ToJson(), including across ring wraparound.
//
// Admission: a timeline starts recording at the first tick where its metric
// is "live" (nonzero delta for counters, nonzero level for gauges) and then
// records every tick — zeros included, because the dip *is* the signal. This
// keeps never-touched registry entries from bloating the export while still
// capturing the quiet half of a burst.
#ifndef SRC_OBS_SAMPLER_H_
#define SRC_OBS_SAMPLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/executor.h"
#include "src/sim/time.h"

namespace kite {

// Nothing runs until Start(): a sampler that is never started arms no
// daemon event.
struct SamplerParams {
  // Sampling interval; also the bin width of every derived rate series.
  SimDuration period = Millis(10);
  // Ring capacity per timeline. Older points are overwritten (and counted in
  // Timeline::dropped) once a series exceeds this many ticks.
  size_t ring_points = 1024;
  // Keep only metrics whose "domain/device/name" label starts with one of
  // these prefixes. Empty = keep everything that passes admission.
  std::vector<std::string> prefixes;
};

class MetricSampler {
 public:
  // The executor and registry must outlive the sampler. Works against any
  // executor/registry pair — a bare bench harness or a full KiteSystem.
  MetricSampler(Executor* executor, MetricRegistry* metrics, SamplerParams params);
  ~MetricSampler();

  MetricSampler(const MetricSampler&) = delete;
  MetricSampler& operator=(const MetricSampler&) = delete;

  // Takes the baseline snapshot (warm-up counts are excluded from the first
  // delta) and arms the periodic daemon tick. Idempotent while running.
  void Start();
  // Disarms the tick; recorded timelines remain readable.
  void Stop();
  bool running() const { return running_; }

  const SamplerParams& params() const { return params_; }
  // Ticks recorded since Start() (baseline not included).
  uint64_t ticks() const { return ticks_; }

  // One recorded series. Points are (tick time, value) pairs, oldest first
  // (ring unwrapped); counter points are per-period deltas.
  struct Timeline {
    MetricKey key;
    MetricRegistry::Kind kind;
    uint64_t dropped = 0;  // Points lost to ring overwrite.
    std::vector<std::pair<SimTime, double>> points;
  };
  // All admitted timelines in deterministic (domain, device, name) order.
  std::vector<Timeline> Timelines() const;

  // The artifact (src/base/artifact.h): top-level period_ns and ticks, then
  // one TimelineJsonRow per timeline in a "timelines" array. Deterministic
  // byte-for-byte given a deterministic run.
  std::string ToJson() const;

 private:
  struct Series {
    MetricRegistry::Kind kind = MetricRegistry::Kind::kCounter;
    double last = 0;        // Previous raw value (counter delta base).
    bool admitted = false;  // Recording started.
    uint64_t dropped = 0;
    std::vector<std::pair<int64_t, double>> ring;  // (t_ns, value).
    size_t head = 0;  // Next overwrite slot once the ring is full.
  };

  void Arm();
  void Tick();
  bool KeepLabel(const MetricKey& key) const;

  Executor* executor_;
  MetricRegistry* metrics_;
  SamplerParams params_;
  bool running_ = false;
  uint64_t ticks_ = 0;
  std::map<MetricKey, Series> series_;
  // Armed daemon ticks capture this flag; Stop()/destruction turns an
  // in-flight tick into a no-op instead of a use-after-free.
  std::shared_ptr<bool> alive_;
};

// The one timeline row of every artifact: label, key ("dom/dev/name"), kind,
// period_ns, dropped and points ([[t_ns,v],...], integral values as integers).
std::string TimelineJsonRow(const std::string& label, const MetricSampler::Timeline& tl,
                            SimDuration period);

}  // namespace kite

#endif  // SRC_OBS_SAMPLER_H_
