// Observability: the backend health watchdog.
//
// Each backend instance (netback vif, blkback vbd) registers a sampler that
// reports its ring watermarks and internal backlog. A periodic simulated-time
// probe (a daemon event — it never keeps the simulation alive) computes the
// ring-stall age: how long the instance has had pending work without the
// consumer or response producer advancing. The age drives a per-instance
// state machine
//
//     healthy --degraded_after--> degraded --stalled_after--> stalled
//
// that collapses back to healthy the moment progress resumes or the backlog
// drains. Transitions are counted in the MetricRegistry, recorded in the
// flight recorder, and dispatched to subscribers (KiteSystem's, which
// publishes into xenstore, comes first) so a wedged ring is visible long
// before a WaitUntil timeout fires. Thresholds are multiples of the probe
// period; defaults are generous enough that normal device latency never
// trips them (the CI watchdog job proves a full explore lifecycle stays
// silent even with pathologically tight values).
#ifndef SRC_OBS_HEALTH_H_
#define SRC_OBS_HEALTH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/sim/executor.h"
#include "src/sim/time.h"

namespace kite {

enum class HealthState : int {
  kHealthy = 0,
  kDegraded = 1,
  kStalled = 2,
};

const char* HealthStateName(HealthState state);

// What a backend instance reports per probe. Ring indices are free-running
// uint32 counters (same convention as SharedRing); only differences are used,
// so wraparound is harmless.
struct HealthSample {
  bool connected = false;
  uint32_t req_prod = 0;   // Frontend request producer.
  uint32_t req_cons = 0;   // Backend request consumer.
  uint32_t rsp_prod = 0;   // Backend response producer (private).
  int queue_depth = 0;     // Backend-internal backlog (queued frames, in-flight ops).
};

struct HealthParams {
  SimDuration probe_period = Millis(10);
  SimDuration degraded_after = Millis(50);
  SimDuration stalled_after = Millis(200);
};

class HealthMonitor {
 public:
  using Sampler = std::function<HealthSample()>;
  // (backend dom, device, state being left, new state). The old state is
  // what a policy engine needs for hysteresis decisions.
  using Subscriber = std::function<void(int32_t dom, const std::string& device,
                                        HealthState old_state, HealthState new_state)>;

  HealthMonitor(Executor* executor, MetricRegistry* metrics, FlightRecorder* recorder,
                HealthParams params);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Observes every state transition without displacing any other
  // subscriber. Dispatch order is deterministic: subscription order, and
  // KiteSystem subscribes first in its constructor. Callbacks run inside the
  // probe — they must not Register/Unregister/Subscribe synchronously; defer
  // any reaction through the executor. The returned id unsubscribes.
  int64_t Subscribe(Subscriber subscriber);
  void Unsubscribe(int64_t id);
  int subscriber_count() const { return static_cast<int>(subscribers_.size()); }

  // Registers an instance; the returned id unregisters it. `domain_name` and
  // `device` key the per-instance gauges ("<domain>/<device>/health_state");
  // `devid` tags flight-recorder transition records. The sampler must stay
  // callable until Unregister.
  int64_t Register(int32_t dom, const std::string& domain_name,
                   const std::string& device, int devid, Sampler sampler);
  void Unregister(int64_t id);

  // Arms the periodic probe (idempotent). Probes are daemon events: they
  // fire while the simulation runs but never hold it open.
  void Start();

  // Probes every instance immediately — the invariant checker calls this at
  // quiesce so verdicts are fresh, not left over from the last periodic tick.
  void ProbeNow();

  HealthState state(int32_t dom, const std::string& device) const;

  struct InstanceInfo {
    int32_t dom = 0;
    std::string domain_name;
    std::string device;
    HealthState state = HealthState::kHealthy;
    SimDuration stall_age{0};
    uint32_t backlog = 0;  // Unconsumed requests + internal queue depth.
    HealthSample last;
  };
  // Registration order (deterministic).
  std::vector<InstanceInfo> Instances() const;

  // Human-readable health table — the health section of DumpDiagnostics.
  std::string FormatTable() const;

  const HealthParams& params() const { return params_; }
  uint64_t probes_run() const { return probes_run_; }

 private:
  struct Instance {
    int32_t dom = 0;
    std::string domain_name;
    std::string device;
    int devid = 0;
    Sampler sampler;
    HealthState state = HealthState::kHealthy;
    bool have_baseline = false;
    uint32_t last_cons = 0;
    uint32_t last_rsp = 0;
    SimTime last_progress;
    HealthSample last;
    SimDuration stall_age{0};
    uint32_t backlog = 0;
    Gauge* state_gauge = nullptr;
    Gauge* stall_ns_gauge = nullptr;
    Gauge* backlog_gauge = nullptr;
  };

  void Tick();
  void Probe();
  void ProbeInstance(Instance& inst);
  void UpdateAggregates();

  Executor* executor_;
  MetricRegistry* metrics_;
  FlightRecorder* recorder_;
  HealthParams params_;
  // Subscription order == dispatch order (std::map iterates ids ascending).
  std::map<int64_t, Subscriber> subscribers_;
  int64_t next_subscriber_id_ = 1;
  bool started_ = false;
  int64_t next_id_ = 1;
  uint64_t probes_run_ = 0;
  std::map<int64_t, Instance> instances_;

  Counter* probes_counter_;
  Counter* transitions_counter_;
  Counter* stalled_transitions_counter_;
  Gauge* instances_gauge_;
  Gauge* healthy_gauge_;
  Gauge* degraded_gauge_;
  Gauge* stalled_gauge_;
};

}  // namespace kite

#endif  // SRC_OBS_HEALTH_H_
