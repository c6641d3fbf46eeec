// Observability: a zero-dependency metric registry.
//
// Every counter in the simulator used to be an ad-hoc `uint64_t` member with
// a bespoke accessor; bugs like "failed RX copies still counted as
// delivered" were invisible because nothing exported the numbers uniformly.
// The registry gives each metric a stable (domain, device, name) key and a
// stable-address handle (`Counter*`, `Gauge*`, `LatencyHistogram*`) so hot
// paths pay exactly one pointer-chase per update — the same cost as the old
// member increments. The latency kind is the shared log-bucket histogram of
// src/base/histogram.h.
//
// Rows of one (domain, device) form a group. A component that lives and dies
// with a device (a backend instance, a frontend, a guest's stack) holds an
// Owner on its group; when the group's last owner goes, its counters are
// added and its histograms merged into a retired row and its cells freed, so
// nothing a dead device registered outlives it while every total survives.
//
// Conventions (DESIGN.md §8):
//   domain  — who owns the number ("hv", "fault", or a domain name such as
//             "kite-netdom" / "ubuntu-guest0").
//   device  — the device or subsystem within the owner ("vif1.0", "xvda",
//             "grant", "evtchn", or "-" when there is no finer grain).
//   name    — snake_case metric name ("guest_tx_frames", "tx_bad_request").
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/histogram.h"

namespace kite {

// Monotonic event count. `Set` exists only to sync a count kept outside the
// registry (KiteSystem::FormatMetrics copies the tracer's drop count with
// it); new code should stick to Inc/Add.
class Counter {
 public:
  void Inc() { ++value_; }
  void Add(uint64_t n) { value_ += n; }
  void Set(uint64_t n) { value_ = n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Point-in-time level (queue depth, instance count).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

struct MetricKey {
  std::string domain;
  std::string device;
  std::string name;

  auto operator<=>(const MetricKey&) const = default;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Machine-wide domain of the retired rows of destroyed guests' devices
  // ("guests/vif-retired/tx_dropped").
  static constexpr const char* kGuestsRetired = "guests";

  // Get-or-create: the same key always returns the same handle. A handle
  // stays valid while its (domain, device) group has an owner, and for the
  // registry's lifetime when the group never had one. A lookup takes no
  // ownership, so readers never pin a row. A key may not change kind
  // (counter vs gauge vs latency); doing so aborts.
  Counter* counter(const std::string& domain, const std::string& device,
                   const std::string& name);
  Gauge* gauge(const std::string& domain, const std::string& device,
               const std::string& name);
  // Log-bucketed nanosecond distribution with percentile extraction; by
  // convention the metric name ends in `_ns`.
  LatencyHistogram* latency(const std::string& domain, const std::string& device,
                            const std::string& name);

  enum class Kind { kCounter, kGauge, kLatency };

  struct Sample {
    MetricKey key;
    Kind kind;
    double value;     // Counter/gauge value; latency mean.
    uint64_t count;   // Latency observation count; 0 otherwise.
    double min = 0;   // Latency only.
    double max = 0;   // Latency only.
    uint64_t p50 = 0;   // Latency only (ns).
    uint64_t p90 = 0;   // Latency only (ns).
    uint64_t p99 = 0;   // Latency only (ns).
    uint64_t p999 = 0;  // Latency only (ns).
  };

  // All metrics in deterministic (domain, device, name) order. With
  // `skip_zero`, never-touched counters/gauges and empty histograms are
  // omitted.
  std::vector<Sample> Snapshot(bool skip_zero = false) const;

  // Human-readable table of Snapshot(skip_zero) for bench/test output.
  // A non-empty `prefix` keeps only rows whose "domain/device/name" label
  // starts with it (e.g. "obs/health" for the watchdog aggregates), so
  // focused snapshots don't print the full registry.
  std::string FormatTable(bool skip_zero = true, const std::string& prefix = "") const;

  size_t size() const { return metrics_.size(); }

 private:
  struct Group {
    int owners = 0;
    std::string retired_domain;
    std::string retired_device;
  };
  using GroupMap = std::map<std::pair<std::string, std::string>, Group>;

 public:
  // One owner's reference on a (domain, device) group, released at
  // destruction. Several owners may hold one group at once (a draining
  // instance and its successor for the same device); the last release folds
  // the group: each counter is added to, and each histogram merged into,
  // the same-named row under (retired_domain, retired_device), each gauge
  // is dropped, and every cell is freed. An Owner must not outlive its
  // registry.
  class Owner {
   public:
    Owner() = default;
    Owner(Owner&& other) noexcept
        : registry_(std::exchange(other.registry_, nullptr)), group_(other.group_) {}
    Owner& operator=(Owner&& other) noexcept {
      if (this != &other) {
        Release();
        registry_ = std::exchange(other.registry_, nullptr);
        group_ = other.group_;
      }
      return *this;
    }
    ~Owner() { Release(); }

    // The group's rows by name (get-or-create, as the registry's own).
    Counter* counter(const std::string& name) const;
    LatencyHistogram* latency(const std::string& name) const;

   private:
    friend class MetricRegistry;
    Owner(MetricRegistry* registry, GroupMap::iterator group)
        : registry_(registry), group_(group) {}
    void Release();

    MetricRegistry* registry_ = nullptr;
    GroupMap::iterator group_;
  };

  // Takes one ownership of (domain, device). The first owner names where
  // the group retires to; later owners share it.
  Owner Own(const std::string& domain, const std::string& device,
            const std::string& retired_domain, const std::string& retired_device);

  // Groups with at least one owner.
  size_t owned_group_count() const { return groups_.size(); }

 private:
  struct Cell {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> latency;
  };

  Cell* GetOrCreate(const MetricKey& key, Kind kind);
  // Drops one owner; the last one folds the group into its retired rows.
  void Release(GroupMap::iterator group);

  std::map<MetricKey, Cell> metrics_;
  GroupMap groups_;
};

}  // namespace kite

#endif  // SRC_OBS_METRICS_H_
