// Scale: what one guest lifecycle costs beside standing fleets of growing
// size, and whether a long run of lifecycles leaves anything behind (ROADMAP
// items 1 and 5).
//
// For each fleet size, a fresh system brings up a network and a storage
// domain and that many standing guests, each with a VIF and a VBD. Beside
// the fleet it then runs lifecycles back to back: create a guest, attach a
// VIF and a VBD, wait until both connect, destroy the guest, and wait until
// both backends reap it. Per lifecycle it reports
//
//   hypercalls          Hypervisor::hypercalls_issued() (xenstore ops too)
//   driver_cpu_us       simulated CPU of every driver-domain vCPU
//   sim_latency_us      simulated time from create to both reaps
//   host_us             host wall time
//   xenstore_lookups    XenStore::node_lookups(), charged or not
//
// A control plane whose cost follows live devices only keeps every column
// flat across fleet sizes; CI asserts that hypercalls per lifecycle at 32
// guests stay within 1.1x of those at 8.
//
// The churn phase then runs kChurnLifecycles lifecycles in one fresh system
// beside 32 guests and, per bucket of kChurnBucket lifecycles, reports host
// µs, simulated latency and driver-domain CPU per lifecycle, the process's
// current RSS (/proc/self/statm, not the peak the fleet sweep set), the
// registry's row count and the flight recorder's ring count. A lifecycle
// that leaves nothing behind keeps the last three flat; CI asserts that rows
// and rings at the last bucket equal those at the first, and that RSS stays
// within 1.1x.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench/common.h"

namespace kite {
namespace {

constexpr int kFleetSizes[] = {8, 32, 128};
constexpr int kLifecycles = 100;  // Per fleet size.
constexpr int kChurnFleet = 32;
constexpr int kChurnLifecycles = 3000;
constexpr int kChurnBucket = 300;
const Ipv4Addr kChurnIp = Ipv4Addr::FromOctets(10, 0, 0, 200);

struct PerLifecycle {
  double hypercalls = 0;
  double driver_cpu_us = 0;
  double sim_latency_us = 0;
  double host_us = 0;
  double xenstore_lookups = 0;
};

int64_t DriverBusyNs(KiteSystem* sys) {
  int64_t total = 0;
  for (DriverDomain* dd : sys->driver_domains()) {
    for (int i = 0; i < dd->domain()->vcpu_count(); ++i) {
      total += dd->domain()->vcpu(i)->busy_total().ns();
    }
  }
  return total;
}

// The process's resident set now, in MB.
double CurrentRssMb() {
  long pages = 0;
  long resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  const int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return read == 2 ? static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
                         (1024.0 * 1024.0)
                   : 0;
}

void Require(bool ok, const char* what, int fleet) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: %s (fleet of %d)\n", what, fleet);
    std::exit(1);
  }
}

// A network and a storage domain with `fleet` standing guests, each with a
// VIF and a VBD, settled.
class Fleet {
 public:
  explicit Fleet(int fleet) : fleet_(fleet), sys_(Params()) {
    netdom_ = sys_.CreateNetworkDomain();
    stordom_ = sys_.CreateStorageDomain();
    for (int i = 0; i < fleet; ++i) {
      GuestVm* g = sys_.CreateGuest("fleet-" + std::to_string(i), 1, 512);
      sys_.AttachVif(g, netdom_, Ipv4Addr::FromOctets(10, 0, 0, static_cast<uint8_t>(10 + i)));
      sys_.AttachVbd(g, stordom_);
      Require(sys_.WaitConnected(g, Seconds(5)), "fleet guest failed to connect", fleet);
    }
    sys_.RunFor(Millis(10));  // Let bring-up's last wakes settle.
  }

  KiteSystem& sys() { return sys_; }

  // One lifecycle; returns its simulated duration.
  SimDuration Lifecycle(int serial) {
    const SimTime t0 = sys_.Now();
    GuestVm* guest = sys_.CreateGuest("churn-" + std::to_string(serial), 1, 512);
    sys_.AttachVif(guest, netdom_, kChurnIp);
    sys_.AttachVbd(guest, stordom_);
    Require(sys_.WaitConnected(guest, Seconds(1)), "churn guest failed to connect", fleet_);
    const uint64_t vifs = netdom_->driver()->instances_reaped();
    const uint64_t vbds = stordom_->driver()->instances_reaped();
    sys_.DestroyGuest(guest);
    Require(sys_.WaitUntil(
                [&] {
                  return netdom_->driver()->instances_reaped() > vifs &&
                         stordom_->driver()->instances_reaped() > vbds;
                },
                Seconds(1)),
            "churn guest's devices were not reaped", fleet_);
    return sys_.Now() - t0;
  }

 private:
  static KiteSystem::Params Params() {
    KiteSystem::Params params;
    params.disk_store_data = false;
    return params;
  }

  const int fleet_;
  KiteSystem sys_;
  NetworkDomain* netdom_ = nullptr;
  StorageDomain* stordom_ = nullptr;
};

PerLifecycle RunFleet(int fleet) {
  Fleet f(fleet);
  KiteSystem& sys = f.sys();
  const uint64_t hc0 = sys.hv().hypercalls_issued();
  const uint64_t lookups0 = sys.hv().store().node_lookups();
  const int64_t busy0 = DriverBusyNs(&sys);
  int64_t sim_ns = 0;
  const auto h0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kLifecycles; ++i) {
    sim_ns += f.Lifecycle(i).ns();
  }
  const double host_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - h0).count();

  const double n = kLifecycles;
  PerLifecycle per;
  per.hypercalls = static_cast<double>(sys.hv().hypercalls_issued() - hc0) / n;
  per.driver_cpu_us = static_cast<double>(DriverBusyNs(&sys) - busy0) / 1e3 / n;
  per.sim_latency_us = static_cast<double>(sim_ns) / 1e3 / n;
  per.host_us = host_us / n;
  per.xenstore_lookups = static_cast<double>(sys.hv().store().node_lookups() - lookups0) / n;
  return per;
}

void RunChurn(BenchReport* report) {
  Fleet f(kChurnFleet);
  KiteSystem& sys = f.sys();
  std::printf("\nchurn: %d lifecycles beside %d guests, per bucket of %d\n", kChurnLifecycles,
              kChurnFleet, kChurnBucket);
  std::printf("%10s %10s %16s %15s %10s %10s %8s\n", "lifecycle", "host_us", "sim_latency_us",
              "driver_cpu_us", "rss_mb", "rows", "rings");
  for (int done = 0; done < kChurnLifecycles;) {
    const int64_t busy0 = DriverBusyNs(&sys);
    int64_t sim_ns = 0;
    const auto h0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kChurnBucket; ++i, ++done) {
      sim_ns += f.Lifecycle(done).ns();
    }
    const double n = kChurnBucket;
    const double host_us =
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - h0)
            .count() /
        n;
    const double sim_us = static_cast<double>(sim_ns) / 1e3 / n;
    const double cpu_us = static_cast<double>(DriverBusyNs(&sys) - busy0) / 1e3 / n;
    const double rss_mb = CurrentRssMb();
    const double rows = static_cast<double>(sys.metric_registry().size());
    const double rings = static_cast<double>(sys.recorder().ring_count());
    std::printf("%10d %10.1f %16.1f %15.1f %10.1f %10.0f %8.0f\n", done, host_us, sim_us,
                cpu_us, rss_mb, rows, rings);
    const std::string label = "lc" + std::to_string(done);
    report->Value("churn_host_us_per_lifecycle", label, host_us);
    report->Value("churn_sim_latency_us_per_lifecycle", label, sim_us);
    report->Value("churn_driver_cpu_us_per_lifecycle", label, cpu_us);
    report->Value("churn_rss_mb", label, rss_mb);
    report->Value("churn_registry_rows", label, rows);
    report->Value("churn_recorder_rings", label, rings);
  }
}

int Main() {
  PrintHeader("Scale", "one guest lifecycle beside standing fleets of growing size");
  PrintNote("each fleet guest has a VIF and a VBD; a lifecycle creates a guest, "
            "attaches both, waits until both connect, destroys it and waits for both reaps");
  BenchReport report("scale", "per-lifecycle cost against standing fleet size");
  report.Param("lifecycles_per_fleet", kLifecycles);

  std::printf("%8s %12s %15s %16s %10s %18s\n", "fleet", "hypercalls", "driver_cpu_us",
              "sim_latency_us", "host_us", "xenstore_lookups");
  for (int fleet : kFleetSizes) {
    const PerLifecycle per = RunFleet(fleet);
    std::printf("%8d %12.1f %15.1f %16.1f %10.1f %18.1f\n", fleet, per.hypercalls,
                per.driver_cpu_us, per.sim_latency_us, per.host_us, per.xenstore_lookups);
    const std::string label = "fleet" + std::to_string(fleet);
    report.Value("hypercalls_per_lifecycle", label, per.hypercalls);
    report.Value("driver_cpu_us_per_lifecycle", label, per.driver_cpu_us);
    report.Value("sim_latency_us_per_lifecycle", label, per.sim_latency_us);
    report.Value("host_us_per_lifecycle", label, per.host_us);
    report.Value("xenstore_lookups_per_lifecycle", label, per.xenstore_lookups);
  }
  report.Param("churn_fleet", kChurnFleet);
  report.Param("churn_lifecycles", kChurnLifecycles);
  report.Param("churn_bucket", kChurnBucket);
  RunChurn(&report);
  return report.Write() ? 0 : 1;
}

}  // namespace
}  // namespace kite

int main() { return kite::Main(); }
