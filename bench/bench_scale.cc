// Scale: what one guest lifecycle costs beside standing fleets of growing
// size (ROADMAP items 1 and 5).
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
#include <chrono>
#include <string>

#include "bench/common.h"

namespace kite {
namespace {

constexpr int kFleetSizes[] = {8, 32, 128};
constexpr int kLifecycles = 100;  // Per fleet size.
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

void Require(bool ok, const char* what, int fleet) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: %s (fleet of %d)\n", what, fleet);
    std::exit(1);
  }
}

PerLifecycle RunFleet(int fleet) {
  KiteSystem::Params params;
  params.disk_store_data = false;
  KiteSystem sys(params);
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  for (int i = 0; i < fleet; ++i) {
    GuestVm* g = sys.CreateGuest("fleet-" + std::to_string(i), 1, 512);
    sys.AttachVif(g, netdom, Ipv4Addr::FromOctets(10, 0, 0, static_cast<uint8_t>(10 + i)));
    sys.AttachVbd(g, stordom);
    Require(sys.WaitConnected(g, Seconds(5)), "fleet guest failed to connect", fleet);
  }
  sys.RunFor(Millis(10));  // Let bring-up's last wakes settle.

  const uint64_t hc0 = sys.hv().hypercalls_issued();
  const uint64_t lookups0 = sys.hv().store().node_lookups();
  const int64_t busy0 = DriverBusyNs(&sys);
  int64_t sim_ns = 0;
  const auto h0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kLifecycles; ++i) {
    const SimTime t0 = sys.Now();
    GuestVm* guest = sys.CreateGuest("churn-" + std::to_string(i), 1, 512);
    sys.AttachVif(guest, netdom, kChurnIp);
    sys.AttachVbd(guest, stordom);
    Require(sys.WaitConnected(guest, Seconds(1)), "churn guest failed to connect", fleet);
    const uint64_t vifs = netdom->driver()->instances_reaped();
    const uint64_t vbds = stordom->driver()->instances_reaped();
    sys.DestroyGuest(guest);
    Require(sys.WaitUntil(
                [&] {
                  return netdom->driver()->instances_reaped() > vifs &&
                         stordom->driver()->instances_reaped() > vbds;
                },
                Seconds(1)),
            "churn guest's devices were not reaped", fleet);
    sim_ns += (sys.Now() - t0).ns();
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
  return report.Write() ? 0 : 1;
}

}  // namespace
}  // namespace kite

int main() { return kite::Main(); }
