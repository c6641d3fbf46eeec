// Where does the driver domain's CPU go?
//
// Runs the Figure 6 topology (client ↔ NIC ↔ network driver domain ↔ guest,
// nuttcp UDP stream) with CPU attribution enabled and sweeps the offered
// load, reporting for each point:
//   - achieved goodput and the driver domain's vCPU utilization (raw ratio:
//     values above 1.0 mean more simulated work was queued against the vCPU
//     than the wall window holds),
//   - driver-domain CPU cost per delivered byte,
//   - where the cycles went: grant-copy share, total hypervisor share
//     (hypercalls + IRQ dispatch), netback service share — the paper's
//     "most of a driver domain's time is spent moving other domains' data"
//     claim as a measured number.
// A final determinism section re-runs the top load twice under the same
// shuffle seed and fails the bench if the two CpuReportJson dumps differ by
// a byte, then re-runs under a different seed to show the shares are a
// property of the workload, not of one event schedule.
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/obs/cpuattr.h"
#include "src/workloads/netbench.h"

namespace kite {
namespace {

struct CpuRun {
  NuttcpResult net;
  double util = 0;              // Driver vCPU over the measured window (raw).
  double cpu_per_byte_ns = 0;   // Driver busy ns per delivered byte.
  uint64_t busy_delta_ns = 0;   // Driver busy over the measured window.
  std::vector<uint64_t> category_delta_ns;  // Indexed by CPU category.
  std::string report_json;      // Full CpuReportJson at end of run.
};

// Share of the run's driver busy time spent in categories whose label starts
// with `prefix` (e.g. "hv/" for everything the hypervisor does on the driver
// domain's behalf).
double PrefixShare(const CpuRun& run, const char* prefix) {
  if (run.busy_delta_ns == 0) {
    return 0;
  }
  uint64_t sum = 0;
  for (uint32_t i = 0; i < run.category_delta_ns.size(); ++i) {
    if (std::strncmp(CpuCategoryLabel(i), prefix, std::strlen(prefix)) == 0) {
      sum += run.category_delta_ns[i];
    }
  }
  return static_cast<double>(sum) / static_cast<double>(run.busy_delta_ns);
}

CpuRun RunOne(OsKind os, double offered_gbps, uint64_t shuffle_seed) {
  auto sys = std::make_unique<KiteSystem>();
  sys->EnableCpuAttribution();
  if (shuffle_seed != 0) {
    sys->EnableScheduleShuffle(shuffle_seed);
  }
  DriverDomainConfig config;
  config.os = os;
  NetworkDomain* netdom = sys->CreateNetworkDomain(config);
  GuestVm* guest = sys->CreateGuest("server-guest");
  sys->AttachVif(guest, netdom, kGuestIp);
  if (!sys->WaitConnected(guest)) {
    std::fprintf(stderr, "FATAL: guest failed to connect\n");
    std::abort();
  }
  bool warm = false;
  sys->client()->stack()->Ping(kGuestIp, 8, [&](bool, SimDuration) { warm = true; });
  sys->WaitUntil([&] { return warm; }, Seconds(5));

  Vcpu* driver = netdom->domain()->vcpu(0);
  const std::vector<uint64_t> before = driver->ledger()->busy_ns;
  CpuUsageSample sample(driver);  // The new busy-window API (DESIGN.md §16).

  NuttcpConfig load;
  load.offered_gbps = offered_gbps;
  load.duration = Millis(200);
  NuttcpUdp nuttcp(sys->client()->stack(), guest->stack(), kGuestIp, load);
  bool done = false;
  CpuRun run;
  nuttcp.Run([&](const NuttcpResult& r) {
    done = true;
    run.net = r;
  });
  sys->WaitUntil([&] { return done; }, Seconds(30));

  run.util = sample.utilization();
  run.busy_delta_ns = static_cast<uint64_t>(sample.busy().ns());
  const std::vector<uint64_t>& after = driver->ledger()->busy_ns;
  run.category_delta_ns.resize(after.size(), 0);
  for (size_t i = 0; i < after.size(); ++i) {
    run.category_delta_ns[i] = after[i] - (i < before.size() ? before[i] : 0);
  }
  const uint64_t bytes = run.net.received * load.datagram_bytes;
  run.cpu_per_byte_ns =
      bytes == 0 ? 0
                 : static_cast<double>(run.busy_delta_ns) / static_cast<double>(bytes);
  run.report_json = sys->CpuReportJson();
  return run;
}

}  // namespace
}  // namespace kite

int main() {
  using namespace kite;
  PrintHeader("CPU attribution",
              "driver-domain CPU per byte and utilization vs offered load "
              "(fig06 topology, nuttcp UDP)");
  PrintNote("utilization is the raw busy/window ratio; >100% = overcommit "
            "(more work queued against the vCPU than the window holds)");
  BenchReport report("cpu",
                     "driver-domain CPU attribution under the fig06 nuttcp sweep");
  const std::vector<double> kLoads = {1.0, 2.0, 4.0, 6.0, 7.4};
  report.Param("duration_ms", 200);
  report.Param("datagram_bytes", 8192);
  report.Param("load_points", static_cast<double>(kLoads.size()));

  std::printf("%-8s %8s %10s %8s %12s %11s %8s %9s\n", "domain", "offered",
              "goodput", "util", "cpu/byte", "grant_copy", "hv", "netback");
  for (OsKind os : {OsKind::kUbuntuLinux, OsKind::kKiteRumprun}) {
    for (double offered : kLoads) {
      const CpuRun run = RunOne(os, offered, /*shuffle_seed=*/0);
      const double grant_copy = PrefixShare(run, "hv/grant_copy");
      const double hv = PrefixShare(run, "hv/");
      const double netback = PrefixShare(run, "netback/");
      std::printf("%-8s %5.1f Gb %6.2f Gbps %7.1f%% %9.2f ns %10.1f%% %7.1f%% %8.1f%%\n",
                  Pers(os), offered, run.net.goodput_gbps, run.util * 100.0,
                  run.cpu_per_byte_ns, grant_copy * 100.0, hv * 100.0,
                  netback * 100.0);
      const std::string label = StrFormat("%s@%.1f", PersLabel(os), offered);
      report.Value("offered_gbps", label, offered);
      report.Value("goodput_gbps", label, run.net.goodput_gbps);
      report.Value("driver_util", label, run.util);
      report.Value("cpu_per_byte_ns", label, run.cpu_per_byte_ns);
      report.Value("grant_copy_share", label, grant_copy);
      report.Value("hypercall_share", label, hv);
      report.Value("netback_share", label, netback);
      if (offered == kLoads.back()) {
        // Full per-category breakdown at the top load, one series point per
        // category that consumed driver CPU.
        for (uint32_t i = 0; i < run.category_delta_ns.size(); ++i) {
          if (run.category_delta_ns[i] == 0) {
            continue;
          }
          report.Value(
              "category_share", StrFormat("%s@%s", PersLabel(os), CpuCategoryLabel(i)),
              static_cast<double>(run.category_delta_ns[i]) /
                  static_cast<double>(run.busy_delta_ns));
        }
      }
    }
  }

  // Determinism: the ledgers are pure accounting over a deterministic
  // schedule, so the same seed must reproduce CpuReportJson byte-for-byte.
  const CpuRun seed1a = RunOne(OsKind::kKiteRumprun, kLoads.back(), /*seed=*/1);
  const CpuRun seed1b = RunOne(OsKind::kKiteRumprun, kLoads.back(), /*seed=*/1);
  const bool deterministic = seed1a.report_json == seed1b.report_json;
  std::printf("\nsame-seed CpuReportJson byte-identical: %s\n",
              deterministic ? "yes" : "NO — BUG");
  report.Value("same_seed_report_identical", "Kite", deterministic ? 1 : 0);
  // A different seed explores a different same-timestamp ordering; the
  // attribution shares are a property of the workload and should barely move.
  const CpuRun seed2 = RunOne(OsKind::kKiteRumprun, kLoads.back(), /*seed=*/2);
  const double drift =
      PrefixShare(seed1a, "hv/grant_copy") - PrefixShare(seed2, "hv/grant_copy");
  std::printf("grant-copy share drift across seeds: %.3f pp\n", drift * 100.0);
  report.Value("grant_copy_share_seed_drift", "Kite", drift);

  if (!deterministic) {
    std::fprintf(stderr, "FATAL: same-seed CPU reports differ\n");
    return 1;
  }
  return report.Write() ? 0 : 1;
}
