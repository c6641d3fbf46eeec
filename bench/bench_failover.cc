// Failover: aggregate throughput around a kill-one-of-K shard event.
//
// The headline sharded topology (64 guests over 4 network + 2 storage
// domains, DESIGN.md §12) under steady aggregate UDP load. Mid-run one
// network shard is wedged to `stalled` (the stall-demo kick-swallow), the
// health watchdog flags it, and the Rebalancer force-evacuates its guests
// onto the healthy shards. The client-side throughput time-series comes from
// the MetricSampler (DESIGN.md §15): the recv callback bumps a registry
// counter and the sampler's 10 ms ticks difference it into bins — the same
// code path every timeline uses. The bench reports the failover figures of
// merit:
//
//   pre_fault_pps      steady-state aggregate throughput before the wedge
//   min_post_fault_pps the bottom of the dip
//   time_to_recover_ms first bin back at >=90% of pre-fault, from the wedge
//   recovery_percent   mean of the final bins as % of pre-fault
//
// Exit status is non-zero unless throughput recovers to >=90% of the
// pre-fault rate within the run — the CI failover smoke job runs this binary
// and asserts the same bound from BENCH_failover.json.
//
// Traffic pauses for a few milliseconds around the wedge itself: the
// kick-swallow fault site is global while armed, and the wedge must hit
// exactly one parked netback, not every shard with a send in flight. The
// pause is shorter than one bin and is charged to the dip.
#include <algorithm>
#include <vector>

#include "bench/common.h"
#include "src/obs/profile.h"

int main() {
  using namespace kite;
  PrintHeader("Failover", "throughput around a kill-one-of-K network shard event");
  PrintNote("one of 4 netback shards wedged to stalled at t=150ms; Rebalancer "
            "evacuates its guests; 10 ms bins");

  constexpr int kNetShards = 4;
  constexpr int kStorShards = 2;
  constexpr int kGuests = 64;
  constexpr int kBinMs = 10;
  constexpr int kDurationMs = 400;
  constexpr int kFaultMs = 150;
  constexpr int kNumBins = kDurationMs / kBinMs;
  const SimDuration kSendPeriod = Micros(500);  // 2k pps per guest, 128k aggregate.

  KiteSystem::Params params;
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Millis(20);
  // One tick per bin; started manually at t0 so warmup stays out of the
  // series (Start()'s baseline snapshot absorbs everything before it).
  params.sampler.period = Millis(kBinMs);
  KiteSystem sys(params);
  sys.executor().EnableDispatchProfiler();

  DomainPool pool(&sys);
  for (int i = 0; i < kNetShards; ++i) {
    pool.AddShard(sys.CreateNetworkDomain());
  }
  for (int i = 0; i < kStorShards; ++i) {
    pool.AddShard(sys.CreateStorageDomain());
  }
  RebalancerParams rp;
  rp.degraded_hysteresis = Seconds(1);  // The stalled path owns the wedge.
  Rebalancer reb(&sys, &pool, rp);

  std::vector<GuestVm*> guests;
  for (int i = 0; i < kGuests; ++i) {
    GuestVm* g = sys.CreateGuest(StrFormat("vm%02d", i));
    if (pool.AttachVif(g, Ipv4Addr::FromOctets(10, 0, 0, static_cast<uint8_t>(10 + i))) ==
            nullptr ||
        pool.AttachVbd(g) == nullptr) {
      std::fprintf(stderr, "FATAL: pool had no open shard\n");
      return 1;
    }
    guests.push_back(g);
  }
  for (GuestVm* g : guests) {
    if (!sys.WaitConnected(g)) {
      std::fprintf(stderr, "FATAL: guest failed to connect\n");
      return 1;
    }
  }
  // Warm ARP so the measured series starts at steady state.
  for (GuestVm* g : guests) {
    bool warm = false;
    g->stack()->Ping(sys.client_ip(), 8, [&](bool, SimDuration) { warm = true; });
    sys.WaitUntil([&] { return warm; }, Seconds(5));
  }

  auto server = sys.client()->stack()->OpenUdp();
  server->Bind(9000);
  // Bins are relative to the moment the send schedule is posted (warmup and
  // connection setup happen before t0 and are not part of the series). The
  // recv callback only counts; binning is the sampler's job. A tick lands
  // exactly on each bin edge and dispatches before any same-instant arrival
  // (it was posted a full period earlier), so an arrival at edge k falls in
  // bin k — the floor semantics the hand-rolled bins had.
  const int64_t t0_ns = sys.Now().ns();
  Counter* rx_counter = sys.metric_registry().counter("bench", "client", "udp_rx");
  server->SetRecvCallback(
      [rx_counter](Ipv4Addr, uint16_t, const Buffer&) { rx_counter->Inc(); });

  bool paused = false;
  std::vector<std::unique_ptr<UdpSocket>> socks;
  for (GuestVm* g : guests) {
    socks.push_back(g->stack()->OpenUdp());
  }
  for (int gi = 0; gi < kGuests; ++gi) {
    UdpSocket* sock = socks[gi].get();
    const SimDuration offset = Micros(8) * gi;  // De-phase the senders.
    for (int t = 0; t * 500 < kDurationMs * 1000; ++t) {
      sys.executor().PostAfter(kSendPeriod * t + offset, KITE_POST_SITE("bench/udp-send"),
                               [&sys, &paused, sock] {
                                 if (!paused) {
                                   sock->SendTo(sys.client_ip(), 9000, Buffer(256, 0x5c));
                                 }
                               });
    }
  }
  sys.sampler().Start();

  // The kill: quiesce the fabric for a moment, swallow the one TX kick that
  // crosses the victim's req_event, and let the watchdog do the rest.
  DomId victim = -1;
  const DispatchSite* fault_script = KITE_POST_SITE("bench/fault-script");
  sys.executor().PostAfter(Millis(kFaultMs), fault_script, [&] { paused = true; });
  sys.executor().PostAfter(Millis(kFaultMs + 2), fault_script, [&] {
    victim = guests[0]->netfront()->backend_dom();
    sys.faults().set_rate(FaultSite::kEventNotify, 1.0);
    guests[0]->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  });
  sys.executor().PostAfter(Millis(kFaultMs + 5), fault_script,
                           [&] { sys.faults().set_rate(FaultSite::kEventNotify, 0.0); });
  sys.executor().PostAfter(Millis(kFaultMs + 6), fault_script, [&] { paused = false; });

  sys.RunFor(Millis(kDurationMs));
  // Freeze the series at the duration mark: arrivals after it are out of the
  // measurement window (the old binning dropped them the same way).
  sys.sampler().Stop();
  sys.RunUntilIdle();

  // Rebuild the bins from the sampled udp_rx timeline: the tick at
  // t0 + (k+1)·P carries bin k's delta.
  std::vector<uint64_t> bins(kNumBins, 0);
  for (const MetricSampler::Timeline& tl : sys.sampler().Timelines()) {
    if (tl.key.domain != "bench" || tl.key.name != "udp_rx") {
      continue;
    }
    for (const auto& [at, delta] : tl.points) {
      const int64_t bin = (at.ns() - t0_ns) / Millis(kBinMs).ns() - 1;
      if (bin >= 0 && bin < kNumBins) {
        bins[static_cast<size_t>(bin)] = static_cast<uint64_t>(delta);
      }
    }
  }

  // Figures of merit. Pre-fault window skips the first bins (ramp).
  double pre = 0;
  int pre_bins = 0;
  for (int b = 5; b < kFaultMs / kBinMs; ++b) {
    pre += static_cast<double>(bins[b]);
    ++pre_bins;
  }
  pre /= pre_bins > 0 ? pre_bins : 1;
  double dip = pre;
  int recover_bin = -1;
  for (int b = kFaultMs / kBinMs; b < kNumBins; ++b) {
    dip = std::min(dip, static_cast<double>(bins[b]));
    if (recover_bin < 0 && static_cast<double>(bins[b]) >= 0.9 * pre) {
      recover_bin = b;
    }
  }
  double tail = 0;
  constexpr int kTailBins = 5;
  for (int b = kNumBins - kTailBins; b < kNumBins; ++b) {
    tail += static_cast<double>(bins[b]);
  }
  tail /= kTailBins;
  const double to_pps = 1000.0 / kBinMs;
  const double recovery_percent = pre > 0 ? 100.0 * tail / pre : 0;
  const double time_to_recover_ms =
      recover_bin < 0 ? -1 : static_cast<double>(recover_bin * kBinMs - kFaultMs);

  std::printf("%8s %14s\n", "t (ms)", "throughput");
  for (int b = 0; b < kNumBins; ++b) {
    std::printf("%8d %10.0f pps%s\n", b * kBinMs, bins[b] * to_pps,
                b == kFaultMs / kBinMs ? "   <- shard dom wedged" : "");
  }
  std::printf("\npre-fault %.0f pps, dip %.0f pps, recovered to %.1f%% "
              "(t+%.0f ms); %llu evacuation(s), %llu move(s), victim dom%d\n",
              pre * to_pps, dip * to_pps, recovery_percent, time_to_recover_ms,
              static_cast<unsigned long long>(reb.evacuations()),
              static_cast<unsigned long long>(sys.migrator().completed()), victim);

  BenchReport report("failover", "aggregate throughput around a kill-one-of-K shard event");
  report.Param("guests", kGuests);
  report.Param("net_shards", kNetShards);
  report.Param("storage_shards", kStorShards);
  report.Param("bin_ms", kBinMs);
  report.Param("duration_ms", kDurationMs);
  report.Param("fault_ms", kFaultMs);
  report.Param("wedge_window_ms", 6);
  report.Param("per_guest_pps", 2000);
  for (int b = 0; b < kNumBins; ++b) {
    report.Value("throughput_pps", StrFormat("t_ms=%d", b * kBinMs), bins[b] * to_pps);
  }
  report.Value("pre_fault_pps", "aggregate", pre * to_pps);
  report.Value("min_post_fault_pps", "aggregate", dip * to_pps);
  report.Value("recovery_percent", "aggregate", recovery_percent);
  report.Value("time_to_recover_ms", "aggregate", time_to_recover_ms);
  report.Value("evacuations", "rebalancer", static_cast<double>(reb.evacuations()));
  report.Value("migrations_completed", "rebalancer",
               static_cast<double>(sys.migrator().completed()));
  report.Counters("failover", &sys);
  if (!report.Write()) {
    return 1;
  }

  // The full sampled run — throughput, queue/ring gauges, health states —
  // as BENCH_timeline.json; `kite_inspect BENCH_timeline.json` renders the
  // kill-recovery dip from this file alone.
  BenchReport timeline_report("timeline", "bench_failover telemetry timelines");
  timeline_report.Param("bin_ms", kBinMs);
  timeline_report.Param("fault_ms", kFaultMs);
  timeline_report.Param("t0_ns", static_cast<double>(t0_ns));
  timeline_report.Timelines("failover", sys.sampler());
  if (!timeline_report.Write()) {
    return 1;
  }

  std::printf("\n---- dispatch profile (top 10 sites) ----\n%s",
              FormatDispatchProfile(sys.executor()).c_str());
  // Machine-readable twin of the table above; the CI smoke job validates it.
  if (!WriteBenchArtifact("BENCH_profile.json", DispatchProfileJson(sys.executor()))) {
    return 1;
  }
  if (reb.evacuations() < 1) {
    std::fprintf(stderr, "FAIL: the wedged shard was never evacuated\n");
    return 1;
  }
  if (recovery_percent < 90.0 || recover_bin < 0) {
    std::fprintf(stderr, "FAIL: throughput did not recover to >=90%% of pre-fault "
                 "(%.1f%%)\n", recovery_percent);
    return 1;
  }
  return 0;
}
