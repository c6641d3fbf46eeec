#include "src/check/explore.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <utility>

#include "src/base/bytes.h"
#include "src/base/strings.h"
#include "src/check/frontends.h"
#include "src/check/fuzz.h"
#include "src/core/pool.h"
#include "src/core/rebalancer.h"
#include "src/hv/xenbus.h"
#include "src/net/tcp.h"
#include "src/workloads/netbench.h"

namespace kite {

namespace {

// Fault sites a schedule may open during the fault window. Every listed
// site is recoverable once ClearRates ends the window: grant/xenstore
// failures are retried, disk errors surface as failed I/O callbacks, and
// wire loss is absorbed by timeouts. kEventNotify is deliberately absent:
// the ring notification-suppression protocol means the one kick that
// crosses req_event is irreplaceable — swallowing it parks the ring with
// no later push ever re-notifying. Real event channels are hypercalls and
// lossless; that site exists for targeted wedge tests, not for a window
// the system is expected to survive unaided.
constexpr FaultSite kWindowSites[] = {
    FaultSite::kGrantMap, FaultSite::kXenstoreRead, FaultSite::kDiskIo,
    FaultSite::kNicLoss,  FaultSite::kNicCorrupt,
};

}  // namespace

ExploreReport RunExploreSeed(const ExploreOptions& opts) {
  ExploreReport report;
  report.seed = opts.seed;

  // Scenario choices (which sites open, which domains restart) come from a
  // generator distinct from the shuffle/fault/fuzz streams so adding a
  // choice never perturbs the others.
  Rng plan(opts.seed * 0x9e3779b97f4a7c15ULL + 1);

  KiteSystem::Params params;
  params.fault_seed = opts.seed ^ 0xfa0170ULL;
  params.health = opts.health;
  KiteSystem sys(params);
  // Attribution is accounting-only (DESIGN.md §16); running every explore
  // seed with it on keeps the ledger paths under shuffle+fault coverage.
  sys.EnableCpuAttribution();
  sys.EnableScheduleShuffle(opts.seed);
  // Liveness reports carry the dispatch-profile top sites: when a seed hangs,
  // "which callback ate the window" is the first triage question.
  sys.executor().EnableDispatchProfiler();

  auto phase = [&](const char* name) {
    report.phase = name;
    if (opts.verbose) {
      std::fprintf(stderr, "[seed %llu] phase %s (t=%.6fs)\n",
                   static_cast<unsigned long long>(opts.seed), name,
                   sys.Now().seconds());
    }
  };
  auto live_fail = [&](std::string what) {
    report.ok = false;
    // The full diagnostic bundle: health verdicts name the wedged backend,
    // flight-recorder tails show its last moves, pending events say where
    // the simulation is stuck, and the metrics say how far each path got.
    std::ostringstream diag;
    sys.DumpDiagnostics(diag);
    report.detail = std::move(what) + "\n" + diag.str();
    return report;
  };

  phase("build");
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  GuestVm* g1 = sys.CreateGuest("explore-guest1");
  sys.AttachVif(g1, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  sys.AttachVbd(g1, stordom);
  GuestVm* g2 = sys.CreateGuest("explore-guest2");
  sys.AttachVif(g2, netdom, Ipv4Addr::FromOctets(10, 0, 0, 11));
  GuestVm* fuzz_net_guest = sys.CreateGuest("fuzz-net-guest");
  GuestVm* fuzz_blk_guest = sys.CreateGuest("fuzz-blk-guest");

  phase("connect");
  if (!sys.WaitConnected(g1) || !sys.WaitConnected(g2)) {
    return live_fail("real frontends never connected");
  }
  auto raw_net = std::make_unique<RawNetFrontend>(&sys, netdom, fuzz_net_guest);
  auto raw_blk = std::make_unique<RawBlkFrontend>(&sys, stordom, fuzz_blk_guest);
  if (!raw_net->Connect()) {
    return live_fail("raw net frontend never paired");
  }
  if (!raw_blk->Connect()) {
    return live_fail("raw blk frontend never paired");
  }

  phase("traffic");
  NuttcpConfig nut_cfg;
  nut_cfg.offered_gbps = 3.0;
  nut_cfg.datagram_bytes = 4096;
  nut_cfg.duration = Millis(50);
  NuttcpUdp nut(sys.client()->stack(), g1->stack(), g1->ip(), nut_cfg);
  nut.Run([](const NuttcpResult&) {});
  int io_done = 0;
  Buffer wdata(8192, 0xab);
  auto count_io = [&io_done](bool) { ++io_done; };
  g1->blkfront()->Write(0, wdata, count_io);
  g1->blkfront()->Read(4096, 8192, nullptr, count_io);
  g1->blkfront()->Flush(count_io);
  if (!sys.WaitUntil([&] { return nut.finished() && io_done == 3; }, Seconds(10))) {
    return live_fail("traffic phase never completed");
  }

  phase("fuzz");
  ProtocolFuzzer fuzz(opts.seed ^ 0xf022ULL);
  const int net_burst = 24 + static_cast<int>(plan.NextBelow(40));
  for (int i = 0; i < net_burst; ++i) {
    raw_net->SendTx(fuzz.MutateNetTx(raw_net->ValidTx(static_cast<uint16_t>(i))));
    if (i % 8 == 7) {
      sys.RunFor(Millis(2));
      raw_net->DrainTxResponses();
    }
  }
  const int blk_burst = 12 + static_cast<int>(plan.NextBelow(20));
  for (int i = 0; i < blk_burst; ++i) {
    const BlkRequest req = fuzz.MutateBlk(raw_blk->ValidRead(static_cast<uint64_t>(i)),
                                          raw_blk->capacity_sectors());
    if (!raw_blk->SendBlk(req)) {
      // Ring full: let the backend and disk drain, then retry once.
      sys.RunFor(Millis(50));
      raw_blk->DrainResponses();
      raw_blk->SendBlk(req);
    }
    if (i % 4 == 3) {
      sys.RunFor(Millis(10));
      raw_blk->DrainResponses();
    }
  }
  sys.RunFor(Millis(200));
  raw_net->DrainTxResponses();
  raw_blk->DrainResponses();
  // Liveness probe: after the malformed burst both backends must still
  // answer a well-formed request.
  raw_net->SendTx(raw_net->ValidTx(999));
  raw_blk->SendBlk(raw_blk->ValidRead(999));
  sys.RunFor(Millis(200));
  if (raw_net->DrainTxResponses().empty()) {
    return live_fail("netback stopped responding after fuzz burst");
  }
  if (raw_blk->DrainResponses().empty()) {
    return live_fail("blkback stopped responding after fuzz burst");
  }

  phase("loss-window");
  // Honest TCP under real wire loss plus an on-path junk burst. The
  // connection is established before loss opens (ARP is not retried), then
  // the bulk transfer must ride retransmission/recovery through 1-5% loss
  // while mutated segments spray both the live flow and a closed port.
  uint64_t tcp_rx_bytes = 0;
  sys.client()->stack()->ListenTcp(8091, [&](TcpConn* conn) {
    conn->SetDataCallback(
        [&](std::span<const uint8_t> d) { tcp_rx_bytes += d.size(); });
  });
  bool tcp_connected = false;
  TcpConn* tconn = g1->stack()->ConnectTcp(sys.client_ip(), 8091,
                                           [&](TcpConn*) { tcp_connected = true; });
  if (!sys.WaitUntil([&] { return tcp_connected; }, Seconds(10))) {
    return live_fail("loss-window TCP connect never completed");
  }
  const size_t xfer_bytes = (64 + plan.NextBelow(64)) * 1024;
  sys.faults().set_rate(FaultSite::kNicLoss, 0.01 + 0.04 * plan.NextDouble());
  tconn->Send(Buffer(xfer_bytes, 0x7e));
  const int tcp_burst = 16 + static_cast<int>(plan.NextBelow(17));
  for (int i = 0; i < tcp_burst; ++i) {
    TcpSegment tmpl;
    tmpl.src_port = tconn->local_port();
    tmpl.dst_port = (i % 4 == 3) ? 9991 : 8091;  // 9991: closed, RST path.
    tmpl.seq = static_cast<uint32_t>(fuzz.rng().NextU64());
    tmpl.ack = static_cast<uint32_t>(fuzz.rng().NextU64());
    tmpl.ack_flag = true;
    tmpl.window = kTcpWindowBytes;
    TcpSegment mut = fuzz.MutateTcp(std::move(tmpl));
    // Mutated RSTs go to the closed port only: a random seq lands inside
    // the live flow's receive window on ~1/16k injections, and a seed that
    // legitimately resets the transfer would be indistinguishable from a
    // liveness bug. Out-of-window RST rejection is pinned by unit tests.
    if (mut.rst) {
      mut.dst_port = 9991;
    }
    Ipv4Packet pkt;
    pkt.src = g1->ip();
    pkt.dst = sys.client_ip();
    pkt.proto = kIpProtoTcp;
    pkt.l4 = std::move(mut);
    g1->stack()->SendIp(std::move(pkt));
    if (i % 8 == 7) {
      sys.RunFor(Millis(1));
    }
  }
  sys.RunFor(Millis(100));
  sys.faults().ClearRates();
  if (!sys.WaitUntil([&] { return tcp_rx_bytes >= xfer_bytes; }, Seconds(60))) {
    return live_fail(StrFormat("loss-window transfer stalled at %llu/%llu bytes",
                               static_cast<unsigned long long>(tcp_rx_bytes),
                               static_cast<unsigned long long>(xfer_bytes)));
  }
  if (tcp_rx_bytes != xfer_bytes) {
    return live_fail(StrFormat("loss-window transfer over-delivered: %llu/%llu",
                               static_cast<unsigned long long>(tcp_rx_bytes),
                               static_cast<unsigned long long>(xfer_bytes)));
  }

  phase("fault-window");
  const int nsites = 1 + static_cast<int>(plan.NextBelow(3));
  for (int i = 0; i < nsites; ++i) {
    const FaultSite site = kWindowSites[plan.NextBelow(std::size(kWindowSites))];
    sys.faults().set_rate(site, 0.02 + 0.18 * plan.NextDouble());
  }
  // Traffic under fire. Completions are not awaited inside the window —
  // disk errors and wire loss may delay or fail them; the recovery phase
  // below waits for the drain once the rates are cleared.
  int window_io_done = 0;
  const int window_writes = 4 + static_cast<int>(plan.NextBelow(6));
  for (int i = 0; i < window_writes; ++i) {
    g1->blkfront()->Write(static_cast<int64_t>(i) * 8192, wdata,
                          [&window_io_done](bool) { ++window_io_done; });
  }
  g1->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  g2->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  for (int i = 0; i < 8; ++i) {
    raw_net->SendTx(fuzz.MutateNetTx(raw_net->ValidTx(static_cast<uint16_t>(2000 + i))));
  }
  raw_blk->SendBlk(fuzz.MutateBlk(raw_blk->ValidRead(2000), raw_blk->capacity_sectors()));
  sys.RunFor(Millis(300));

  phase("recover");
  sys.faults().ClearRates();
  int recover_done = 0;
  g1->blkfront()->Read(0, 4096, nullptr, [&recover_done](bool) { ++recover_done; });
  raw_net->SendTx(raw_net->ValidTx(3000));
  raw_blk->SendBlk(raw_blk->ValidRead(3000));
  if (!sys.WaitUntil(
          [&] { return recover_done == 1 && window_io_done == window_writes; },
          Seconds(30))) {
    return live_fail(StrFormat("fault-window I/O never drained (%d/%d writes, "
                               "recovery read %d/1)",
                               window_io_done, window_writes, recover_done));
  }
  if (!sys.WaitConnected(g1, Seconds(30)) || !sys.WaitConnected(g2, Seconds(30))) {
    return live_fail("frontends not reconnected after fault window");
  }
  sys.RunFor(Millis(100));
  raw_net->DrainTxResponses();
  raw_blk->DrainResponses();

  phase("guest-death");
  // The fuzz guests die violently — their rings may still hold junk the
  // backend never consumed; reaping must cope. g2 dies on some seeds.
  raw_net.reset();
  raw_blk.reset();
  sys.DestroyGuest(fuzz_net_guest);
  sys.DestroyGuest(fuzz_blk_guest);
  if (plan.NextBool(0.5)) {
    sys.DestroyGuest(g2);
    g2 = nullptr;
  }
  // On some seeds a guest dies in the step that attaches it, before either
  // backend pairs its devices: their instances must be reaped all the same.
  if (plan.NextBool(0.5)) {
    GuestVm* stillborn = sys.CreateGuest("explore-stillborn");
    sys.AttachVif(stillborn, netdom, Ipv4Addr::FromOctets(10, 0, 0, 12));
    sys.AttachVbd(stillborn, stordom);
    sys.DestroyGuest(stillborn);
  }
  sys.RunFor(Millis(50));  // Backends reap the orphaned instances.

  phase("restart");
  const uint64_t restart_choice = plan.NextBelow(3);
  if (restart_choice == 0 || restart_choice == 2) {
    netdom = sys.RestartNetworkDomain(netdom);
  }
  if (restart_choice == 1 || restart_choice == 2) {
    stordom = sys.RestartStorageDomain(stordom);
  }
  if (!sys.WaitConnected(g1, Seconds(30)) ||
      (g2 != nullptr && !sys.WaitConnected(g2, Seconds(30)))) {
    return live_fail("frontends never reconnected after driver-domain restart");
  }
  // Post-restart proof: storage answers and the data path carries a ping.
  int post_read = 0;
  g1->blkfront()->Read(0, 4096, nullptr, [&post_read](bool) { ++post_read; });
  if (!sys.WaitUntil([&] { return post_read == 1; }, Seconds(30))) {
    return live_fail("post-restart read never completed");
  }
  bool pinged = false;
  for (int attempt = 0; attempt < 5 && !pinged; ++attempt) {
    bool done = false;
    g1->stack()->Ping(sys.client_ip(), 56, [&](bool ok, SimDuration) {
      done = true;
      pinged = pinged || ok;
    });
    sys.RunFor(Seconds(2));
    (void)done;
  }
  if (!pinged) {
    return live_fail("post-restart ping never succeeded");
  }

  phase("quiesce");
  sys.RunUntilIdle();

  phase("check");
  InvariantChecker checker(&sys);
  report.violations = checker.Check();
  report.ok = report.violations.empty();
  return report;
}

ExploreReport RunFailoverSeed(const ExploreOptions& opts) {
  ExploreReport report;
  report.seed = opts.seed;
  report.failover = true;

  // Scenario choices (pool sizes, victim, drain-vs-evacuate, wedged kind)
  // come from a generator distinct from the shuffle/fault streams, as in
  // RunExploreSeed.
  Rng plan(opts.seed * 0x9e3779b97f4a7c15ULL + 2);

  // Evacuation seeds set the stalled threshold inside the run; drain seeds
  // push it out of reach so the wedge stays degraded and the Rebalancer must
  // take the graceful path.
  const bool evacuate = plan.NextBool(0.5);
  // Half the evacuation seeds wedge a storage shard (a hung write) instead
  // of a network one (a swallowed kick).
  const bool wedge_storage = evacuate && plan.NextBool(0.5);

  KiteSystem::Params params;
  params.fault_seed = opts.seed ^ 0xfa170e4ULL;
  params.disk_store_data = true;
  // Tight watchdog (the stall-demo scale) so the wedge is flagged in
  // simulated milliseconds; the sweep's job is the failover machinery, not
  // threshold calibration.
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = evacuate ? Millis(20) : Seconds(100);
  KiteSystem sys(params);
  sys.EnableScheduleShuffle(opts.seed);
  sys.executor().EnableDispatchProfiler();

  auto phase = [&](const char* name) {
    report.phase = name;
    if (opts.verbose) {
      std::fprintf(stderr, "[failover seed %llu] phase %s (t=%.6fs)\n",
                   static_cast<unsigned long long>(opts.seed), name,
                   sys.Now().seconds());
    }
  };
  auto live_fail = [&](std::string what) {
    report.ok = false;
    std::ostringstream diag;
    sys.DumpDiagnostics(diag);
    report.detail = std::move(what) + "\n" + diag.str();
    return report;
  };

  phase("build");
  const int net_shards = 2 + static_cast<int>(plan.NextBelow(3));  // 2..4
  const int num_guests = 6 + static_cast<int>(plan.NextBelow(11));  // 6..16
  DomainPool pool(&sys);
  for (int i = 0; i < net_shards; ++i) {
    pool.AddShard(sys.CreateNetworkDomain());
  }
  pool.AddShard(sys.CreateStorageDomain());
  pool.AddShard(sys.CreateStorageDomain());
  RebalancerParams rp;
  // In evacuation seeds the hysteresis outlasts the stall threshold, so the
  // stalled path always wins the race against the degraded drain.
  rp.degraded_hysteresis = evacuate ? Seconds(1) : Millis(10);
  rp.max_concurrent_migrations = 1 + static_cast<int>(plan.NextBelow(4));
  Rebalancer reb(&sys, &pool, rp);

  std::vector<GuestVm*> guests;
  for (int i = 0; i < num_guests; ++i) {
    GuestVm* g = sys.CreateGuest(StrFormat("failover-vm%02d", i));
    if (pool.AttachVif(g, Ipv4Addr::FromOctets(10, 0, 0, static_cast<uint8_t>(10 + i))) ==
            nullptr ||
        pool.AttachVbd(g) == nullptr) {
      return live_fail("pool had no open shard at attach time");
    }
    guests.push_back(g);
  }

  phase("connect");
  for (GuestVm* g : guests) {
    if (!sys.WaitConnected(g)) {
      return live_fail("guest frontends never connected");
    }
  }

  phase("traffic");
  auto server = sys.client()->stack()->OpenUdp();
  server->Bind(9000);
  uint64_t client_rx = 0;
  server->SetRecvCallback([&](Ipv4Addr, uint16_t, const Buffer&) { ++client_rx; });
  std::vector<std::unique_ptr<UdpSocket>> socks;
  for (GuestVm* g : guests) {
    socks.push_back(g->stack()->OpenUdp());
  }
  constexpr int kPacketsPerPhase = 12;
  uint64_t sent = 0;
  auto blast = [&] {
    for (size_t gi = 0; gi < guests.size(); ++gi) {
      UdpSocket* sock = socks[gi].get();
      for (int i = 0; i < kPacketsPerPhase; ++i) {
        sys.executor().PostAfter(Micros(100) * i + Micros(static_cast<int64_t>(gi)),
                                 KITE_POST_SITE("explore/udp-blast"), [&sys, sock] {
                                   sock->SendTo(sys.client_ip(), 9000, Buffer(256, 0x5c));
                                 });
        ++sent;
      }
    }
    sys.RunFor(Millis(10));
  };
  blast();
  // One acked write per guest on a disjoint slab of the shared media
  // (partition semantics — both storage shards port the same volume).
  constexpr int64_t kSlab = 1 << 20;
  int writes_done = 0;
  for (int i = 0; i < num_guests; ++i) {
    guests[i]->blkfront()->Write(i * kSlab, Buffer(8 * 1024, static_cast<uint8_t>(i + 1)),
                                 [&writes_done](bool ok) { writes_done += ok ? 1 : 0; });
  }
  if (!sys.WaitUntil([&] { return writes_done == num_guests; }, Seconds(10))) {
    return live_fail("pre-wedge writes never completed");
  }

  phase("wedge");
  // Victim: the shard hosting a randomly chosen guest's VIF or VBD. Either
  // swallow the one TX kick that crosses req_event (the stall-demo
  // technique), or hang one write in the disk controller — that backend
  // instance stops making progress and only the watchdog can tell.
  const size_t trigger_index = plan.NextBelow(static_cast<uint64_t>(num_guests));
  GuestVm* trigger = guests[trigger_index];
  const DeviceKind victim_kind = wedge_storage ? DeviceKind::kVbd : DeviceKind::kVif;
  const DomId victim = trigger->frontend(victim_kind)->backend_dom();
  std::vector<GuestVm*> displaced;
  for (GuestVm* g : guests) {
    if (g->frontend(victim_kind)->backend_dom() == victim) {
      displaced.push_back(g);
    }
  }
  // The hung write lands beside the guest's verified block; once the shard
  // is evacuated, blkfront requeues it and a survivor must acknowledge it.
  bool wedged_acked = !wedge_storage;
  const FaultSite wedge = wedge_storage ? FaultSite::kDiskHang : FaultSite::kEventNotify;
  sys.faults().set_rate(wedge, 1.0);
  if (wedge_storage) {
    trigger->blkfront()->Write(static_cast<int64_t>(trigger_index) * kSlab + 64 * 1024,
                               Buffer(4096, 0xee),
                               [&wedged_acked](bool ok) { wedged_acked = ok; });
  } else {
    trigger->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  }
  sys.RunFor(Millis(5));
  sys.faults().set_rate(wedge, 0.0);

  phase(evacuate ? "evacuate" : "drain");
  if (evacuate) {
    if (!sys.WaitUntil([&] { return reb.evacuations() >= 1; }, Seconds(30))) {
      return live_fail("stalled shard was never evacuated");
    }
  } else if (!sys.WaitUntil([&] { return reb.drains_started() >= 1; }, Seconds(30))) {
    return live_fail("degraded shard drain never started");
  }
  if (!sys.WaitUntil(
          [&] {
            if (sys.migrations_in_flight() != 0 || reb.pending_moves() != 0 ||
                !wedged_acked) {
              return false;
            }
            for (GuestVm* g : displaced) {
              const XenbusFrontend* fe = g->frontend(victim_kind);
              if (!fe->connected() || fe->backend_dom() == victim) {
                return false;
              }
            }
            return true;
          },
          Seconds(60))) {
    return live_fail(StrFormat("displaced guests (%d) never settled off dom%d",
                               static_cast<int>(displaced.size()), victim));
  }
  if (evacuate && pool.HasShard(victim)) {
    return live_fail("evacuated shard still in the pool under its old id");
  }

  phase("verify");
  blast();  // Service restored across the rebuilt pool.
  for (GuestVm* g : guests) {
    bool pinged = false;
    for (int attempt = 0; attempt < 3 && !pinged; ++attempt) {
      g->stack()->Ping(sys.client_ip(), 56,
                       [&pinged](bool ok, SimDuration) { pinged = pinged || ok; });
      sys.RunFor(Seconds(2));
    }
    if (!pinged) {
      return live_fail(StrFormat("guest dom%d unreachable after failover",
                                 g->domain()->id()));
    }
  }
  // Every acked write is still readable — possibly through a different
  // storage port than it was written through.
  for (int i = 0; i < num_guests; ++i) {
    Buffer readback;
    bool read_done = false;
    guests[i]->blkfront()->Read(i * kSlab, 8 * 1024, &readback,
                                [&read_done](bool r) { read_done = r; });
    if (!sys.WaitUntil([&] { return read_done; }, Seconds(10))) {
      return live_fail(StrFormat("post-failover read for guest %d never completed", i));
    }
    if (Fnv1a(readback) != Fnv1a(Buffer(8 * 1024, static_cast<uint8_t>(i + 1)))) {
      return live_fail(StrFormat("acked write lost for guest %d", i));
    }
  }
  // Packet conservation. The ledger is one-sided across a crash evacuation
  // (a frame the dead backend forwarded whose completion the guest never saw
  // is counted dropped yet delivered), and the wedged ping's loss is counted
  // in `dropped` but not in `sent`, so under-delivery is bounded by the
  // drop counters and over-delivery by what was sent.
  uint64_t dropped = 0;
  for (GuestVm* g : guests) {
    dropped += g->netfront()->tx_dropped() + g->netfront()->recovery_drops();
  }
  if (client_rx + dropped < sent || client_rx > sent) {
    return live_fail(StrFormat("packet ledger broken: rx=%llu sent=%llu dropped=%llu",
                               static_cast<unsigned long long>(client_rx),
                               static_cast<unsigned long long>(sent),
                               static_cast<unsigned long long>(dropped)));
  }

  phase("quiesce");
  sys.RunUntilIdle();

  phase("check");
  InvariantChecker checker(&sys);
  report.violations = checker.Check();
  report.ok = report.violations.empty();
  return report;
}

std::string FormatReport(const ExploreReport& report) {
  const char* extra = report.failover ? " --failover" : "";
  if (report.ok) {
    return StrFormat("seed %llu: ok\n", static_cast<unsigned long long>(report.seed));
  }
  std::string out = StrFormat("seed %llu: FAILED in phase %s\n",
                              static_cast<unsigned long long>(report.seed),
                              report.phase.c_str());
  if (!report.detail.empty()) {
    out += "  " + report.detail + "\n";
  }
  out += InvariantChecker::Format(report.violations);
  out += StrFormat("replay: kite_explore%s --seed=%llu --verbose\n", extra,
                   static_cast<unsigned long long>(report.seed));
  return out;
}

bool RunStallDemo(const std::string& dump_path) {
  auto demo_fail = [](const char* what) {
    std::fprintf(stderr, "[stall-demo] FAILED: %s\n", what);
    return false;
  };

  KiteSystem::Params params;
  // Tight thresholds so the demo stalls (and recovers) in simulated
  // milliseconds instead of the production-scale defaults.
  params.health.probe_period = Millis(1);
  params.health.degraded_after = Millis(5);
  params.health.stalled_after = Millis(20);
  KiteSystem sys(params);
  // The stall dump doubles as the reference DumpDiagnostics artifact; run it
  // profiled and attributed so its dispatch-profile and cpu sections are
  // populated (kite_inspect renders the cpu section verbatim).
  sys.EnableCpuAttribution();
  sys.executor().EnableDispatchProfiler();

  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("stall-demo-guest");
  sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  sys.AttachVbd(guest, stordom);
  if (!sys.WaitConnected(guest)) {
    return demo_fail("frontends never connected");
  }
  const DomId gid = guest->domain()->id();
  const std::string vif = StrFormat("vif%d.0", gid);
  const std::string vbd = StrFormat("vbd%d.51712", gid);
  const DomId stordom_id = stordom->domain()->id();

  // Wedge 1 — hung disk controller: the completion parks without releasing
  // its queue-depth slot, so blkback's in-flight count freezes above zero.
  sys.faults().set_rate(FaultSite::kDiskHang, 1.0);
  bool write_done = false;
  Buffer wdata(4096, 0x5a);
  guest->blkfront()->Write(0, wdata, [&write_done](bool) { write_done = true; });
  BlockDevice* disk = stordom->disk();
  if (!sys.WaitUntil([&] { return disk->hung_io_count() > 0; })) {
    return demo_fail("disk hang never tripped");
  }
  sys.faults().set_rate(FaultSite::kDiskHang, 0.0);

  // Wedge 2 — swallowed TX kick: notification suppression makes the one
  // kick that crosses req_event irreplaceable, so netback never wakes for
  // the request the guest just pushed.
  sys.faults().set_rate(FaultSite::kEventNotify, 1.0);
  guest->stack()->Ping(sys.client_ip(), 56, [](bool, SimDuration) {});
  sys.RunFor(Millis(5));
  sys.faults().set_rate(FaultSite::kEventNotify, 0.0);

  // The watchdog must flag both instances stalled — long before any
  // WaitUntil-scale timeout would.
  if (!sys.WaitUntil([&] {
        return sys.health().state(netdom->domain()->id(), vif) ==
                   HealthState::kStalled &&
               sys.health().state(stordom_id, vbd) == HealthState::kStalled;
      })) {
    return demo_fail("watchdog never reached stalled for both instances");
  }

  std::ofstream dump(dump_path);
  if (!dump) {
    return demo_fail("could not open dump path");
  }
  sys.DumpDiagnostics(dump);
  dump.close();

  // Recovery, both directions: the disk un-hangs in place (same instance
  // must return to healthy), the network domain restarts (Kite's recovery
  // story — the stalled instance dies with the domain and a fresh one pairs).
  disk->ReleaseHungIo();
  netdom = sys.RestartNetworkDomain(netdom);
  if (!sys.WaitConnected(guest, Seconds(30))) {
    return demo_fail("frontends never reconnected after restart");
  }
  if (!sys.WaitUntil([&] { return write_done; }, Seconds(10))) {
    return demo_fail("hung write never completed after ReleaseHungIo");
  }
  if (!sys.WaitUntil(
          [&] {
            return sys.health().state(stordom_id, vbd) == HealthState::kHealthy;
          },
          Seconds(10))) {
    return demo_fail("vbd never returned to healthy");
  }
  sys.RunUntilIdle();
  const std::vector<Violation> violations = InvariantChecker(&sys).Check();
  if (!violations.empty()) {
    std::fprintf(stderr, "[stall-demo] FAILED: invariants after recovery:\n%s",
                 InvariantChecker::Format(violations).c_str());
    return false;
  }
  std::printf("[stall-demo] ok: diagnostics written to %s\n", dump_path.c_str());
  return true;
}

}  // namespace kite
