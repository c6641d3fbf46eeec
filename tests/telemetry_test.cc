// Continuous-telemetry layer (DESIGN.md §15): MetricSampler semantics and
// determinism, the executor dispatch profiler, and the end-to-end promise
// that turning telemetry on does not perturb a shuffled schedule.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/artifact.h"
#include "src/core/kite.h"
#include "src/net/bridge.h"
#include "src/net/netif.h"
#include "src/net/queue.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/sampler.h"
#include "src/sim/executor.h"

namespace kite {
namespace {

// --- MetricSampler unit semantics. ----------------------------------------

TEST(SamplerTest, DeltasLevelsBaselineAndAdmission) {
  Executor ex;
  MetricRegistry metrics;
  Counter* events = metrics.counter("d", "dev", "events");
  Gauge* level = metrics.gauge("d", "dev", "level");
  metrics.counter("d", "dev", "silent");  // Never touched: never admitted.

  events->Add(5);  // Warm-up before Start(): absorbed by the baseline.
  SamplerParams params;
  params.period = Millis(1);
  MetricSampler sampler(&ex, &metrics, params);
  sampler.Start();
  EXPECT_TRUE(sampler.running());

  ex.PostAfter(Micros(100), [&] {
    events->Add(3);
    level->Set(2);
  });
  ex.PostAfter(Micros(1100), [&] {
    events->Add(7);
    level->Set(0);
  });
  ex.RunFor(Micros(3500));  // Ticks at 1, 2, 3 ms.
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_EQ(sampler.ticks(), 3u);
  ex.RunUntilIdle();  // No further ticks after Stop().
  EXPECT_EQ(sampler.ticks(), 3u);

  const std::vector<MetricSampler::Timeline> timelines = sampler.Timelines();
  ASSERT_EQ(timelines.size(), 2u);  // "silent" stayed out.

  const MetricSampler::Timeline& c = timelines[0];
  EXPECT_EQ(c.key.name, "events");
  EXPECT_EQ(c.kind, MetricRegistry::Kind::kCounter);
  ASSERT_EQ(c.points.size(), 3u);
  EXPECT_EQ(c.points[0].first.ns(), Millis(1).ns());
  EXPECT_EQ(c.points[0].second, 3);  // Baseline excluded the warm-up 5.
  EXPECT_EQ(c.points[1].second, 7);
  EXPECT_EQ(c.points[2].second, 0);  // Zeros recorded once admitted.

  const MetricSampler::Timeline& g = timelines[1];
  EXPECT_EQ(g.key.name, "level");
  EXPECT_EQ(g.kind, MetricRegistry::Kind::kGauge);
  ASSERT_EQ(g.points.size(), 3u);
  EXPECT_EQ(g.points[0].second, 2);
  EXPECT_EQ(g.points[1].second, 0);
  EXPECT_EQ(g.points[2].second, 0);
}

TEST(SamplerTest, PrefixFilterKeepsOnlyMatchingKeys) {
  Executor ex;
  MetricRegistry metrics;
  Counter* keep = metrics.counter("client0", "tcp", "retransmits");
  Counter* drop = metrics.counter("client10", "tcp", "retransmits");
  SamplerParams params;
  params.period = Millis(1);
  params.prefixes = {"client0/"};  // Trailing slash: not a client10 prefix.
  MetricSampler sampler(&ex, &metrics, params);
  sampler.Start();
  ex.PostAfter(Micros(10), [&] {
    keep->Inc();
    drop->Inc();
  });
  ex.RunFor(Millis(2));
  sampler.Stop();
  const std::vector<MetricSampler::Timeline> timelines = sampler.Timelines();
  ASSERT_EQ(timelines.size(), 1u);
  EXPECT_EQ(timelines[0].key.domain, "client0");
}

// Same seed, fresh executor → byte-identical export, including after the
// ring has wrapped (head offset and dropped counts are schedule-determined).
TEST(SamplerTest, DeterministicToJsonAcrossRingWraparound) {
  const auto run = [] {
    Executor ex;
    ex.EnableShuffle(42);
    MetricRegistry metrics;
    Counter* c = metrics.counter("d", "dev", "events");
    Gauge* g = metrics.gauge("d", "dev", "level");
    SamplerParams params;
    params.period = Micros(100);
    params.ring_points = 8;  // Tiny: force wraparound within the run.
    auto sampler = std::make_unique<MetricSampler>(&ex, &metrics, params);
    sampler->Start();
    for (int i = 0; i < 200; ++i) {
      ex.PostAfter(Micros(7 * i + (i * i) % 13), [c, g, i] {
        c->Add(static_cast<uint64_t>(i % 5));
        g->Set(i % 7);
      });
    }
    ex.RunFor(Millis(5));
    sampler->Stop();
    return std::make_pair(sampler->ToJson(), sampler->Timelines());
  };
  const auto [json_a, timelines_a] = run();
  const auto [json_b, timelines_b] = run();
  EXPECT_EQ(json_a, json_b);
  ASSERT_FALSE(timelines_a.empty());
  // The wraparound actually engaged: the ring is full and points were lost.
  EXPECT_EQ(timelines_a[0].points.size(), 8u);
  EXPECT_GT(timelines_a[0].dropped, 0u);
  // Unwrapped points are still time-ordered.
  for (size_t i = 1; i < timelines_a[0].points.size(); ++i) {
    EXPECT_LT(timelines_a[0].points[i - 1].first.ns(),
              timelines_a[0].points[i].first.ns());
  }
}

// --- Dispatch profiler. ---------------------------------------------------

TEST(DispatchProfilerTest, DisabledIsEmpty) {
  Executor ex;
  EXPECT_FALSE(ex.dispatch_profiler_enabled());
  EXPECT_TRUE(ex.DispatchProfile().empty());
  EXPECT_EQ(FormatDispatchProfile(ex), "(dispatch profiler disabled)\n");
}

TEST(DispatchProfilerTest, ExactCountsPerSite) {
  Executor ex;
  ex.set_profile_sample_shift(0);  // Time every dispatch.
  ex.EnableDispatchProfiler();
  uint64_t fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ex.PostAfter(Micros(i), KITE_POST_SITE("test/tagged-timer"), [&fired] { ++fired; });
  }
  for (int i = 0; i < 500; ++i) {
    ex.PostAfter(Micros(2 * i + 1), [&fired] { ++fired; });
  }
  ex.RunUntilIdle();
  EXPECT_EQ(fired, 1500u);

  uint64_t total_invocations = 0;
  uint64_t total_est_ns = 0;
  bool saw_tagged = false, saw_untagged = false;
  for (const DispatchProfileEntry& e : ex.DispatchProfile()) {
    total_invocations += e.invocations;
    total_est_ns += e.est_wall_ns;
    EXPECT_EQ(e.samples, e.invocations);  // Shift 0: every dispatch sampled.
    if (std::strcmp(e.label, "test/tagged-timer") == 0) {
      saw_tagged = true;
      EXPECT_EQ(e.invocations, 1000u);
    } else if (std::strcmp(e.label, "(untagged)") == 0) {
      saw_untagged = true;
      EXPECT_EQ(e.invocations, 500u);
    }
  }
  EXPECT_TRUE(saw_tagged);
  EXPECT_TRUE(saw_untagged);
  EXPECT_EQ(total_invocations, ex.steps_executed());
  EXPECT_GT(total_est_ns, 0u);

  const std::string table = FormatDispatchProfile(ex);
  EXPECT_NE(table.find("test/tagged-timer"), std::string::npos);
  std::istringstream json(DispatchProfileJson(ex));
  Artifact doc;
  std::string error;
  ASSERT_TRUE(ReadArtifact(json, &doc, &error)) << error;
  const std::vector<ArtifactRow>& sites = doc.sections["sites"];
  const auto tagged = std::find_if(sites.begin(), sites.end(), [](const ArtifactRow& r) {
    return r.Str("label") == "test/tagged-timer";
  });
  ASSERT_NE(tagged, sites.end());
  EXPECT_EQ(tagged->Num("invocations"), 1000);
}

TEST(DispatchProfilerTest, SiteRegistryInternsLabels) {
  const DispatchSite* a = RegisterDispatchSite("test/interned-label");
  const DispatchSite* b = RegisterDispatchSite("test/interned-label");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(DispatchSiteLabel(a->index), "test/interned-label");
  EXPECT_STREQ(DispatchSiteLabel(kDispatchSiteUntagged), "(untagged)");
}

TEST(DispatchProfilerTest, GuestLifecycleDispatchesNothingUntagged) {
  // Create, attach, connect, move bytes both ways and to disk, destroy and
  // reap: every event of a full net+storage guest lifecycle has a site.
  KiteSystem sys;
  sys.executor().EnableDispatchProfiler();
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("lifecycle-guest");
  sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  sys.AttachVbd(guest, stordom);
  ASSERT_TRUE(sys.WaitConnected(guest));
  bool pinged = false;
  sys.client()->stack()->Ping(Ipv4Addr::FromOctets(10, 0, 0, 10), 56,
                              [&](bool ok, SimDuration) { pinged = ok; });
  ASSERT_TRUE(sys.WaitUntil([&] { return pinged; }));
  bool written = false;
  guest->blkfront()->Write(0, Buffer(4096, 0x5a), [&](bool ok) { written = ok; });
  ASSERT_TRUE(sys.WaitUntil([&] { return written; }));
  sys.DestroyGuest(guest);
  ASSERT_TRUE(sys.WaitUntil([&] {
    return netdom->driver()->instance_count() == 0 && stordom->driver()->instance_count() == 0 &&
           netdom->dying_instance_count() == 0 && stordom->dying_instance_count() == 0;
  }));
  sys.RunUntilIdle();

  bool saw_flag_wake = false;
  for (const DispatchProfileEntry& e : sys.executor().DispatchProfile()) {
    EXPECT_STRNE(e.label, "(untagged)") << e.invocations << " untagged dispatches";
    saw_flag_wake = saw_flag_wake || std::strcmp(e.label, "bmk/flag-wake") == 0;
  }
  EXPECT_TRUE(saw_flag_wake);
}

// --- No-perturbation: telemetry on vs off, same shuffled schedule. --------

struct PingRun {
  std::string metrics_table;
  std::vector<int64_t> rtts_ns;
  int64_t end_ns = 0;
};

PingRun RunShuffledPings(bool telemetry) {
  KiteSystem::Params params;
  params.sampler.period = Millis(1);
  KiteSystem sys(params);
  sys.EnableScheduleShuffle(7);
  if (telemetry) {
    sys.sampler().Start();
    sys.executor().EnableDispatchProfiler();
  }
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("telemetry-guest");
  sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  EXPECT_TRUE(sys.WaitConnected(guest));
  PingRun run;
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    guest->stack()->Ping(sys.client_ip(), 56, [&](bool ok, SimDuration rtt) {
      EXPECT_TRUE(ok);
      run.rtts_ns.push_back(rtt.ns());
      done = true;
    });
    EXPECT_TRUE(sys.WaitUntil([&] { return done; }, Seconds(5)));
  }
  run.metrics_table = sys.FormatMetrics();
  run.end_ns = sys.Now().ns();
  return run;
}

TEST(TelemetryPerturbationTest, EnabledRunMatchesDisabledRunExactly) {
  const PingRun off = RunShuffledPings(false);
  const PingRun on = RunShuffledPings(true);
  EXPECT_EQ(off.rtts_ns, on.rtts_ns);
  EXPECT_EQ(off.end_ns, on.end_ns);
  EXPECT_EQ(off.metrics_table, on.metrics_table);
}

// --- Teardown dumps: KITE_TIMELINE, KITE_CPU and KITE_PROFILE. -------------

// Reads one teardown dump with the shared artifact reader.
Artifact ReadDump(const std::string& path) {
  std::ifstream in(path);
  Artifact doc;
  std::string error;
  EXPECT_TRUE(ReadArtifact(in, &doc, &error)) << path << ": " << error;
  std::remove(path.c_str());
  return doc;
}

TEST(TelemetryExportTest, TeardownDumpsReadBackThroughTheArtifactReader) {
  const std::string dir = testing::TempDir();
  const std::string timeline = dir + "/kite_telemetry_timeline.json";
  const std::string cpu = dir + "/kite_telemetry_cpu.json";
  const std::string profile = dir + "/kite_telemetry_profile.json";
  setenv("KITE_TIMELINE", timeline.c_str(), 1);
  setenv("KITE_CPU", cpu.c_str(), 1);
  setenv("KITE_PROFILE", profile.c_str(), 1);
  {
    KiteSystem sys;
    // The paths are read at construction; the dumps are written at destruction.
    unsetenv("KITE_TIMELINE");
    unsetenv("KITE_CPU");
    unsetenv("KITE_PROFILE");
    NetworkDomain* netdom = sys.CreateNetworkDomain();
    GuestVm* guest = sys.CreateGuest("guest");
    sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
    ASSERT_TRUE(sys.WaitConnected(guest));
    bool pinged = false;
    sys.client()->stack()->Ping(Ipv4Addr::FromOctets(10, 0, 0, 10), 56,
                                [&](bool ok, SimDuration) { pinged = ok; });
    ASSERT_TRUE(sys.WaitUntil([&] { return pinged; }, Seconds(5)));
    sys.RunFor(Millis(50));
  }

  Artifact tl = ReadDump(timeline);
  EXPECT_EQ(tl.top.Num("period_ns"), 1e7);
  EXPECT_GE(tl.top.Num("ticks"), 5);
  ASSERT_FALSE(tl.sections["timelines"].empty());
  for (const ArtifactRow& row : tl.sections["timelines"]) {
    EXPECT_EQ(row.Num("period_ns"), 1e7) << row.text;
    EXPECT_FALSE(row.Points("points").empty()) << row.text;
  }

  Artifact report = ReadDump(cpu);
  EXPECT_GT(report.top.Num("t_ns"), 0);
  ASSERT_FALSE(report.sections["actors"].empty());
  EXPECT_EQ(report.sections["wait"].size(), report.sections["actors"].size());
  double netdom_busy_ns = 0;
  for (const ArtifactRow& row : report.sections["actors"]) {
    if (row.Str("domain") == "kite-netdom") {
      netdom_busy_ns += row.Num("busy_ns");
    }
  }
  EXPECT_GT(netdom_busy_ns, 0);
  const std::vector<ArtifactRow>& categories = report.sections["categories"];
  EXPECT_TRUE(std::any_of(categories.begin(), categories.end(), [](const ArtifactRow& r) {
    return r.Str("label") == "hv/irq_dispatch" && r.Num("busy_ns") > 0;
  }));

  Artifact prof = ReadDump(profile);
  double invocations = 0;
  for (const ArtifactRow& row : prof.sections["sites"]) {
    invocations += row.Num("invocations");
  }
  EXPECT_FALSE(prof.sections["sites"].empty());
  EXPECT_EQ(invocations, prof.top.Num("total_dispatches"));
}

// --- TCP congestion telemetry: the cwnd sawtooth. -------------------------

// Half of a veth pair (bench_tcp_loss's PatchIf, reduced).
class PatchIf : public NetIf {
 public:
  PatchIf(std::string name, MacAddr mac) : NetIf(std::move(name), mac) {
    SetUp(true);
  }
  void SetPeer(NetIf* peer) { peer_ = peer; }
  void Output(EthernetFrame frame) override {
    if (peer_ != nullptr) {
      peer_->InjectInput(frame);
    }
  }

 private:
  NetIf* peer_ = nullptr;
};

// One flow through a 1 Gbps drop-tail bottleneck, offered at 2x line rate:
// the sampled per-flow cwnd gauge must show slow-start growth, a loss
// reaction (multiplicative decrease), and regrowth — the AIMD sawtooth.
TEST(TelemetryTcpTest, CwndTimelineShowsSawtooth) {
  Executor ex;
  MetricRegistry metrics;
  Bridge bridge("br0", nullptr);

  const Ipv4Addr server_ip = Ipv4Addr::FromOctets(10, 0, 0, 1);
  const Ipv4Addr client_ip = Ipv4Addr::FromOctets(10, 0, 0, 2);
  const MacAddr server_mac = MacAddr::FromId(0x1000);
  const MacAddr client_mac = MacAddr::FromId(0x2000);

  PatchIf server_if("srv", server_mac);
  PatchIf server_port("srv-port", MacAddr::FromId(0x10));
  server_if.SetPeer(&server_port);
  server_port.SetPeer(&server_if);
  bridge.AddIf(&server_port);
  EtherStack server(&ex, nullptr, &server_if, StackParams{});
  server.ConfigureIp(server_ip);

  PatchIf client_if("cli", client_mac);
  PatchIf client_port("cli-port", MacAddr::FromId(0x11));
  client_if.SetPeer(&client_port);
  client_port.SetPeer(&client_if);
  bridge.AddIf(&client_port);
  StackParams cp;
  cp.metrics = &metrics;
  cp.metrics_domain = "client";
  cp.per_flow_metrics = true;
  EtherStack client(&ex, nullptr, &client_if, cp);
  client.ConfigureIp(client_ip);

  client.AddArpEntry(server_ip, server_mac);
  server.AddArpEntry(client_ip, client_mac);

  EgressQueueParams qp;
  qp.limit_frames = 64;
  qp.drain_gbps = 1.0;
  bridge.EnablePortQueue(&ex, &server_port, qp);

  server.ListenTcp(7000, [](TcpConn* conn) {
    conn->SetDataCallback([](std::span<const uint8_t>) {});
  });
  TcpConn* conn = nullptr;
  client.ConnectTcp(server_ip, 7000, [&conn](TcpConn* c) { conn = c; });
  ex.RunFor(Millis(10));
  ASSERT_NE(conn, nullptr);

  SamplerParams sp;
  sp.period = Millis(1);
  sp.prefixes = {"client/"};
  MetricSampler sampler(&ex, &metrics, sp);
  sampler.Start();

  // Paced writes at 2 Gbps offered into the 1 Gbps bottleneck.
  struct Pacer {
    TcpConn* conn;
    Executor* ex;
    void Tick() {
      conn->Send(Buffer(250000, 0x5a));
      ex->PostAfter(Millis(1), [this] { Tick(); });
    }
  };
  Pacer pacer{conn, &ex};
  ex.Post([&pacer] { pacer.Tick(); });
  ex.RunFor(Millis(200));
  sampler.Stop();

  std::vector<double> cwnd;
  for (const MetricSampler::Timeline& tl : sampler.Timelines()) {
    if (tl.key.name == "cwnd_bytes") {
      for (const auto& [at, v] : tl.points) {
        cwnd.push_back(v);
      }
    }
  }
  ASSERT_GE(cwnd.size(), 50u) << "per-flow cwnd gauge was never sampled";
  EXPECT_GT(bridge.queue_drops(), 0u) << "bottleneck never dropped: no loss signal";

  // Slow start: the window grows well past its initial value.
  const double first = cwnd.front();
  const size_t peak_idx =
      static_cast<size_t>(std::max_element(cwnd.begin(), cwnd.end()) - cwnd.begin());
  const double peak = cwnd[peak_idx];
  EXPECT_GE(peak, 1.5 * first) << "no slow-start growth visible";
  // Loss reaction: a post-peak trough well below the peak.
  const auto trough_it = std::min_element(cwnd.begin() + peak_idx, cwnd.end());
  const double trough = *trough_it;
  EXPECT_LE(trough, 0.7 * peak) << "no multiplicative decrease visible";
  // Recovery: the window climbs again after the trough.
  double post = trough;
  for (auto it = trough_it; it != cwnd.end(); ++it) {
    post = std::max(post, *it);
  }
  EXPECT_GE(post, 1.3 * trough) << "no post-loss regrowth visible";
}

}  // namespace
}  // namespace kite
