// The observability layer (src/obs): metric registry semantics — get-or-create
// identity, stable handles, deterministic snapshots — and tracer output
// well-formedness (Chrome trace_event JSON).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/strings.h"
#include "src/core/system.h"
#include "src/obs/flow.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"

namespace kite {
namespace {

// --- MetricRegistry. ---

TEST(MetricRegistryTest, SameKeyReturnsSameHandle) {
  MetricRegistry reg;
  Counter* a = reg.counter("hv", "grant", "maps");
  Counter* b = reg.counter("hv", "grant", "maps");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  // A different component of the key is a different metric.
  EXPECT_NE(a, reg.counter("hv", "grant", "unmaps"));
  EXPECT_NE(a, reg.counter("hv", "evtchn", "maps"));
  EXPECT_NE(a, reg.counter("dom1", "grant", "maps"));
  EXPECT_EQ(reg.size(), 4u);
}

TEST(MetricRegistryTest, HandlesStayValidAcrossGrowth) {
  MetricRegistry reg;
  Counter* first = reg.counter("d", "dev", "m0");
  first->Inc();
  // Force many insertions; the original handle must not move.
  for (int i = 1; i < 200; ++i) {
    reg.counter("d", "dev", "m" + std::to_string(i))->Inc();
  }
  first->Add(2);
  EXPECT_EQ(first->value(), 3u);
  EXPECT_EQ(reg.counter("d", "dev", "m0"), first);
}

TEST(MetricRegistryTest, CounterGaugeHistogramSemantics) {
  MetricRegistry reg;
  Counter* c = reg.counter("d", "-", "events");
  c->Inc();
  c->Add(9);
  EXPECT_EQ(c->value(), 10u);
  c->Set(0);
  EXPECT_EQ(c->value(), 0u);

  Gauge* g = reg.gauge("d", "-", "depth");
  g->Set(4.0);
  g->Add(-1.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);

  LatencyHistogram* h = reg.latency("d", "-", "batch_ns");
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->mean(), 0.0);
  h->Record(3);
  h->Record(9);
  h->Record(6);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->min(), 3u);
  EXPECT_EQ(h->max(), 9u);
  EXPECT_DOUBLE_EQ(h->mean(), 6.0);
}

TEST(MetricRegistryTest, SnapshotIsDeterministicallyOrdered) {
  MetricRegistry reg;
  reg.counter("zeta", "dev", "a")->Inc();
  reg.counter("alpha", "dev", "z")->Inc();
  reg.counter("alpha", "dev", "a")->Inc();
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].key.domain, "alpha");
  EXPECT_EQ(samples[0].key.name, "a");
  EXPECT_EQ(samples[1].key.domain, "alpha");
  EXPECT_EQ(samples[1].key.name, "z");
  EXPECT_EQ(samples[2].key.domain, "zeta");
}

TEST(MetricRegistryTest, SnapshotSkipZeroOmitsUntouchedMetrics) {
  MetricRegistry reg;
  reg.counter("d", "dev", "touched")->Inc();
  reg.counter("d", "dev", "untouched");
  reg.latency("d", "dev", "empty_ns");
  EXPECT_EQ(reg.Snapshot(/*skip_zero=*/false).size(), 3u);
  auto samples = reg.Snapshot(/*skip_zero=*/true);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].key.name, "touched");
  EXPECT_DOUBLE_EQ(samples[0].value, 1.0);
}

TEST(MetricRegistryTest, FormatTableContainsKeyAndValue) {
  MetricRegistry reg;
  reg.counter("kite-netdom", "vif1.0", "guest_tx_frames")->Add(42);
  const std::string table = reg.FormatTable();
  EXPECT_NE(table.find("kite-netdom/vif1.0/guest_tx_frames"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
}

TEST(MetricRegistryTest, FormatTablePrefixKeepsOnlyMatchingLabels) {
  MetricRegistry reg;
  reg.counter("obs", "health", "probes")->Add(7);
  reg.gauge("obs", "health", "instances")->Set(2);
  reg.counter("kite-netdom", "vif1.0", "guest_tx_frames")->Add(42);
  const std::string focused = reg.FormatTable(/*skip_zero=*/true, "obs/health");
  EXPECT_NE(focused.find("obs/health/probes"), std::string::npos);
  EXPECT_NE(focused.find("obs/health/instances"), std::string::npos);
  EXPECT_EQ(focused.find("guest_tx_frames"), std::string::npos);
  // An unmatched prefix yields an empty table, not the full registry.
  EXPECT_EQ(reg.FormatTable(/*skip_zero=*/true, "no/such/prefix").find("probes"),
            std::string::npos);
}

// --- LatencyHistogram. ---

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // The first two octaves are unit-width buckets: every value below 64
  // round-trips exactly through index → lower bound.
  for (uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<int>(v)), v);
  }
}

TEST(LatencyHistogramTest, BucketBoundariesRoundTrip) {
  // A bucket's lower bound must map back to the same bucket, and any value
  // inside the bucket must map to an index whose bounds bracket it.
  for (int i = 0; i < LatencyHistogram::kNumBuckets - 1; ++i) {
    const uint64_t lo = LatencyHistogram::BucketLowerBound(i);
    const uint64_t next = LatencyHistogram::BucketLowerBound(i + 1);
    ASSERT_LT(lo, next) << i;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(next - 1), i);
  }
  // Sub-bucket resolution: the relative quantisation error is bounded by
  // 1/32 everywhere (bucket width ≤ lower bound / 32 past the exact range).
  for (uint64_t v : {64ull, 100ull, 4096ull, 1000000ull, 123456789ull, 1ull << 40}) {
    const int i = LatencyHistogram::BucketIndex(v);
    const uint64_t lo = LatencyHistogram::BucketLowerBound(i);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, LatencyHistogram::BucketLowerBound(i + 1));
    EXPECT_LE(LatencyHistogram::BucketLowerBound(i + 1) - lo, std::max<uint64_t>(1, lo / 32));
  }
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeroes) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.p999(), 0u);
}

TEST(LatencyHistogramTest, SingleSampleDominatesEveryPercentile) {
  LatencyHistogram h;
  h.Record(4096);  // An exact bucket boundary: percentiles report it exactly.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 4096u);
  EXPECT_EQ(h.max(), 4096u);
  EXPECT_DOUBLE_EQ(h.mean(), 4096.0);
  for (double p : {0.1, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 4096u) << p;
  }
}

TEST(LatencyHistogramTest, PercentilesMatchSortedReferenceOn10kSamples) {
  // mt19937 with a fixed seed is fully specified by the standard, so the
  // sample set is identical on every platform.
  std::mt19937_64 rng(12345);
  LatencyHistogram h;
  std::vector<uint64_t> reference;
  reference.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform-ish spread from sub-µs to seconds, like real stage times.
    const uint64_t v = (rng() % 1000) << (rng() % 21);
    h.Record(v);
    reference.push_back(v);
  }
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(h.count(), reference.size());
  EXPECT_EQ(h.min(), reference.front());
  EXPECT_EQ(h.max(), reference.back());
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    // Nearest-rank reference value.
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * reference.size()));
    const uint64_t exact = reference[std::max<size_t>(rank, 1) - 1];
    const uint64_t approx = h.Percentile(p);
    // The histogram answers with the containing bucket's lower bound, so it
    // never overshoots and undershoots by at most the bucket width (≤ 1/32).
    EXPECT_LE(approx, exact) << p;
    EXPECT_LE(exact - approx, std::max<uint64_t>(1, exact / 32)) << p;
  }
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(1000000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  h.Record(7);
  EXPECT_EQ(h.p50(), 7u);
}

TEST(MetricRegistryTest, LatencyKindRegistersSnapshotsAndFormats) {
  MetricRegistry reg;
  LatencyHistogram* h = reg.latency("guest0", "xn0", "tx_complete_ns");
  EXPECT_EQ(h, reg.latency("guest0", "xn0", "tx_complete_ns"));
  for (uint64_t v = 1; v <= 100; ++v) {
    h->Record(v * 1000);  // 1µs..100µs.
  }
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricRegistry::Kind::kLatency);
  EXPECT_EQ(samples[0].count, 100u);
  EXPECT_EQ(samples[0].p50, h->p50());
  EXPECT_EQ(samples[0].p999, h->p999());
  EXPECT_GT(samples[0].p99, samples[0].p50);
  const std::string table = reg.FormatTable();
  EXPECT_NE(table.find("guest0/xn0/tx_complete_ns"), std::string::npos);
  EXPECT_NE(table.find("p50="), std::string::npos);
  EXPECT_NE(table.find("p99.9="), std::string::npos);
}

// --- EventTracer. ---

TEST(EventTracerTest, DisabledByDefaultAndRecordsWhenEnabled) {
  EventTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  // Belt-and-braces: call sites guard on enabled(), but a record made while
  // disabled is discarded internally too.
  tracer.Instant(1, 0, "cat", "ev", SimTime{});
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.set_enabled(true);
  tracer.Complete(1, 0, "hypercall", "gnttab_copy", SimTime{} + Micros(2), Nanos(480),
                  "bytes", 4096);
  tracer.Instant(2, 0, "evtchn", "evt_deliver", SimTime{} + Micros(3), "port", 4);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracerTest, CapsEventsAndCountsDrops) {
  EventTracer tracer(/*max_events=*/4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.Instant(1, 0, "cat", "ev", SimTime{} + Nanos(i));
  }
  // 4 stored + the one synthetic truncation marker placed at the first drop.
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.dropped(), 6u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracerTest, FirstDropLeavesOneTruncationMarker) {
  EventTracer tracer(/*max_events=*/2);
  tracer.set_enabled(true);
  for (int i = 0; i < 8; ++i) {
    tracer.Instant(1, 0, "cat", "ev", SimTime{} + Nanos(i));
  }
  // The marker sits at the drop point, carries the timestamp of the first
  // dropped event, and appears exactly once no matter how many drops follow.
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::string json = tracer.ToJson();
  size_t first = json.find("\"truncated\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json.find("\"truncated\"", first + 1), std::string::npos);
  EXPECT_NE(json.find("\"events_dropped_after\""), std::string::npos);
}

// A tiny structural check: braces/brackets balance and strings are closed.
// (Not a full JSON parser, but catches truncation and quoting bugs.)
bool JsonBalanced(const std::string& s) {
  int brace = 0;
  int bracket = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) {
      return false;
    }
  }
  return brace == 0 && bracket == 0 && !in_string;
}

TEST(EventTracerTest, ToJsonIsWellFormedTraceEventObject) {
  EventTracer tracer;
  tracer.set_enabled(true);
  tracer.SetProcessName(1, "kite-netdom");
  tracer.SetProcessName(2, "app\"vm\\");  // Needs escaping.
  tracer.Complete(1, 0, "hypercall", "evtchn_send", SimTime{} + Micros(10), Nanos(300));
  tracer.Instant(1, 3, "ring", "tx_push", SimTime{} + Micros(11), "notify", 1);
  const std::string json = tracer.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("kite-netdom"), std::string::npos);
  EXPECT_NE(json.find("app\\\"vm\\\\"), std::string::npos);  // Escaped form.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"notify\":1"), std::string::npos);
}

TEST(EventTracerTest, EmptyTraceIsStillValid) {
  EventTracer tracer;
  const std::string json = tracer.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(EventTracerTest, MidRunEnableStillNamesDomainTracks) {
  // Domain names are recorded as process_name metadata at CreateDomain even
  // while tracing is disabled, so the documented enable-mid-run workflow
  // (KiteSystem::EnableTracing after the topology exists) yields named
  // pid tracks, not bare numbers.
  KiteSystem sys;
  sys.CreateNetworkDomain();
  sys.RunFor(Millis(1));
  sys.EnableTracing();
  sys.RunFor(Millis(1));
  const std::string json = sys.tracer().ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("Domain-0"), std::string::npos);
  EXPECT_NE(json.find("kite-netdom"), std::string::npos);
}

// Collects the flow correlation ids of every event with the given phase
// ('s' begin, 't' step, 'f' end). Relies on ToJson emitting "id" after "ph"
// within one event object.
std::multiset<std::string> FlowIds(const std::string& json, char phase) {
  std::multiset<std::string> ids;
  const std::string needle = std::string("\"ph\":\"") + phase + "\"";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    const size_t close = json.find('}', pos);
    const size_t id = json.find("\"id\":\"", pos);
    if (id != std::string::npos && close != std::string::npos && id < close) {
      const size_t start = id + 6;
      const size_t end = json.find('"', start);
      ids.insert(json.substr(start, end - start));
    }
    pos += needle.size();
  }
  return ids;
}

TEST(EventTracerTest, FlowEventsRoundTripWithBalancedIds) {
  EventTracer tracer;
  tracer.set_enabled(true);
  const uint64_t id1 = MakeFlowId(FlowKind::kNetTx, 3, 0, 17);
  const uint64_t id2 = MakeFlowId(FlowKind::kBlk, 3, 1, 17);
  tracer.FlowBegin(3, 0, "net.tx", "tx_submit", SimTime{} + Micros(1), id1, Nanos(250));
  tracer.FlowStep(1, 3, "net.tx", "tx_pop", SimTime{} + Micros(2), id1, Nanos(400));
  tracer.FlowEnd(3, 0, "net.tx", "tx_complete", SimTime{} + Micros(3), id1);
  tracer.FlowBegin(3, 0, "blk", "req_submit", SimTime{} + Micros(4), id2);
  tracer.FlowEnd(3, 0, "blk", "req_complete", SimTime{} + Micros(5), id2);
  // Each flow point also records an anchor slice for the viewer to bind the
  // arrow to: 5 flow records + 5 anchors.
  EXPECT_EQ(tracer.size(), 10u);
  const std::string json = tracer.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_EQ(FlowIds(json, 's'), FlowIds(json, 'f'));  // Every span closed.
  EXPECT_EQ(FlowIds(json, 's').size(), 2u);
  EXPECT_EQ(FlowIds(json, 't').count("0x" + StrFormat("%llx", (unsigned long long)id1)), 1u);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);  // End binds enclosing slice.
  // Distinct kinds keep distinct ids even with equal ring indices.
  EXPECT_NE(id1, id2);
}

TEST(EventTracerTest, CrossDomainRequestFlowsCompleteOnBothPaths) {
  // End-to-end: a ping (rx + tx through the network domain) and a disk read
  // (through the storage domain) must each leave at least one fully closed
  // flow — FlowBegin and FlowEnd with the same id — in the trace.
  KiteSystem sys;
  sys.EnableTracing();
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("flow-guest");
  sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  sys.AttachVbd(guest, stordom);
  ASSERT_TRUE(sys.WaitConnected(guest));
  bool pinged = false;
  sys.client()->stack()->Ping(Ipv4Addr::FromOctets(10, 0, 0, 10), 56,
                              [&](bool ok, SimDuration) { pinged = ok; });
  ASSERT_TRUE(sys.WaitUntil([&] { return pinged; }));
  bool read_done = false;
  guest->blkfront()->Read(0, 4096, nullptr, [&](bool ok) { read_done = ok; });
  ASSERT_TRUE(sys.WaitUntil([&] { return read_done; }));
  sys.RunFor(Millis(1));  // Let trailing responses drain.
  const std::string json = sys.tracer().ToJson();
  EXPECT_TRUE(JsonBalanced(json));
  const auto begins = FlowIds(json, 's');
  const auto ends = FlowIds(json, 'f');
  ASSERT_FALSE(ends.empty());
  // Every end closes a begin of the same id.
  for (const std::string& id : ends) {
    EXPECT_GE(begins.count(id), ends.count(id)) << id;
  }
  // At least one *completed* flow per path: the FlowKind tag is the top
  // nibble of the id (net.tx=1, net.rx=2, blk=3).
  for (const char* prefix : {"0x1", "0x2", "0x3"}) {
    const bool complete = std::any_of(ends.begin(), ends.end(), [&](const std::string& id) {
      return id.rfind(prefix, 0) == 0 && begins.count(id) > 0;
    });
    EXPECT_TRUE(complete) << "no completed flow with kind prefix " << prefix;
  }
}

TEST(KiteSystemTest, KiteTraceEnvVarEnablesAndDumpsOnDestruction) {
  const std::string path = testing::TempDir() + "/kite_trace_env_test.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("KITE_TRACE", path.c_str(), /*overwrite=*/1), 0);
  {
    KiteSystem sys;
    EXPECT_TRUE(sys.tracer().enabled());
    sys.CreateNetworkDomain();
    sys.RunFor(Millis(1));
  }
  unsetenv("KITE_TRACE");
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "destructor did not dump to $KITE_TRACE";
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(JsonBalanced(contents));
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("kite-netdom"), std::string::npos);
}

TEST(EventTracerTest, DumpTraceWritesFile) {
  EventTracer tracer;
  tracer.set_enabled(true);
  tracer.Instant(1, 0, "cat", "ev", SimTime{} + Micros(1));
  const std::string path = testing::TempDir() + "/kite_obs_test_trace.json";
  ASSERT_TRUE(tracer.DumpTrace(path));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, tracer.ToJson());
  EXPECT_TRUE(JsonBalanced(contents));
}

// --- Row ownership. ---

TEST(MetricRegistryTest, LastReleaseFoldsIntoRetiredRowsAndFreesTheGroup) {
  MetricRegistry reg;
  reg.counter("drv", "vif-retired", "frames")->Add(5);  // An earlier fold.
  {
    const MetricRegistry::Owner owner = reg.Own("drv", "vif3.0", "drv", "vif-retired");
    owner.counter("frames")->Add(7);
    reg.gauge("drv", "vif3.0", "depth")->Set(3);  // A watchdog gauge, say.
    owner.latency("wait_ns")->Record(100);
    owner.latency("wait_ns")->Record(2000);
    // A lookup reaches the owned row and takes no ownership of its own.
    EXPECT_EQ(reg.counter("drv", "vif3.0", "frames"), owner.counter("frames"));
    EXPECT_EQ(reg.owned_group_count(), 1u);
    EXPECT_EQ(reg.size(), 4u);
  }
  EXPECT_EQ(reg.owned_group_count(), 0u);
  // Counters added, histograms merged, the gauge dropped, the cells freed.
  const std::vector<MetricRegistry::Sample> samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].key, (MetricKey{"drv", "vif-retired", "frames"}));
  EXPECT_EQ(samples[0].value, 12.0);
  EXPECT_EQ(samples[1].key, (MetricKey{"drv", "vif-retired", "wait_ns"}));
  EXPECT_EQ(samples[1].count, 2u);
  EXPECT_EQ(samples[1].min, 100.0);
  EXPECT_EQ(samples[1].max, 2000.0);

  // A later owner of the same device starts from zero beside the retired row.
  const MetricRegistry::Owner next = reg.Own("drv", "vif3.0", "drv", "vif-retired");
  EXPECT_EQ(next.counter("frames")->value(), 0u);
  EXPECT_EQ(reg.counter("drv", "vif-retired", "frames")->value(), 12u);
}

TEST(MetricRegistryTest, GroupWithTwoOwnersSurvivesTheFirstRelease) {
  MetricRegistry reg;
  auto draining = std::make_unique<MetricRegistry::Owner>(
      reg.Own("drv", "vbd3.51712", "drv", "vbd-retired"));
  Counter* ops = draining->counter("device_ops");
  LatencyHistogram* device_ns = draining->latency("device_ns");
  ops->Add(2);
  // The successor for the same device shares the rows.
  MetricRegistry::Owner successor = reg.Own("drv", "vbd3.51712", "drv", "vbd-retired");
  EXPECT_EQ(successor.counter("device_ops"), ops);
  draining.reset();
  // The survivor's handles stay valid (a free at the first release is a
  // use-after-free here under ASan), and nothing is retired yet.
  ops->Add(3);
  device_ns->Record(50);
  EXPECT_EQ(ops->value(), 5u);
  EXPECT_EQ(reg.owned_group_count(), 1u);
  for (const MetricRegistry::Sample& s : reg.Snapshot()) {
    EXPECT_EQ(s.key.device, "vbd3.51712");
  }
  successor = MetricRegistry::Owner();  // The last release.
  EXPECT_EQ(reg.owned_group_count(), 0u);
  EXPECT_EQ(reg.counter("drv", "vbd-retired", "device_ops")->value(), 5u);
  EXPECT_EQ(reg.latency("drv", "vbd-retired", "device_ns")->count(), 1u);
}

TEST(MetricRegistryTest, RowsWithoutAnOwnerStay) {
  MetricRegistry reg;
  reg.counter("hv", "grant", "maps")->Add(4);
  {
    const MetricRegistry::Owner owner = reg.Own("g", "xn0", "guests", "vif-retired");
    owner.counter("tx_dropped")->Inc();
  }
  EXPECT_EQ(reg.counter("hv", "grant", "maps")->value(), 4u);
  EXPECT_EQ(reg.counter("guests", "vif-retired", "tx_dropped")->value(), 1u);
  EXPECT_EQ(reg.size(), 2u);
}

// --- FlightRecorder. ---

TEST(FlightRecorderTest, TailIsOldestFirstAndWrapsAtCapacity) {
  Executor ex;
  FlightRecorder rec(&ex, /*capacity=*/8);
  FlightRecorder::DomainRing* ring = rec.ring(3);
  EXPECT_EQ(ring->capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    ring->Record(FlightKind::kRingPush, /*dev=*/0, /*a=*/i, /*b=*/0);
  }
  EXPECT_EQ(ring->recorded(), 20u);
  const std::vector<FlightRecord> tail = ring->Tail(100);
  // Only the last `capacity` records survive a wrap, oldest first.
  ASSERT_EQ(tail.size(), 8u);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].a, 12 + i);
    EXPECT_EQ(tail[i].dom, 3);
  }
  // A smaller max keeps the newest records, still oldest first.
  const std::vector<FlightRecord> last3 = ring->Tail(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3.front().a, 17u);
  EXPECT_EQ(last3.back().a, 19u);
}

TEST(FlightRecorderTest, KeepsLiveRingsAndTheLastDeadOnes) {
  Executor ex;
  FlightRecorder rec(&ex, /*capacity=*/8);
  rec.Record(1, FlightKind::kDomainCreated);  // Stays alive throughout.
  constexpr int32_t kFirstDead = 2;
  constexpr int32_t kDead = static_cast<int32_t>(FlightRecorder::kDeadRings) + 4;
  for (int32_t dom = kFirstDead; dom < kFirstDead + kDead; ++dom) {
    rec.Record(dom, FlightKind::kDomainCreated);
    rec.Record(dom, FlightKind::kDomainDestroyed);
    rec.DomainDestroyed(dom);
  }
  EXPECT_EQ(rec.ring_count(), 1 + FlightRecorder::kDeadRings);
  // The four oldest dead rings are gone; the newest kDeadRings stay readable.
  for (int32_t dom = kFirstDead; dom < kFirstDead + 4; ++dom) {
    EXPECT_EQ(rec.recorded(dom), 0u) << dom;
    EXPECT_EQ(rec.ring(dom), nullptr) << dom;
  }
  const int32_t newest = kFirstDead + kDead - 1;
  EXPECT_EQ(rec.recorded(kFirstDead + 4), 2u);
  EXPECT_EQ(rec.recorded(newest), 2u);
  EXPECT_EQ(rec.recorded(1), 1u);
  // A late record for an evicted domain does not bring its ring back; one
  // for a dead domain still kept lands in its ring.
  rec.Record(kFirstDead, FlightKind::kEventVanished, /*dev=*/7);
  rec.Record(newest, FlightKind::kEventVanished, /*dev=*/7);
  EXPECT_EQ(rec.ring_count(), 1 + FlightRecorder::kDeadRings);
  EXPECT_EQ(rec.recorded(kFirstDead), 0u);
  EXPECT_EQ(rec.recorded(newest), 3u);
  EXPECT_EQ(rec.FormatAll().find("dom 2:"), std::string::npos);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  Executor ex;
  FlightRecorder rec(&ex, /*capacity=*/100);
  EXPECT_EQ(rec.ring(1)->capacity(), 128u);
}

TEST(FlightRecorderTest, RingSurvivesForDeadDomainsAndFormats) {
  Executor ex;
  FlightRecorder rec(&ex, /*capacity=*/8);
  rec.Record(5, FlightKind::kDomainCreated, 0, /*vcpus=*/1, /*mem=*/64);
  rec.Record(5, FlightKind::kXenbusSwitch, 0, 4);
  rec.Record(5, FlightKind::kDomainDestroyed);
  // The ring is the dead domain's black box: still readable, still formatted.
  EXPECT_EQ(rec.recorded(5), 3u);
  EXPECT_EQ(rec.total_recorded(), 3u);
  const std::string out = rec.FormatAll();
  EXPECT_NE(out.find("domain-created"), std::string::npos);
  EXPECT_NE(out.find("xenbus-switch"), std::string::npos);
  EXPECT_NE(out.find("domain-destroyed"), std::string::npos);
  EXPECT_EQ(out, rec.FormatTail(5));
}

// --- HealthMonitor (unit, with a scripted sampler). ---

TEST(HealthMonitorTest, StateMachineWalksThresholdsAndCollapsesOnProgress) {
  Executor ex;
  MetricRegistry metrics;
  FlightRecorder rec(&ex);
  HealthParams hp;
  hp.probe_period = Millis(1);
  hp.degraded_after = Millis(5);
  hp.stalled_after = Millis(20);
  HealthMonitor hm(&ex, &metrics, &rec, hp);
  std::vector<std::string> published;
  hm.Subscribe([&](int32_t dom, const std::string& device, HealthState, HealthState state) {
    published.push_back(StrFormat("%d/%s=%s", dom, device.c_str(), HealthStateName(state)));
  });

  HealthSample s;
  s.connected = true;
  const int64_t id = hm.Register(7, "fake-dom", "dev0", 0, [&] { return s; });
  hm.Start();

  // Idle and connected: healthy, forever.
  ex.RunFor(Millis(4));
  EXPECT_EQ(hm.state(7, "dev0"), HealthState::kHealthy);
  EXPECT_GT(hm.probes_run(), 0u);

  // A request appears and nothing consumes it: degraded after 5ms of stall,
  // stalled after 20ms.
  s.req_prod = 1;
  ex.RunFor(Millis(8));
  EXPECT_EQ(hm.state(7, "dev0"), HealthState::kDegraded);
  ex.RunFor(Millis(20));
  EXPECT_EQ(hm.state(7, "dev0"), HealthState::kStalled);
  EXPECT_EQ(metrics.gauge("fake-dom", "dev0", "health_state")->value(), 2.0);
  EXPECT_EQ(metrics.counter("obs", "health", "stalled_transitions")->value(), 1u);
  EXPECT_EQ(metrics.gauge("obs", "health", "instances_stalled")->value(), 1.0);

  // Consumer progress collapses the state machine straight back to healthy.
  s.req_cons = 1;
  s.rsp_prod = 1;
  ex.RunFor(Millis(2));
  EXPECT_EQ(hm.state(7, "dev0"), HealthState::kHealthy);
  EXPECT_EQ(metrics.counter("obs", "health", "transitions")->value(), 3u);
  ASSERT_EQ(published.size(), 3u);
  EXPECT_EQ(published[0], "7/dev0=degraded");
  EXPECT_EQ(published[1], "7/dev0=stalled");
  EXPECT_EQ(published[2], "7/dev0=healthy");

  // The stall left its mark in the flight recorder.
  EXPECT_NE(rec.FormatTail(7).find("health-transition"), std::string::npos);

  hm.Unregister(id);
  ex.RunFor(Millis(2));
  EXPECT_TRUE(hm.Instances().empty());
  EXPECT_EQ(metrics.gauge("obs", "health", "instances")->value(), 0.0);
}

TEST(HealthMonitorTest, DisconnectedOrDrainedInstanceNeverStalls) {
  Executor ex;
  MetricRegistry metrics;
  FlightRecorder rec(&ex);
  HealthParams hp;
  hp.probe_period = Millis(1);
  hp.degraded_after = Millis(2);
  hp.stalled_after = Millis(4);
  HealthMonitor hm(&ex, &metrics, &rec, hp);

  // Not yet connected: pending indices are garbage, must not count.
  HealthSample s;
  s.connected = false;
  s.req_prod = 99;
  hm.Register(4, "fake-dom", "dev1", 1, [&] { return s; });
  hm.Start();
  ex.RunFor(Millis(10));
  EXPECT_EQ(hm.state(4, "dev1"), HealthState::kHealthy);

  // Connected but drained (no ring pending, no internal backlog): the probe
  // treats it as idle even though the indices never move.
  s.connected = true;
  s.req_prod = 0;
  ex.RunFor(Millis(10));
  EXPECT_EQ(hm.state(4, "dev1"), HealthState::kHealthy);
  EXPECT_EQ(metrics.counter("obs", "health", "transitions")->value(), 0u);
}

TEST(HealthMonitorTest, SubscribersDispatchInDeterministicOrder) {
  Executor ex;
  MetricRegistry metrics;
  FlightRecorder rec(&ex);
  HealthParams hp;
  hp.probe_period = Millis(1);
  hp.degraded_after = Millis(2);
  hp.stalled_after = Millis(100);
  HealthMonitor hm(&ex, &metrics, &rec, hp);

  // Every subscriber sees each transition, in subscription order — the
  // Rebalancer relies on this determinism across schedule-shuffled explore
  // runs, and KiteSystem's xenstore publisher subscribes first.
  std::vector<std::string> order;
  hm.Subscribe([&](int32_t dom, const std::string& device, HealthState,
                   HealthState state) {
    order.push_back(StrFormat("pub:%d/%s=%s", dom, device.c_str(),
                              HealthStateName(state)));
  });
  const int64_t a = hm.Subscribe([&](int32_t dom, const std::string& device,
                                     HealthState old_state, HealthState new_state) {
    order.push_back(StrFormat("a:%d/%s %s->%s", dom, device.c_str(),
                              HealthStateName(old_state), HealthStateName(new_state)));
  });
  const int64_t b = hm.Subscribe([&](int32_t dom, const std::string& device,
                                     HealthState old_state, HealthState new_state) {
    order.push_back(StrFormat("b:%d/%s %s->%s", dom, device.c_str(),
                              HealthStateName(old_state), HealthStateName(new_state)));
  });
  EXPECT_NE(a, b);
  EXPECT_EQ(hm.subscriber_count(), 3);

  HealthSample s;
  s.connected = true;
  hm.Register(9, "fake-dom", "dev2", 2, [&] { return s; });
  hm.Start();
  s.req_prod = 1;  // Stuck request: degraded after 2ms.
  ex.RunFor(Millis(5));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "pub:9/dev2=degraded");
  EXPECT_EQ(order[1], "a:9/dev2 healthy->degraded");
  EXPECT_EQ(order[2], "b:9/dev2 healthy->degraded");

  // Unsubscribing one leaves the other: progress collapses back to healthy
  // and only `b` (after the publisher) observes it.
  hm.Unsubscribe(a);
  order.clear();
  s.req_cons = 1;
  s.rsp_prod = 1;
  ex.RunFor(Millis(2));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "pub:9/dev2=healthy");
  EXPECT_EQ(order[1], "b:9/dev2 degraded->healthy");
  EXPECT_EQ(hm.subscriber_count(), 2);
}

}  // namespace
}  // namespace kite
