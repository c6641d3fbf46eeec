// CPU attribution (DESIGN.md §16): category interning and scoping, exact
// per-category ledgers under vCPU contention, the run-queue wait histogram,
// and the end-to-end promises that enabling attribution never perturbs a
// shuffled schedule and that CpuReportJson is byte-deterministic per seed.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/bmk/sched.h"
#include "src/core/kite.h"
#include "src/obs/cpuattr.h"
#include "src/sim/cpu.h"
#include "src/sim/executor.h"
#include "src/sim/task.h"

namespace kite {
namespace {

// --- Category registry and scoping. ---------------------------------------

TEST(CpuCategoryTest, InterningIsIdempotent) {
  const CpuCategory* a = KITE_CPU_CATEGORY("test/interned");
  const CpuCategory* b = KITE_CPU_CATEGORY("test/interned");
  // Same literal → same function-local static → same interned entry.
  EXPECT_EQ(a, b);
  EXPECT_STREQ(CpuCategoryLabel(a->index), "test/interned");
  // Registering through the function directly also dedupes by content.
  EXPECT_EQ(RegisterCpuCategory("test/interned"), a);
  EXPECT_GE(CpuCategoryCount(), 2u);  // At least the builtin + this one.
  EXPECT_STREQ(CpuCategoryLabel(kCpuUnattributedIndex), "(unattributed)");
  EXPECT_STREQ(CpuCategoryLabel(1u << 30), "?");
}

TEST(CpuScopeTest, NestedScopesInnermostWinsAndRestores) {
  const CpuCategory* outer = KITE_CPU_CATEGORY("test/outer");
  const CpuCategory* inner = KITE_CPU_CATEGORY("test/inner");
  EXPECT_EQ(CurrentCpuCategory(), kCpuUnattributedIndex);
  {
    CpuScope a(outer);
    EXPECT_EQ(CurrentCpuCategory(), outer->index);
    {
      CpuScope b(inner);
      EXPECT_EQ(CurrentCpuCategory(), inner->index);
    }
    EXPECT_EQ(CurrentCpuCategory(), outer->index);
  }
  EXPECT_EQ(CurrentCpuCategory(), kCpuUnattributedIndex);
}

// --- Exact ledger sums under contention. ----------------------------------

// A BMK worker thread: `slices` charges of `cost` each, credited to
// `category`. A free coroutine function (not a coroutine lambda) so its
// parameters are copied into the frame — the repo-wide Spawn idiom.
Task Worker(BmkSched* sched, const CpuCategory* category, SimDuration cost,
            int slices) {
  for (int i = 0; i < slices; ++i) {
    co_await sched->Run(cost, category);
  }
}

Task Yielder(BmkSched* sched, SimTime* resumed_at) {
  co_await sched->Yield();
  *resumed_at = sched->executor()->Now();
}

// Two cooperative BMK threads share one vCPU. Every nanosecond each thread
// runs must land in that thread's category, the cross-category sum must
// equal busy_total(), and nothing may leak into (unattributed).
TEST(CpuAttributionTest, ExactPerCategorySumsUnderContention) {
  Executor ex;
  Vcpu cpu(&ex);
  cpu.EnableAttribution();
  ASSERT_TRUE(cpu.attribution_enabled());
  BmkSched sched(&ex, &cpu);

  const CpuCategory* cat_a = KITE_CPU_CATEGORY("test/contend-a");
  const CpuCategory* cat_b = KITE_CPU_CATEGORY("test/contend-b");
  sched.Spawn([&] { return Worker(&sched, cat_a, Nanos(100), 3); });
  sched.Spawn([&] { return Worker(&sched, cat_b, Nanos(250), 2); });
  ex.RunUntilIdle();

  EXPECT_EQ(cpu.attributed_busy(cat_a->index), Nanos(300));
  EXPECT_EQ(cpu.attributed_busy(cat_b->index), Nanos(500));
  EXPECT_EQ(cpu.attributed_busy(kCpuUnattributedIndex), Nanos(0));
  EXPECT_EQ(cpu.busy_total(), Nanos(800));
  // The single busy horizon serialized all 800ns of work.
  EXPECT_EQ(cpu.free_at(), SimTime() + Nanos(800));
  // Five charges → five wait samples; everything after the first waited.
  EXPECT_EQ(cpu.ledger()->wait_hist.count(), 5u);
}

TEST(CpuAttributionTest, EnableMidRunPreservesBusyTotal) {
  Executor ex;
  Vcpu cpu(&ex);
  cpu.Charge(Nanos(400));  // Pre-enable: plain busy_total_ accumulation.
  EXPECT_FALSE(cpu.attribution_enabled());
  EXPECT_EQ(cpu.ledger(), nullptr);
  EXPECT_EQ(cpu.attributed_busy(kCpuUnattributedIndex), Nanos(0));

  cpu.EnableAttribution();
  cpu.EnableAttribution();  // Idempotent.
  {
    CpuScope scope(KITE_CPU_CATEGORY("test/mid-run"));
    cpu.Charge(Nanos(100));
  }
  // busy_total() = pre-enable baseline + ledger-derived total.
  EXPECT_EQ(cpu.busy_total(), Nanos(500));
  EXPECT_EQ(cpu.attributed_busy(KITE_CPU_CATEGORY("test/mid-run")->index),
            Nanos(100));
}

// --- Zero-cost charges (Yield) and the wait histogram. --------------------

TEST(CpuAttributionTest, YieldChargesNothingButRecordsWait) {
  Executor ex;
  Vcpu cpu(&ex);
  cpu.EnableAttribution();
  BmkSched sched(&ex, &cpu);

  const CpuCategory* busy_cat = KITE_CPU_CATEGORY("test/yield-busy");
  SimTime resumed_at;
  sched.Spawn([&] { return Worker(&sched, busy_cat, Nanos(100), 1); });
  // The yield queues behind the worker's 100ns charged at t=0.
  sched.Spawn([&] { return Yielder(&sched, &resumed_at); });
  ex.RunUntilIdle();

  EXPECT_EQ(sched.yield_count(), 1u);
  // Yield consumed no CPU but waited out the pending work.
  EXPECT_EQ(cpu.attributed_busy(KITE_CPU_CATEGORY("sched/yield")->index),
            Nanos(0));
  EXPECT_EQ(cpu.busy_total(), Nanos(100));
  EXPECT_EQ(resumed_at, SimTime() + Nanos(100));
  const LatencyHistogram& hist = cpu.ledger()->wait_hist;
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.max(), 100u);  // The yielder's queue wait.
}

// Pinned two-charge contention: the first request runs immediately (zero
// wait), the second queues behind it for exactly the first's cost. Costs are
// < 64ns, where the histogram's buckets are exact (one value per bucket), so
// every percentile is pinned, not approximate.
TEST(CpuWaitHistogramTest, TwoThreadPinnedWaits) {
  Executor ex;
  Vcpu cpu(&ex);
  cpu.EnableAttribution();

  EXPECT_EQ(cpu.Charge(Nanos(48)), SimTime() + Nanos(48));  // Wait 0.
  EXPECT_EQ(cpu.Charge(Nanos(16)), SimTime() + Nanos(64));  // Wait 48.

  const LatencyHistogram& hist = cpu.ledger()->wait_hist;
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.sum(), 48u);  // The zero wait adds nothing.
  EXPECT_EQ(hist.max(), 48u);
  EXPECT_EQ(hist.Percentile(50), 0u);   // Rank 1 of 2: the zero wait.
  EXPECT_EQ(hist.Percentile(99), 48u);  // Rank 2 of 2: the queued charge.
  EXPECT_EQ(hist.Percentile(100), 48u);
}

TEST(CpuWaitHistogramTest, EmptyAndAllZeroHistograms) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(99), 0u);
  for (int i = 0; i < 10; ++i) {
    hist.Record(0);
  }
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.Percentile(100), 0u);  // Bucket 0 holds all.
}

// --- End-to-end: no perturbation, deterministic reports. ------------------

struct AttributedRun {
  std::string metrics_table;
  std::vector<int64_t> rtts_ns;
  int64_t end_ns = 0;
  std::string cpu_report;
  std::string diagnostics;
};

AttributedRun RunShuffledPings(bool attribution, uint64_t seed) {
  KiteSystem sys;
  if (attribution) {
    sys.EnableCpuAttribution();
  }
  sys.EnableScheduleShuffle(seed);
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("cpuattr-guest");
  sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  EXPECT_TRUE(sys.WaitConnected(guest));
  AttributedRun run;
  for (int i = 0; i < 10; ++i) {
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
  run.cpu_report = sys.CpuReportJson();
  std::ostringstream dump;
  sys.DumpDiagnostics(dump);
  run.diagnostics = dump.str();
  return run;
}

// The accounting-only promise: attribution consults the ambient category and
// writes ledgers, but never changes Charge's timing result — the shuffled
// schedule, every RTT, and the full metrics table must match a run with
// attribution compiled in but disabled.
TEST(CpuPerturbationTest, AttributionOnMatchesOffExactly) {
  const AttributedRun off = RunShuffledPings(false, /*seed=*/7);
  const AttributedRun on = RunShuffledPings(true, /*seed=*/7);
  EXPECT_EQ(off.rtts_ns, on.rtts_ns);
  EXPECT_EQ(off.end_ns, on.end_ns);
  EXPECT_EQ(off.metrics_table, on.metrics_table);
}

TEST(CpuReportTest, SameSeedReportIsByteIdentical) {
  const AttributedRun a = RunShuffledPings(true, /*seed=*/11);
  const AttributedRun b = RunShuffledPings(true, /*seed=*/11);
  EXPECT_EQ(a.cpu_report, b.cpu_report);
  ASSERT_FALSE(a.cpu_report.empty());
  // Shape: actors with categories and wait stats, raw util.
  EXPECT_NE(a.cpu_report.find("\"actors\":"), std::string::npos);
  EXPECT_NE(a.cpu_report.find("\"categories\":"), std::string::npos);
  EXPECT_NE(a.cpu_report.find("\"wait\":"), std::string::npos);
  EXPECT_NE(a.cpu_report.find("\"hv/irq_dispatch\""), std::string::npos);
}

TEST(CpuReportTest, DiagnosticsDumpCarriesCpuSection) {
  const AttributedRun on = RunShuffledPings(true, /*seed=*/3);
  EXPECT_NE(on.diagnostics.find("---- cpu ----"), std::string::npos);
  EXPECT_NE(on.diagnostics.find("kite-netdom/vcpu0"), std::string::npos);
  // Disabled runs still print the section, flagged per actor.
  const AttributedRun off = RunShuffledPings(false, /*seed=*/3);
  EXPECT_NE(off.diagnostics.find("---- cpu ----"), std::string::npos);
  EXPECT_NE(off.diagnostics.find("(attribution off)"), std::string::npos);
}

}  // namespace
}  // namespace kite
