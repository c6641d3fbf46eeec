// Deterministic simulation testing (src/check): schedule-shuffle determinism
// regression, whole-system invariant checking across lifecycle scenarios,
// protocol-fuzzer sessions, and the explore harness itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/check/explore.h"
#include "src/check/frontends.h"
#include "src/check/fuzz.h"
#include "src/core/invariants.h"
#include "src/workloads/netbench.h"

namespace kite {
namespace {

// Runs the fig06-style UDP workload (client → guest through the network
// driver domain) under a shuffle seed and returns the full metric table plus
// the executor step count — the two fingerprints determinism is judged by.
struct RunFingerprint {
  std::string metrics;
  uint64_t steps = 0;
  std::vector<Violation> violations;
};

RunFingerprint RunFig06Style(uint64_t seed, bool shuffle = true) {
  KiteSystem sys;
  if (shuffle) {
    sys.EnableScheduleShuffle(seed);
  }
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("fig06-guest");
  sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  EXPECT_TRUE(sys.WaitConnected(guest));
  NuttcpConfig cfg;
  cfg.offered_gbps = 2.0;
  cfg.datagram_bytes = 1472;
  cfg.duration = Millis(20);
  NuttcpUdp nut(sys.client()->stack(), guest->stack(), guest->ip(), cfg);
  bool done = false;
  nut.Run([&done](const NuttcpResult&) { done = true; });
  EXPECT_TRUE(sys.WaitUntil([&] { return done; }));
  sys.RunUntilIdle();
  RunFingerprint fp;
  fp.metrics = sys.FormatMetrics();
  fp.steps = sys.executor().steps_executed();
  fp.violations = InvariantChecker(&sys).Check();
  return fp;
}

TEST(DeterminismRegressionTest, SameSeedSameScheduleByteIdentical) {
  const RunFingerprint a = RunFig06Style(42);
  const RunFingerprint b = RunFig06Style(42);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_TRUE(a.violations.empty()) << InvariantChecker::Format(a.violations);
}

TEST(DeterminismRegressionTest, ShuffleOffRunsAreByteIdentical) {
  // With shuffle off the executor's tie key degenerates to the post sequence
  // number, so two runs must agree to the byte — this is the contract the
  // timer-wheel engine has to preserve for seed benches to reproduce.
  const RunFingerprint a = RunFig06Style(0, /*shuffle=*/false);
  const RunFingerprint b = RunFig06Style(0, /*shuffle=*/false);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_TRUE(a.violations.empty()) << InvariantChecker::Format(a.violations);

  // CI determinism guard: when KITE_CHECK_METRICS_OUT is set, dump the run
  // fingerprints so two separate check_test invocations can be byte-diffed.
  if (const char* path = std::getenv("KITE_CHECK_METRICS_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "plain steps=%llu\n%s\n", static_cast<unsigned long long>(a.steps),
                 a.metrics.c_str());
    const RunFingerprint s = RunFig06Style(42);
    std::fprintf(f, "shuffle42 steps=%llu\n%s\n",
                 static_cast<unsigned long long>(s.steps), s.metrics.c_str());
    std::fclose(f);
  }
}

TEST(DeterminismRegressionTest, DifferentSeedStillPassesInvariants) {
  const RunFingerprint c = RunFig06Style(43);
  EXPECT_TRUE(c.violations.empty()) << InvariantChecker::Format(c.violations);
  EXPECT_GT(c.steps, 0u);
}

// --- Invariant checker across lifecycle scenarios. ---

TEST(InvariantCheckerTest, CleanSystemPassesAllAudits) {
  KiteSystem sys;
  sys.CreateNetworkDomain();
  sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVif(guest, sys.network_domains()[0].get(), Ipv4Addr::FromOctets(10, 0, 0, 10));
  sys.AttachVbd(guest, sys.storage_domains()[0].get());
  ASSERT_TRUE(sys.WaitConnected(guest));
  sys.RunUntilIdle();
  const auto violations = InvariantChecker(&sys).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

TEST(InvariantCheckerTest, ReportsNonQuiescedSystem) {
  KiteSystem sys;
  sys.executor().PostAfter(Seconds(5), [] {});
  const auto violations = InvariantChecker(&sys).Check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "not-quiesced");
  EXPECT_NE(InvariantChecker::Format(violations).find("not-quiesced"),
            std::string::npos);
}

TEST(InvariantCheckerTest, HoldsAfterGuestDeath) {
  KiteSystem sys;
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("doomed");
  sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  sys.AttachVbd(guest, stordom);
  ASSERT_TRUE(sys.WaitConnected(guest));
  // In-flight I/O when the guest dies: the backends must reap cleanly.
  guest->blkfront()->Write(0, Buffer(4096, 0x5a), [](bool) {});
  sys.RunFor(Millis(1));
  sys.DestroyGuest(guest);
  sys.RunUntilIdle();
  const auto violations = InvariantChecker(&sys).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

// More guests die than the flight recorder keeps dead rings for: their
// registry rows fold away and their oldest rings are evicted, so neither
// the registry-orphan nor the recorder-rings audit fires.
TEST(InvariantCheckerTest, HoldsAfterManyGuestDeaths) {
  KiteSystem sys;
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  for (size_t i = 0; i < FlightRecorder::kDeadRings + 4; ++i) {
    GuestVm* guest = sys.CreateGuest("doomed-" + std::to_string(i));
    sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
    sys.AttachVbd(guest, stordom);
    ASSERT_TRUE(sys.WaitConnected(guest));
    guest->blkfront()->Write(0, Buffer(4096, 0x5a), [](bool) {});
    sys.RunFor(Millis(1));
    sys.DestroyGuest(guest);
  }
  sys.RunUntilIdle();
  const auto violations = InvariantChecker(&sys).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

TEST(InvariantCheckerTest, HoldsAfterDriverDomainRestarts) {
  KiteSystem sys;
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVif(guest, netdom, Ipv4Addr::FromOctets(10, 0, 0, 10));
  sys.AttachVbd(guest, stordom);
  ASSERT_TRUE(sys.WaitConnected(guest));
  int io_done = 0;
  guest->blkfront()->Write(0, Buffer(4096, 0x11), [&](bool) { ++io_done; });
  ASSERT_TRUE(sys.WaitUntil([&] { return io_done == 1; }));

  netdom = sys.RestartNetworkDomain(netdom);
  stordom = sys.RestartStorageDomain(stordom);
  ASSERT_TRUE(sys.WaitConnected(guest, Seconds(30)));
  guest->blkfront()->Read(0, 4096, nullptr, [&](bool) { ++io_done; });
  ASSERT_TRUE(sys.WaitUntil([&] { return io_done == 2; }, Seconds(30)));
  sys.RunUntilIdle();
  const auto violations = InvariantChecker(&sys).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

// --- Protocol fuzzer sessions. ---

TEST(ProtocolFuzzerTest, SameSeedSameMutationStream) {
  ProtocolFuzzer a(5), b(5);
  NetTxRequest valid;
  valid.gref = 1;
  valid.id = 0;
  valid.offset = 0;
  valid.size = 64;
  for (int i = 0; i < 200; ++i) {
    const NetTxRequest ra = a.MutateNetTx(valid);
    const NetTxRequest rb = b.MutateNetTx(valid);
    EXPECT_EQ(ra.gref, rb.gref);
    EXPECT_EQ(ra.offset, rb.offset);
    EXPECT_EQ(ra.size, rb.size);
  }
}

TEST(ProtocolFuzzerTest, FuzzSessionLeavesSystemCoherent) {
  KiteSystem sys;
  sys.EnableScheduleShuffle(11);
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  StorageDomain* stordom = sys.CreateStorageDomain();
  GuestVm* net_guest = sys.CreateGuest("fuzz-net");
  GuestVm* blk_guest = sys.CreateGuest("fuzz-blk");
  RawNetFrontend raw_net(&sys, netdom, net_guest);
  RawBlkFrontend raw_blk(&sys, stordom, blk_guest);
  ASSERT_TRUE(raw_net.Connect());
  ASSERT_TRUE(raw_blk.Connect());

  ProtocolFuzzer fuzz(11);
  for (int i = 0; i < 64; ++i) {
    raw_net.SendTx(fuzz.MutateNetTx(raw_net.ValidTx(static_cast<uint16_t>(i))));
    if (i % 8 == 7) {
      sys.RunFor(Millis(5));
      raw_net.DrainTxResponses();
    }
  }
  for (int i = 0; i < 24; ++i) {
    raw_blk.SendBlk(
        fuzz.MutateBlk(raw_blk.ValidRead(static_cast<uint64_t>(i)), raw_blk.capacity_sectors()));
    if (i % 4 == 3) {
      sys.RunFor(Millis(20));
      raw_blk.DrainResponses();
    }
  }
  sys.RunFor(Millis(300));
  raw_net.DrainTxResponses();
  raw_blk.DrainResponses();

  // Both backends still answer a well-formed request after the burst.
  ASSERT_TRUE(raw_net.SendTx(raw_net.ValidTx(500)));
  ASSERT_TRUE(raw_blk.SendBlk(raw_blk.ValidRead(500)));
  sys.RunFor(Millis(200));
  EXPECT_FALSE(raw_net.DrainTxResponses().empty());
  EXPECT_FALSE(raw_blk.DrainResponses().empty());

  sys.DestroyGuest(net_guest);
  sys.DestroyGuest(blk_guest);
  sys.RunUntilIdle();
  const auto violations = InvariantChecker(&sys).Check();
  EXPECT_TRUE(violations.empty()) << InvariantChecker::Format(violations);
}

// --- The explore harness itself. ---

TEST(ExploreHarnessTest, SingleSeedRunsCleanAndReportsOk) {
  ExploreOptions opts;
  opts.seed = 3;
  const ExploreReport report = RunExploreSeed(opts);
  EXPECT_TRUE(report.ok) << FormatReport(report);
  EXPECT_EQ(report.phase, "check");
  EXPECT_NE(FormatReport(report).find("seed 3: ok"), std::string::npos);
}

TEST(ExploreHarnessTest, FailureReportContainsReplayCommand) {
  ExploreReport report;
  report.seed = 17;
  report.ok = false;
  report.phase = "recover";
  report.violations.push_back({"grant-ledger", "maps 3, resolved 2"});
  const std::string out = FormatReport(report);
  EXPECT_NE(out.find("kite_explore --seed=17"), std::string::npos) << out;
  EXPECT_NE(out.find("grant-ledger"), std::string::npos);
  EXPECT_NE(out.find("recover"), std::string::npos);
}

}  // namespace
}  // namespace kite
