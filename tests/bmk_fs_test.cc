// Tests for the BMK scheduler (cancellation safety, cooperative semantics)
// and SimpleFs (allocation invariants, extent reuse, randomized property
// checks).
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/bmk/sched.h"
#include "src/core/kite.h"
#include "src/workloads/fs.h"

namespace kite {
namespace {

// --- BmkSched. ---

Task SleeperThread(BmkSched* sched, int* wakes) {
  for (;;) {
    co_await sched->Sleep(Millis(1));
    ++*wakes;
  }
}

TEST(BmkSchedTest, SleepLoopRuns) {
  Executor ex;
  Vcpu cpu(&ex);
  BmkSched sched(&ex, &cpu);
  int wakes = 0;
  sched.Spawn([&] { return SleeperThread(&sched, &wakes); });
  ex.RunFor(Millis(10));
  EXPECT_GE(wakes, 9);
  EXPECT_EQ(sched.thread_count(), 1);
}

TEST(BmkSchedTest, DestructionCancelsParkedTimers) {
  Executor ex;
  Vcpu cpu(&ex);
  int wakes = 0;
  {
    BmkSched sched(&ex, &cpu);
    sched.Spawn([&] { return SleeperThread(&sched, &wakes); });
    ex.RunFor(Millis(3));
    EXPECT_GT(sched.parked_threads(), 0u);
  }  // Scheduler destroyed with a thread parked on a timer.
  ex.RunFor(Millis(10));  // Pending executor events must be harmless no-ops.
  EXPECT_LE(wakes, 4);
}

// Sleeps through each of `naps`, counting every wake, then parks for a
// second.
Task Napper(BmkSched* sched, std::vector<SimDuration> naps, int* wakes) {
  for (SimDuration nap : naps) {
    co_await sched->Sleep(nap);
    ++*wakes;
  }
  co_await sched->Sleep(Seconds(1));
  ++*wakes;
}

TEST(BmkSchedTest, DestructionCancelsThreadsParkedOutOfOrder) {
  Executor ex;
  Vcpu cpu(&ex);
  int wakes = 0;
  {
    BmkSched sched(&ex, &cpu);
    // The newest park heads the list: c (3 ms), b (1 ms), a (2 ms).
    sched.Spawn([&] { return Napper(&sched, {Millis(2)}, &wakes); });
    sched.Spawn([&] { return Napper(&sched, {Millis(1), Micros(500)}, &wakes); });
    sched.Spawn([&] { return Napper(&sched, {Millis(3)}, &wakes); });
    EXPECT_EQ(sched.parked_threads(), 3u);
    // b wakes first, from the middle of the list, and parks again at its
    // head; its second wake takes it off the head.
    ex.RunFor(Micros(1250));
    EXPECT_EQ(wakes, 1);
    EXPECT_EQ(sched.parked_threads(), 3u);
    ex.RunFor(Micros(500));
    EXPECT_EQ(wakes, 2);
    EXPECT_EQ(sched.parked_threads(), 3u);
    // a and c wake from the tail, each behind a relinked neighbour.
    ex.RunFor(Micros(1750));
    EXPECT_EQ(wakes, 4);
    // Torn down with b (1.0015 s), a (1.002 s) and c (1.003 s) parked.
    EXPECT_EQ(sched.parked_threads(), 3u);
  }
  ex.RunFor(Seconds(2));  // Their wake events must be harmless no-ops.
  EXPECT_EQ(wakes, 4);
}

Task CpuHog(BmkSched* sched, int* iterations, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sched->Run(Micros(100));
    ++*iterations;
  }
}

TEST(BmkSchedTest, RunSerializesOnVcpu) {
  Executor ex;
  Vcpu cpu(&ex);
  BmkSched sched(&ex, &cpu);
  int a = 0;
  int b = 0;
  sched.Spawn([&] { return CpuHog(&sched, &a, 10); });
  sched.Spawn([&] { return CpuHog(&sched, &b, 10); });
  ex.RunUntilIdle();
  EXPECT_EQ(a, 10);
  EXPECT_EQ(b, 10);
  // Total CPU time = 20 * 100 us, serialized.
  EXPECT_EQ(cpu.busy_total().ns(), Micros(2000).ns());
  EXPECT_EQ(ex.Now().ns(), Micros(2000).ns());
}

Task Yielder(BmkSched* sched, std::vector<int>* order, int id, int n) {
  for (int i = 0; i < n; ++i) {
    order->push_back(id);
    co_await sched->Yield();
  }
}

TEST(BmkSchedTest, YieldInterleavesCooperatively) {
  Executor ex;
  Vcpu cpu(&ex);
  BmkSched sched(&ex, &cpu);
  std::vector<int> order;
  sched.Spawn([&] { return Yielder(&sched, &order, 1, 3); });
  sched.Spawn([&] { return Yielder(&sched, &order, 2, 3); });
  ex.RunUntilIdle();
  ASSERT_EQ(order.size(), 6u);
  // Eager starts: 1, 2, then strict alternation.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
  EXPECT_GE(sched.yield_count(), 6u);
}

// --- SimpleFs properties. ---

class FsTest : public ::testing::Test {
 protected:
  FsTest() {
    KiteSystem::Params params;
    params.disk.capacity_bytes = 1LL * 1024 * 1024 * 1024;
    sys_ = std::make_unique<KiteSystem>(params);
    stordom_ = sys_->CreateStorageDomain();
    guest_ = sys_->CreateGuest("g");
    sys_->AttachVbd(guest_, stordom_);
    EXPECT_TRUE(sys_->WaitConnected(guest_));
    fs_ = std::make_unique<SimpleFs>(guest_->blkfront());
  }

  std::unique_ptr<KiteSystem> sys_;
  StorageDomain* stordom_ = nullptr;
  GuestVm* guest_ = nullptr;
  std::unique_ptr<SimpleFs> fs_;
};

TEST_F(FsTest, CreateDeleteRestoresFreeSpace) {
  const int64_t before = fs_->free_bytes();
  ASSERT_TRUE(fs_->Create("a", 10 * 1024 * 1024));
  EXPECT_EQ(fs_->free_bytes(), before - 10 * 1024 * 1024);
  ASSERT_TRUE(fs_->Delete("a"));
  EXPECT_EQ(fs_->free_bytes(), before);
}

TEST_F(FsTest, CreateRejectsDuplicatesAndOversize) {
  ASSERT_TRUE(fs_->Create("dup", 4096));
  EXPECT_FALSE(fs_->Create("dup", 4096));
  EXPECT_FALSE(fs_->Create("huge", fs_->free_bytes() + 4096));
  // Failed allocation must not leak space.
  EXPECT_TRUE(fs_->Create("ok", fs_->free_bytes()));
}

TEST_F(FsTest, ReadBeyondEofFails) {
  ASSERT_TRUE(fs_->Create("f", 8192));
  bool result = true;
  fs_->Read("f", 8192, 4096, [&](bool ok) { result = ok; });
  sys_->RunUntilIdle();
  EXPECT_FALSE(result);
  bool write_result = true;
  fs_->Write("f", 4096, 8192, [&](bool ok) { write_result = ok; });
  sys_->RunUntilIdle();
  EXPECT_FALSE(write_result);
}

TEST_F(FsTest, OpsOnMissingFileFail) {
  bool ok = true;
  fs_->Read("ghost", 0, 512, [&](bool r) { ok = r; });
  sys_->RunUntilIdle();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(fs_->Delete("ghost"));
  EXPECT_FALSE(fs_->Stat("ghost"));
  EXPECT_EQ(fs_->FileSize("ghost"), -1);
}

TEST_F(FsTest, AppendGrowsAcrossFragmentedSpace) {
  // Fragment free space with alternating files.
  ASSERT_TRUE(fs_->CreateMany("frag.", 16, 4 * 1024 * 1024));
  for (int i = 0; i < 16; i += 2) {
    ASSERT_TRUE(fs_->Delete(StrFormat("frag.%06d", i)));
  }
  ASSERT_TRUE(fs_->Create("grow", 1024 * 1024));
  int appended = 0;
  for (int i = 0; i < 8; ++i) {
    fs_->Append("grow", 3 * 1024 * 1024, [&](bool ok) { appended += ok; });
  }
  sys_->RunUntilIdle();
  EXPECT_EQ(appended, 8);
  EXPECT_EQ(fs_->FileSize("grow"), 1024 * 1024 + 8LL * 3 * 1024 * 1024);
}

TEST_F(FsTest, RandomizedCreateDeleteConservesSpace) {
  Rng rng(42);
  const int64_t initial_free = fs_->free_bytes();
  std::map<std::string, int64_t> live;
  int64_t live_bytes = 0;
  for (int op = 0; op < 500; ++op) {
    if (live.empty() || rng.NextBool(0.6)) {
      const std::string name = StrFormat("r%04d", op);
      const int64_t size =
          static_cast<int64_t>(rng.NextInRange(1, 256)) * kSectorSize;
      if (fs_->Create(name, size)) {
        live[name] = size;
        live_bytes += size;
      }
    } else {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      ASSERT_TRUE(fs_->Delete(it->first));
      live_bytes -= it->second;
      live.erase(it);
    }
    ASSERT_EQ(fs_->free_bytes(), initial_free - live_bytes) << "op " << op;
  }
  for (const auto& [name, size] : live) {
    ASSERT_TRUE(fs_->Delete(name));
  }
  EXPECT_EQ(fs_->free_bytes(), initial_free);
  sys_->RunUntilIdle();  // Drain journal writes.
}

TEST_F(FsTest, MetadataJournalWritesOnNamespaceChanges) {
  const uint64_t before = fs_->metadata_writes();
  fs_->Create("j1", 4096);
  fs_->Delete("j1");
  EXPECT_EQ(fs_->metadata_writes(), before + 2);
  fs_->SetJournalEnabled(false);
  fs_->Create("j2", 4096);
  EXPECT_EQ(fs_->metadata_writes(), before + 2);
  sys_->RunUntilIdle();
}

TEST_F(FsTest, ConcurrentMixedOpsAllComplete) {
  ASSERT_TRUE(fs_->CreateMany("c.", 8, 1024 * 1024));
  Rng rng(7);
  int completed = 0;
  const int kOps = 300;
  for (int i = 0; i < kOps; ++i) {
    const std::string f = StrFormat("c.%06d", static_cast<int>(rng.NextBelow(8)));
    const int64_t offset =
        static_cast<int64_t>(rng.NextBelow(128)) * kSectorSize;
    if (rng.NextBool(0.5)) {
      fs_->Read(f, offset, 16 * 1024, [&](bool) { ++completed; });
    } else {
      fs_->Write(f, offset, 16 * 1024, [&](bool) { ++completed; });
    }
  }
  ASSERT_TRUE(sys_->WaitUntil([&] { return completed == kOps; }, Seconds(30)));
}

}  // namespace
}  // namespace kite
