// Unit tests for the discrete-event executor, coroutine tasks on the BMK
// scheduler, wake flags, and the vCPU cost model.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/bmk/sched.h"
#include "src/sim/cpu.h"
#include "src/sim/executor.h"
#include "src/sim/task.h"

namespace kite {
namespace {

TEST(ExecutorTest, EventsFireInTimeOrder) {
  Executor ex;
  std::vector<int> order;
  ex.PostAfter(Micros(30), [&] { order.push_back(3); });
  ex.PostAfter(Micros(10), [&] { order.push_back(1); });
  ex.PostAfter(Micros(20), [&] { order.push_back(2); });
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.Now(), SimTime(Micros(30).ns()));
}

TEST(ExecutorTest, SameTimeFifo) {
  Executor ex;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    ex.PostAfter(Micros(5), [&order, i] { order.push_back(i); });
  }
  ex.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ExecutorTest, RunUntilAdvancesToDeadline) {
  Executor ex;
  int fired = 0;
  ex.PostAfter(Millis(5), [&] { ++fired; });
  ex.PostAfter(Millis(50), [&] { ++fired; });
  ex.RunFor(Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ex.Now().ns(), Millis(10).ns());
  ex.RunFor(Millis(100));
  EXPECT_EQ(fired, 2);
}

TEST(ExecutorTest, HandlerMayPostMoreEvents) {
  Executor ex;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      ex.PostAfter(Micros(1), chain);
    }
  };
  ex.Post(chain);
  ex.RunUntilIdle();
  EXPECT_EQ(count, 5);
}

TEST(ExecutorTest, PastTimesClampToNow) {
  Executor ex;
  ex.PostAfter(Millis(1), [] {});
  ex.RunUntilIdle();
  bool ran = false;
  ex.PostAt(SimTime(0), [&] { ran = true; });  // In the past.
  ex.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(ex.Now().ns(), Millis(1).ns());
}

Task CountingTask(BmkSched* sched, int* counter, SimDuration step, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sched->Sleep(step);
    ++*counter;
  }
}

TEST(TaskTest, SleepLoopAdvancesClock) {
  Executor ex;
  Vcpu cpu(&ex);
  BmkSched sched(&ex, &cpu);
  int counter = 0;
  CountingTask(&sched, &counter, Micros(10), 5);
  EXPECT_EQ(counter, 0);  // Eager start suspends at first sleep.
  ex.RunUntilIdle();
  EXPECT_EQ(counter, 5);
  EXPECT_EQ(ex.Now().ns(), Micros(50).ns());
}

Task FlagConsumer(WakeFlag* flag, int* processed) {
  for (;;) {
    co_await flag->Wait();
    ++*processed;
  }
}

TEST(WakeFlagTest, SignalBeforeWaitIsNotLost) {
  Executor ex;
  Vcpu cpu(&ex);
  BmkSched sched(&ex, &cpu);
  WakeFlag flag(&sched);
  flag.Signal();  // Signal before any waiter exists.
  int processed = 0;
  FlagConsumer(&flag, &processed);
  ex.RunUntilIdle();
  EXPECT_EQ(processed, 1);  // await_ready consumed the pre-set flag.
}

TEST(WakeFlagTest, SignalCoalesces) {
  Executor ex;
  Vcpu cpu(&ex);
  BmkSched sched(&ex, &cpu);
  WakeFlag flag(&sched);
  int processed = 0;
  FlagConsumer(&flag, &processed);
  flag.Signal();
  flag.Signal();
  flag.Signal();
  ex.RunUntilIdle();
  // Multiple signals while the consumer is runnable coalesce into one wake
  // (plus at most one flagged re-check).
  EXPECT_GE(processed, 1);
  EXPECT_LE(processed, 2);
}

// Counts a flag consumer's wakes; `*reclaimed` counts its frame's
// destruction, which only its scheduler may do while it is parked.
struct FrameGuard {
  int* reclaimed;
  ~FrameGuard() { ++*reclaimed; }
};

Task GuardedConsumer(WakeFlag* flag, int* processed, int* reclaimed) {
  FrameGuard guard{reclaimed};
  for (;;) {
    co_await flag->Wait();
    ++*processed;
  }
}

TEST(WakeFlagTest, ParkedWaiterIsReclaimedAtTeardownAndNeverResumed) {
  Executor ex;
  Vcpu cpu(&ex);
  int processed = 0;
  int reclaimed = 0;
  {
    BmkSched sched(&ex, &cpu);
    {
      WakeFlag flag(&sched);
      GuardedConsumer(&flag, &processed, &reclaimed);
      EXPECT_EQ(sched.parked_threads(), 1u);
    }  // The flag dies with its waiter parked: the waiter stays parked.
    ex.RunUntilIdle();
    EXPECT_EQ(processed, 0);
    EXPECT_EQ(reclaimed, 0);
    EXPECT_EQ(sched.parked_threads(), 1u);
  }  // The scheduler reclaims the frame.
  EXPECT_EQ(reclaimed, 1);
  EXPECT_EQ(processed, 0);
}

TEST(WakeFlagTest, FlagDestroyedWithItsWakeQueuedNeverResumesItsWaiter) {
  Executor ex;
  Vcpu cpu(&ex);
  int processed = 0;
  int reclaimed = 0;
  {
    BmkSched sched(&ex, &cpu);
    {
      WakeFlag flag(&sched);
      GuardedConsumer(&flag, &processed, &reclaimed);
      flag.Signal();
      EXPECT_EQ(ex.queue_size(), 1u);  // The wake is queued...
    }  // ...when the flag dies.
    ex.RunUntilIdle();  // The wake fires and finds its waiter abandoned.
    EXPECT_EQ(processed, 0);
    EXPECT_EQ(reclaimed, 0);
  }
  EXPECT_EQ(reclaimed, 1);
  EXPECT_EQ(processed, 0);
}

TEST(WakeFlagTest, FlagOutlivingItsSchedulerStaysSafe) {
  Executor ex;
  Vcpu cpu(&ex);
  int processed = 0;
  int reclaimed = 0;
  auto sched = std::make_unique<BmkSched>(&ex, &cpu);
  WakeFlag flag(sched.get());
  GuardedConsumer(&flag, &processed, &reclaimed);
  sched.reset();  // Reclaims the parked waiter; the flag forgets it.
  EXPECT_EQ(reclaimed, 1);
  flag.Signal();  // No waiter left: nothing is posted.
  EXPECT_TRUE(ex.idle());
  EXPECT_EQ(processed, 0);
}

TEST(VcpuTest, ChargeSerializes) {
  Executor ex;
  Vcpu cpu(&ex);
  SimTime t1 = cpu.Charge(Micros(10));
  SimTime t2 = cpu.Charge(Micros(5));
  EXPECT_EQ(t1.ns(), Micros(10).ns());
  EXPECT_EQ(t2.ns(), Micros(15).ns());
  EXPECT_EQ(cpu.busy_total().ns(), Micros(15).ns());
}

Task CpuWorker(BmkSched* sched, SimDuration cost, int n, std::vector<int64_t>* completions,
               Executor* ex) {
  for (int i = 0; i < n; ++i) {
    co_await sched->Run(cost);
    completions->push_back(ex->Now().ns());
  }
}

TEST(VcpuTest, RunQueuesBehindOtherWork) {
  Executor ex;
  Vcpu cpu(&ex);
  BmkSched sched(&ex, &cpu);
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  CpuWorker(&sched, Micros(10), 2, &a, &ex);
  CpuWorker(&sched, Micros(10), 2, &b, &ex);
  ex.RunUntilIdle();
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  // Interleaved FIFO: a0 at 10, b0 at 20, a1 at 30, b1 at 40.
  EXPECT_EQ(a[0], Micros(10).ns());
  EXPECT_EQ(b[0], Micros(20).ns());
  EXPECT_EQ(a[1], Micros(30).ns());
  EXPECT_EQ(b[1], Micros(40).ns());
  EXPECT_EQ(cpu.busy_total().ns(), Micros(40).ns());
}

TEST(VcpuTest, UtilizationWindow) {
  EXPECT_DOUBLE_EQ(Vcpu::Utilization(Micros(0), Micros(50), Micros(100)), 0.5);
  EXPECT_DOUBLE_EQ(Vcpu::Utilization(Micros(10), Micros(10), Micros(100)), 0.0);
  // Raw ratio, not clamped: overcommit (more work queued than the window
  // holds) must stay visible. Renderers clamp for display.
  EXPECT_DOUBLE_EQ(Vcpu::Utilization(Micros(0), Micros(200), Micros(100)), 2.0);
}

TEST(TimeTest, Arithmetic) {
  EXPECT_EQ((Millis(1) + Micros(500)).ns(), 1500000);
  EXPECT_EQ((Seconds(1) / 4).ns(), 250000000);
  EXPECT_EQ(SecondsF(0.5).ns(), 500000000);
  SimTime t(100);
  EXPECT_EQ((t + Nanos(50)).ns(), 150);
  EXPECT_EQ(((t + Nanos(50)) - t).ns(), 50);
  EXPECT_LT(SimTime(1), SimTime(2));
}

// --- Schedule shuffle + pending-queue diagnostics (src/check support). ---

// Records the firing order of 16 same-timestamp events under a shuffle seed.
std::vector<int> ShuffledOrder(uint64_t seed) {
  Executor ex;
  ex.EnableShuffle(seed);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    ex.PostAfter(Micros(5), [&order, i] { order.push_back(i); });
  }
  ex.RunUntilIdle();
  return order;
}

TEST(ExecutorShuffleTest, SameSeedSameTieBreaking) {
  EXPECT_EQ(ShuffledOrder(7), ShuffledOrder(7));
  EXPECT_EQ(ShuffledOrder(1234567), ShuffledOrder(1234567));
}

TEST(ExecutorShuffleTest, ShuffleRandomizesOnlyTies) {
  // Distinct timestamps still fire in time order, whatever the seed does to
  // same-time ties.
  Executor ex;
  ex.EnableShuffle(99);
  std::vector<int> order;
  ex.PostAfter(Micros(30), [&] { order.push_back(3); });
  ex.PostAfter(Micros(10), [&] { order.push_back(1); });
  ex.PostAfter(Micros(20), [&] { order.push_back(2); });
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ExecutorShuffleTest, PostAtNowKeepsFifoUnderShuffle) {
  // Regression: Post() promises FIFO for work queued "now" (the run-loop /
  // softirq idiom). Shuffle must randomize only *timer* ties, or shuffled
  // runs break causality inside a single logical tick.
  Executor ex;
  ex.EnableShuffle(99);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    ex.Post([&order, i] { order.push_back(i); });
  }
  ex.RunUntilIdle();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[i], i);
  }

  // Same contract when a handler fans out at-now work mid-run.
  order.clear();
  ex.PostAfter(Micros(5), [&] {
    for (int i = 0; i < 16; ++i) {
      ex.Post([&order, i] { order.push_back(i); });
    }
  });
  ex.RunUntilIdle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ExecutorShuffleTest, DelayedTiesStillShuffle) {
  // The FIFO carve-out is only for at-now posts: same-timestamp *timer*
  // events must still reorder under some seed, or shuffle lost its power.
  const std::vector<int> fifo{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  bool any_reordered = false;
  for (uint64_t seed = 1; seed <= 8 && !any_reordered; ++seed) {
    any_reordered = ShuffledOrder(seed) != fifo;
  }
  EXPECT_TRUE(any_reordered);
}

// Posts a doomed event whose destruction posts another, `depth` deep — the
// pattern of coroutine frames whose locals re-arm timers from destructors.
void PostDoomed(Executor* ex, int* drops, int depth);

struct PostOnDrop {
  Executor* ex;
  int* drops;
  int depth;
  bool armed = true;
  PostOnDrop(Executor* e, int* d, int n) : ex(e), drops(d), depth(n) {}
  PostOnDrop(PostOnDrop&& o) noexcept : ex(o.ex), drops(o.drops), depth(o.depth) {
    o.armed = false;
  }
  ~PostOnDrop() {
    if (armed) {
      ++*drops;
      if (depth > 0) {
        PostDoomed(ex, drops, depth - 1);
      }
    }
  }
};

void PostDoomed(Executor* ex, int* drops, int depth) {
  ex->PostAfter(Micros(1), [g = PostOnDrop(ex, drops, depth)] {});
}

TEST(ExecutorTest, TeardownSurvivesEventsPostedFromDestructors) {
  // Regression: ~Executor used to iterate the queue while destroying events;
  // a destructor posting back into the executor invalidated the iteration.
  // The drain must keep collecting until nothing new appears.
  int drops = 0;
  {
    Executor ex;
    PostDoomed(&ex, &drops, 3);
  }
  EXPECT_EQ(drops, 4);  // Chain of 4 doomed events, each reaped untriggered.
}

Task ParkedWithGuard(BmkSched* sched, int* drops) {
  PostOnDrop guard(sched->executor(), drops, 1);
  co_await sched->Sleep(Seconds(100));
}

TEST(ExecutorTest, TeardownSurvivesCoroutineFramePostingOnDestroy) {
  int drops = 0;
  {
    Executor ex;
    Vcpu cpu(&ex);
    BmkSched sched(&ex, &cpu);
    ParkedWithGuard(&sched, &drops);
  }  // The scheduler destroys the parked frame, whose guard posts a doomed
     // event; the executor then reclaims it and the voided wake.
  EXPECT_EQ(drops, 2);
}

TEST(ExecutorDeterminismTest, WheelBoundaryScheduleByteIdentity) {
  // A schedule straddling slot and level boundaries of the timer wheel plus
  // the far-future overflow, replayed twice (shuffle off and shuffle on with
  // the same seed), must reproduce the exact (time, id) firing sequence.
  auto run = [](bool shuffle, uint64_t seed) {
    Executor ex;
    if (shuffle) {
      ex.EnableShuffle(seed);
    }
    std::vector<std::pair<int64_t, int>> fired;
    auto record = [&fired](int id, SimTime t) { fired.emplace_back(t.ns(), id); };
    int id = 0;
    // Straddle level-0 slots (64 ns), level boundaries (2^6, 2^12, ... ns),
    // and duplicate timestamps at each.
    for (int64_t base : {1, 63, 64, 65, 4095, 4096, 262144, 16777216, 1073741824}) {
      for (int64_t off : {0, 0, 1}) {
        const int eid = id++;
        ex.PostAt(SimTime(base + off), [&, eid] { record(eid, ex.Now()); });
      }
    }
    // Far-future: beyond the 2^42 ns wheel horizon.
    for (int i = 0; i < 3; ++i) {
      const int eid = id++;
      ex.PostAfter(Seconds(5000 + i), [&, eid] { record(eid, ex.Now()); });
    }
    // A self-reposting chain that hops across slots as it goes.
    struct Chain {
      Executor* ex;
      decltype(record)* rec;
      int id;
      uint64_t state;
      int left;
      void operator()() {
        (*rec)(id, ex->Now());
        if (--left > 0) {
          state = state * 6364136223846793005ULL + 1442695040888963407ULL;
          ex->PostAfter(Nanos(1 + static_cast<int64_t>((state >> 40) % 100000)), *this);
        }
      }
    };
    ex.Post(Chain{&ex, &record, id++, 0x1234, 64});
    ex.RunUntilIdle();
    return fired;
  };

  const auto plain_a = run(false, 0);
  const auto plain_b = run(false, 0);
  EXPECT_EQ(plain_a, plain_b);
  const auto shuf_a = run(true, 42);
  const auto shuf_b = run(true, 42);
  EXPECT_EQ(shuf_a, shuf_b);
  // Shuffle permutes ties but fires the same multiset of events.
  EXPECT_EQ(shuf_a.size(), plain_a.size());
}

TEST(ExecutorTest, FarFutureEventsPromoteInOrder) {
  // Events past the wheel horizon live in the overflow heap and must promote
  // era by era, interleaved correctly with near-term work.
  Executor ex;
  std::vector<int> order;
  ex.PostAfter(Seconds(10000), [&] { order.push_back(4); });
  ex.PostAfter(Seconds(5000), [&] {
    order.push_back(2);
    // Posting further far-future work from inside a promoted event.
    ex.PostAfter(Seconds(2500), [&] { order.push_back(3); });
  });
  ex.PostAfter(Micros(1), [&] { order.push_back(1); });
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(ex.Now().ns(), Seconds(10000).ns());
}

TEST(ExecutorTest, DaemonOnlyQueueCountsAsIdle) {
  // A self-reposting daemon probe must not keep RunUntilIdle spinning once
  // all real work is done.
  Executor ex;
  int daemon_fires = 0;
  int work_fires = 0;
  std::function<void()> probe = [&] {
    ++daemon_fires;
    ex.PostDaemonAfter(Micros(10), probe);
  };
  ex.PostDaemonAfter(Micros(10), probe);
  ex.PostAfter(Micros(35), [&] { ++work_fires; });
  ex.RunUntilIdle();
  EXPECT_EQ(work_fires, 1);
  EXPECT_EQ(daemon_fires, 3);  // t=10,20,30 fire before the last real event.
  EXPECT_TRUE(ex.idle());
  EXPECT_GE(ex.queue_size(), 1u);  // The daemon stays parked, not dropped.
}

TEST(ExecutorTest, RunUntilClampsAcrossEmptyStretches) {
  Executor ex;
  // No events at all: time still advances to the deadline.
  ex.RunUntil(SimTime(Seconds(1).ns()));
  EXPECT_EQ(ex.Now().ns(), Seconds(1).ns());
  // Deadline short of the next event: nothing fires, nothing is lost.
  int fired = 0;
  ex.PostAfter(Seconds(10), [&] { ++fired; });
  ex.RunFor(Seconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(ex.Now().ns(), Seconds(6).ns());
  // Deadline exactly at the event: it fires once.
  ex.RunUntil(SimTime(Seconds(11).ns()));
  EXPECT_EQ(fired, 1);
  // Far-future event still reachable after the cursor jumped around.
  ex.PostAfter(Seconds(9000), [&] { ++fired; });
  ex.RunFor(Seconds(100));
  EXPECT_EQ(fired, 1);
  ex.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ex.Now().ns(), Seconds(11).ns() + Seconds(9000).ns());
}

TEST(ExecutorDiagnosticsTest, PendingEventsSnapshotInFiringOrder) {
  Executor ex;
  ex.PostAfter(Micros(30), [] {});
  ex.PostAfter(Micros(10), [] {});
  ex.PostAfter(Micros(20), [] {});
  const auto pending = ex.PendingEvents();
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_EQ(pending[0].at, SimTime(Micros(10).ns()));
  EXPECT_EQ(pending[1].at, SimTime(Micros(20).ns()));
  EXPECT_EQ(pending[2].at, SimTime(Micros(30).ns()));
  const std::string dump = ex.FormatPendingEvents();
  EXPECT_NE(dump.find("3 pending"), std::string::npos) << dump;
  ex.RunUntilIdle();
  EXPECT_NE(ex.FormatPendingEvents().find("0 pending"), std::string::npos);
}

TEST(ExecutorDiagnosticsTest, PendingEventsPrefixIsGloballyOrdered) {
  // A truncated snapshot must be the true head of the schedule — the first
  // `max` events in firing order — not an arbitrary subset. (Regression: the
  // old full-sort-then-truncate was replaced by a partial sort; both must
  // agree.)
  Executor ex;
  for (int i = 0; i < 48; ++i) {
    // Scattered times with duplicates, posted out of order.
    ex.PostAfter(Micros(((i * 37) % 12) * 10), [] {});
  }
  const auto full = ex.PendingEvents(48);
  ASSERT_EQ(full.size(), 48u);
  for (size_t i = 1; i < full.size(); ++i) {
    const bool ordered = full[i - 1].at < full[i].at ||
                         (full[i - 1].at == full[i].at && full[i - 1].seq < full[i].seq);
    EXPECT_TRUE(ordered) << "position " << i;
  }
  const auto prefix = ex.PendingEvents(8);
  ASSERT_EQ(prefix.size(), 8u);
  for (size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(prefix[i].at, full[i].at);
    EXPECT_EQ(prefix[i].seq, full[i].seq);
  }
  const std::string dump = ex.FormatPendingEvents(8);
  EXPECT_NE(dump.find("... 40 more"), std::string::npos) << dump;
}

TEST(ExecutorDiagnosticsTest, PendingEventsNameTheirPostingSite) {
  Executor ex;
  ex.PostAfter(Micros(10), KITE_POST_SITE("test/pending-site"), [] {});
  ex.PostDaemonAfter(Micros(20), KITE_POST_SITE("test/pending-daemon"), [] {});
  ex.PostAfter(Micros(30), [] {});
  const std::string dump = ex.FormatPendingEvents();
  EXPECT_NE(dump.find("seq=0 test/pending-site\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find("seq=1 test/pending-daemon (daemon)\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find("seq=2 (untagged)"), std::string::npos) << dump;
}

}  // namespace
}  // namespace kite
