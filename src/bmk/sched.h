// Bare Metal Kernel (BMK) runtime facade: rumprun's thread environment.
//
// Rumprun's BMK layer provides cooperative, non-preemptive threads with wait
// channels and no work queues (paper §2.4, §3.1). In this reproduction a BMK
// "thread" is a coroutine Task scheduled on the domain's single executor and
// serialized through the domain's Vcpu.
//
// The scheduler owns every suspended thread. A thread parks on a timer
// (Sleep/Run/Yield) or on a WakeFlag (below); either way its awaiter, which
// lives in the suspended coroutine frame, is the node of the scheduler's
// intrusive list of parked threads, and its wake is an executor event whose
// captures fit the inline callback slot, so a park allocates nothing. One
// teardown rule holds for both kinds: a parked frame is never resumed after
// its owner dies (a destroyed flag abandons its waiter, a destroyed
// scheduler voids its queued wakes), and the scheduler destroys every frame
// still linked when it dies, e.g. when a driver domain is destroyed for
// restart.
#ifndef SRC_BMK_SCHED_H_
#define SRC_BMK_SCHED_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/base/log.h"
#include "src/sim/cpu.h"
#include "src/sim/executor.h"
#include "src/sim/task.h"

namespace kite {

class BmkSched {
 public:
  BmkSched(Executor* executor, Vcpu* vcpu) : executor_(executor), vcpu_(vcpu) {}
  ~BmkSched();

  BmkSched(const BmkSched&) = delete;
  BmkSched& operator=(const BmkSched&) = delete;

  Executor* executor() const { return executor_; }
  Vcpu* vcpu() const { return vcpu_; }

  // Registers a thread. The body is a coroutine factory; it starts
  // immediately (eager task) and runs cooperatively forever or until return.
  void Spawn(const std::function<Task()>& body);

  // A suspended thread's node in the scheduler's list, linked from its
  // suspension until its resumption. It lives in the frame it parks, so it
  // must not move: it is only ever created as the operand of co_await.
  class Parked {
   public:
    Parked(const Parked&) = delete;
    Parked& operator=(const Parked&) = delete;

   protected:
    Parked() = default;
    // Set when the waker dies: a queued wake then leaves the frame parked
    // for the scheduler to reclaim.
    bool abandoned_ = false;

   private:
    friend class BmkSched;
    friend class WakeFlag;
    std::coroutine_handle<> handle_;
    Parked* prev_ = nullptr;
    Parked* next_ = nullptr;
  };

  // Awaitable that resumes at an absolute time.
  class TimedAwaiter : public Parked {
   public:
    TimedAwaiter(BmkSched* sched, SimTime at) : sched_(sched), at_(at) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      sched_->Park(this, handle);
      sched_->PostWake(this, at_, KITE_POST_SITE("bmk/timer-wake"));
    }
    void await_resume() const noexcept {}

   private:
    BmkSched* sched_;
    SimTime at_;
  };

  // Consume CPU work: resumes once `cost` has executed on the vCPU.
  TimedAwaiter Run(SimDuration cost) { return TimedAwaiter(this, vcpu_->Charge(cost)); }

  // Same, crediting the work to `category` in the vCPU's CPU-attribution
  // ledger. The scope must wrap the synchronous Charge and must NOT span the
  // co_await suspension (a CpuScope living across a suspension would leak the
  // category onto unrelated events), which is why the overload exists: the
  // scope dies at the end of this full expression, after Charge ran.
  TimedAwaiter Run(SimDuration cost, const CpuCategory* category) {
    CpuScope scope(category);
    return TimedAwaiter(this, vcpu_->Charge(cost));
  }

  // Cooperative yield, as used by Kite's configuration applications to avoid
  // CPU monopolization (paper §4.3). Charged (at zero cost) to the scheduler
  // category so run-queue wait behind pending work is attributed to yielding.
  TimedAwaiter Yield() {
    ++yields_;
    return Run(SimDuration(0), KITE_CPU_CATEGORY("sched/yield"));
  }

  // Sleep without consuming CPU.
  TimedAwaiter Sleep(SimDuration d) { return TimedAwaiter(this, executor_->Now() + d); }

  int thread_count() const { return threads_; }
  uint64_t yield_count() const { return yields_; }
  // Threads parked on a timer or a flag, abandoned ones included.
  size_t parked_threads() const { return parked_; }

 private:
  friend class WakeFlag;

  void Park(Parked* parked, std::coroutine_handle<> handle);
  // Posts the resumption of `parked` at `at`, unless its scheduler or its
  // waker is gone by then.
  void PostWake(Parked* parked, SimTime at, const DispatchSite* site);
  void Unlink(Parked* parked);

  Executor* executor_;
  Vcpu* vcpu_;
  int threads_ = 0;
  // Parked threads, most recently parked first.
  Parked* parked_head_ = nullptr;
  size_t parked_ = 0;
  // Wake events capture this flag; a destroyed scheduler (whose parked
  // frames, nodes included, are gone) turns them into no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  uint64_t yields_ = 0;
};

// A rumprun wait channel with one sleeping thread, plus the one bit that
// keeps a wakeup from being lost: the thread loops "process everything, then
// sleep unless more work arrived while I was processing", which is what
// netback's pusher/soft_start threads need. Signal only wakes (paper §4.2:
// the event handler wakes the thread and returns); the waiter resumes from
// an event posted at the current time, after the work already due.
class WakeFlag {
 public:
  explicit WakeFlag(BmkSched* sched) : sched_(sched) {}
  // A waiter parked here, woken or not, is never resumed: it stays in its
  // scheduler's list until the scheduler reclaims it.
  ~WakeFlag() {
    if (waiter_ != nullptr) {
      waiter_->abandoned_ = true;
    }
  }

  WakeFlag(const WakeFlag&) = delete;
  WakeFlag& operator=(const WakeFlag&) = delete;

  // Sets the flag and wakes the parked waiter, once however often it is
  // signalled before it runs.
  void Signal() {
    if (!signaled_ && waiter_ != nullptr) {
      sched_->PostWake(waiter_, sched_->executor()->Now(), KITE_POST_SITE("bmk/flag-wake"));
    }
    signaled_ = true;
  }

  // Awaitable: returns immediately if signaled, else parks. Clears the flag.
  class Awaiter : public BmkSched::Parked {
   public:
    explicit Awaiter(WakeFlag* flag) : flag_(flag) {}
    // Unhooks from a flag that outlives the scheduler reclaiming this frame.
    ~Awaiter() {
      if (!abandoned_ && flag_->waiter_ == this) {
        flag_->waiter_ = nullptr;
      }
    }

    bool await_ready() const noexcept {
      if (flag_->signaled_) {
        flag_->signaled_ = false;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      KITE_CHECK(flag_->waiter_ == nullptr) << "a WakeFlag has one waiting thread";
      flag_->waiter_ = this;
      flag_->sched_->Park(this, handle);
    }
    void await_resume() const noexcept {
      flag_->waiter_ = nullptr;
      flag_->signaled_ = false;
    }

   private:
    WakeFlag* flag_;
  };

  Awaiter Wait() { return Awaiter(this); }

 private:
  BmkSched* sched_;
  // Parked here; its wake is queued exactly when signaled_ is also set.
  Awaiter* waiter_ = nullptr;
  bool signaled_ = false;
};

}  // namespace kite

#endif  // SRC_BMK_SCHED_H_
