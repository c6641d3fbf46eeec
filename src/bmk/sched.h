// Bare Metal Kernel (BMK) runtime facade: rumprun's thread environment.
//
// Rumprun's BMK layer provides cooperative, non-preemptive threads with wait
// channels and no work queues (paper §2.4, §3.1). In this reproduction a BMK
// "thread" is a coroutine Task scheduled on the domain's single executor and
// serialized through the domain's Vcpu.
//
// Every timed suspension (Sleep/Run/Yield) parks on a *cancellable timer*
// owned by this scheduler: destroying the scheduler (e.g. when a driver
// domain is destroyed for restart) destroys all parked coroutine frames
// instead of leaving dangling resumptions in the executor. A park allocates
// nothing: the awaiter, which lives in the suspended coroutine frame, is the
// node of the scheduler's intrusive list of parked threads, and the wake
// event's captures fit the executor's inline callback slot.
#ifndef SRC_BMK_SCHED_H_
#define SRC_BMK_SCHED_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/executor.h"
#include "src/sim/task.h"
#include "src/sim/wait.h"

namespace kite {

class BmkSched {
 public:
  BmkSched(Executor* executor, Vcpu* vcpu) : executor_(executor), vcpu_(vcpu) {}
  ~BmkSched();

  BmkSched(const BmkSched&) = delete;
  BmkSched& operator=(const BmkSched&) = delete;

  Executor* executor() const { return executor_; }
  Vcpu* vcpu() const { return vcpu_; }

  // Registers a named thread. The body is a coroutine factory; it starts
  // immediately (eager task) and runs cooperatively forever or until return.
  void Spawn(const std::string& name, const std::function<Task()>& body);

  // Awaitable that resumes at an absolute time, cancellable by scheduler
  // destruction. While suspended it is linked into the scheduler's list of
  // parked threads, so it must not move: it is only ever created as the
  // operand of co_await.
  class TimedAwaiter {
   public:
    TimedAwaiter(BmkSched* sched, SimTime at) : sched_(sched), at_(at) {}
    TimedAwaiter(const TimedAwaiter&) = delete;
    TimedAwaiter& operator=(const TimedAwaiter&) = delete;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      handle_ = handle;
      sched_->Park(this);
    }
    void await_resume() const noexcept {}

   private:
    friend class BmkSched;
    BmkSched* sched_;
    SimTime at_;
    std::coroutine_handle<> handle_;
    TimedAwaiter* prev_ = nullptr;
    TimedAwaiter* next_ = nullptr;
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

  int thread_count() const { return static_cast<int>(thread_names_.size()); }
  uint64_t yield_count() const { return yields_; }
  size_t parked_timers() const { return parked_; }

 private:
  // Links the awaiter and posts its wake at awaiter->at_.
  void Park(TimedAwaiter* awaiter);
  void Unlink(TimedAwaiter* awaiter);

  Executor* executor_;
  Vcpu* vcpu_;
  std::vector<std::string> thread_names_;
  // Parked threads, most recently parked first.
  TimedAwaiter* parked_head_ = nullptr;
  size_t parked_ = 0;
  // Wake events capture this flag; a destroyed scheduler (whose parked
  // frames, awaiters included, are gone) turns them into no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  uint64_t yields_ = 0;
};

}  // namespace kite

#endif  // SRC_BMK_SCHED_H_
