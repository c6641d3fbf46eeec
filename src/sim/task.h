// Coroutine task type for simulation actors.
//
// A Task is an eager, detached coroutine: it runs until its first suspension
// when called, and its frame self-destroys on completion (final_suspend is
// suspend_never). While suspended, the frame is owned by exactly one parking
// place, its BMK scheduler's list of parked threads (src/bmk/sched.h), whose
// destructor destroys still-parked frames, so simulations can be torn down
// mid-run without leaks.
//
// This mirrors the paper's threading model directly: rumprun BMK threads are
// cooperative and non-preemptive, which is exactly what single-threaded
// coroutines give us.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <exception>

namespace kite {

class Task {
 public:
  struct promise_type {
    Task get_return_object() noexcept { return Task{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };
};

}  // namespace kite

#endif  // SRC_SIM_TASK_H_
