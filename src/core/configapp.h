// The plumbing both configuration apps share (paper §4.3): the backend
// driver's OnNew queues each newly connected instance and wakes the app's
// one BMK thread, which configures the queued instances one at a time and
// yields the vCPU after each; OnGone drops a reaped instance before its
// pointer dies. The apps provide only Configure and Forget.
#ifndef SRC_CORE_CONFIGAPP_H_
#define SRC_CORE_CONFIGAPP_H_

#include <deque>

#include "src/bmk/sched.h"
#include "src/hv/xenbus_backend.h"

namespace kite {

template <typename Instance>
class ConfigApp {
 public:
  virtual ~ConfigApp() = default;

  // The driver's hooks and the app thread hold `this`.
  ConfigApp(const ConfigApp&) = delete;
  ConfigApp& operator=(const ConfigApp&) = delete;

  int configured() const { return configured_; }

 protected:
  // Hooks `driver` and spawns the app thread, which parks until the first
  // instance connects; Configure and Forget run only after construction.
  ConfigApp(BmkSched* sched, XenbusBackend<Instance>* driver)
      : sched_(sched), wake_(sched) {
    driver->SetOnNew([this](Instance* inst) {
      pending_.push_back(inst);
      wake_.Signal();
    });
    driver->SetOnGone([this](Instance* inst) {
      std::erase(pending_, inst);  // Its guest may have died mid-pairing.
      Forget(inst);
    });
    sched_->Spawn([this] { return MainLoop(); });
  }

  virtual void Configure(Instance* inst) = 0;
  virtual void Forget(Instance* inst) = 0;

  BmkSched* const sched_;

 private:
  Task MainLoop() {
    for (;;) {
      co_await wake_.Wait();
      while (!pending_.empty()) {
        Instance* inst = pending_.front();
        pending_.pop_front();
        Configure(inst);
        ++configured_;
        // Explicitly yield so the backend, the device driver and the network
        // stack make progress (paper §4.3).
        co_await sched_->Yield();
      }
    }
  }

  WakeFlag wake_;
  std::deque<Instance*> pending_;
  int configured_ = 0;
};

}  // namespace kite

#endif  // SRC_CORE_CONFIGAPP_H_
