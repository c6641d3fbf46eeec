#include "src/bmk/sched.h"

namespace kite {

BmkSched::~BmkSched() {
  // Destroy frames of threads suspended on timers; their executor events
  // observe the cleared flag and become no-ops. Each awaiter lives in the
  // frame it parks, so read the link before destroying the frame.
  *alive_ = false;
  for (TimedAwaiter* awaiter = parked_head_; awaiter != nullptr;) {
    TimedAwaiter* next = awaiter->next_;
    awaiter->handle_.destroy();
    awaiter = next;
  }
}

void BmkSched::Spawn(const std::string& name, const std::function<Task()>& body) {
  thread_names_.push_back(name);
  body();  // Eager task: runs until first suspension.
}

void BmkSched::Park(TimedAwaiter* awaiter) {
  awaiter->prev_ = nullptr;
  awaiter->next_ = parked_head_;
  if (parked_head_ != nullptr) {
    parked_head_->prev_ = awaiter;
  }
  parked_head_ = awaiter;
  ++parked_;
  executor_->PostAt(awaiter->at_, KITE_POST_SITE("bmk/timer-wake"),
                    [this, alive = alive_, awaiter] {
    if (!*alive) {
      return;  // Scheduler destroyed; frame already reclaimed.
    }
    Unlink(awaiter);
    awaiter->handle_.resume();
  });
}

void BmkSched::Unlink(TimedAwaiter* awaiter) {
  if (awaiter->prev_ != nullptr) {
    awaiter->prev_->next_ = awaiter->next_;
  } else {
    parked_head_ = awaiter->next_;
  }
  if (awaiter->next_ != nullptr) {
    awaiter->next_->prev_ = awaiter->prev_;
  }
  --parked_;
}

}  // namespace kite
