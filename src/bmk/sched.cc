#include "src/bmk/sched.h"

namespace kite {

BmkSched::~BmkSched() {
  // Destroy the frames of parked threads; their queued wakes observe the
  // cleared flag and become no-ops. Each node lives in the frame it parks,
  // so read the link before destroying the frame.
  *alive_ = false;
  for (Parked* parked = parked_head_; parked != nullptr;) {
    Parked* next = parked->next_;
    parked->handle_.destroy();
    parked = next;
  }
}

void BmkSched::Spawn(const std::function<Task()>& body) {
  ++threads_;
  body();  // Eager task: runs until first suspension.
}

void BmkSched::Park(Parked* parked, std::coroutine_handle<> handle) {
  parked->handle_ = handle;
  parked->prev_ = nullptr;
  parked->next_ = parked_head_;
  if (parked_head_ != nullptr) {
    parked_head_->prev_ = parked;
  }
  parked_head_ = parked;
  ++parked_;
}

void BmkSched::PostWake(Parked* parked, SimTime at, const DispatchSite* site) {
  executor_->PostAt(at, site, [this, alive = alive_, parked] {
    if (!*alive || parked->abandoned_) {
      return;  // The scheduler reclaimed, or will reclaim, the frame.
    }
    Unlink(parked);
    parked->handle_.resume();
  });
}

void BmkSched::Unlink(Parked* parked) {
  if (parked->prev_ != nullptr) {
    parked->prev_->next_ = parked->next_;
  } else {
    parked_head_ = parked->next_;
  }
  if (parked->next_ != nullptr) {
    parked->next_->prev_ = parked->prev_;
  }
  --parked_;
}

}  // namespace kite
