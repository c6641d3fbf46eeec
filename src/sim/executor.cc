#include "src/sim/executor.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "src/base/strings.h"
#include "src/sim/intern.h"

namespace kite {
namespace {

constexpr size_t kEventsPerChunk = 256;

// Leaked on purpose: executors dying at exit read labels during static
// destruction.
LabelRegistry<DispatchSite>& Sites() {
  static auto* sites = new LabelRegistry<DispatchSite>({"(untagged)"});
  return *sites;
}

// Heap comparator for the overflow min-heap: true when a fires *later* than
// b (std::push_heap builds a max-heap w.r.t. the comparator).
struct EventLater {
  template <typename E>
  bool operator()(const E* a, const E* b) const {
    if (a->at != b->at) {
      return a->at > b->at;
    }
    if (a->tie != b->tie) {
      return a->tie > b->tie;
    }
    return a->seq > b->seq;
  }
};

// Total dispatch order, ascending — identical to the order the pre-wheel
// binary heap popped events in.
struct EventEarlier {
  template <typename E>
  bool operator()(const E* a, const E* b) const {
    if (a->at != b->at) {
      return a->at < b->at;
    }
    if (a->tie != b->tie) {
      return a->tie < b->tie;
    }
    return a->seq < b->seq;
  }
};

}  // namespace

const DispatchSite* RegisterDispatchSite(const char* label) { return Sites().Intern(label); }

const char* DispatchSiteLabel(uint32_t index) { return Sites().Label(index); }

size_t DispatchSiteCount() { return Sites().Count(); }

Executor::~Executor() {
  // Drain-and-destroy until nothing is left. A callback capture may post new
  // events from its own destructor; swapping the whole pending set into a
  // local list each round means those posts land in the now-empty wheel
  // instead of invalidating what we iterate, and the next round reclaims
  // them too.
  std::vector<Event*> doomed;
  while (pending_count_ > 0) {
    doomed.clear();
    for (size_t i = batch_pos_; i < batch_.size(); ++i) {
      doomed.push_back(batch_[i]);
    }
    batch_.clear();
    batch_pos_ = 0;
    for (int l = 0; l < kLevels; ++l) {
      uint64_t bits = occupied_[l];
      occupied_[l] = 0;
      while (bits != 0) {
        const int s = std::countr_zero(bits);
        bits &= bits - 1;
        for (Event* e = wheel_[l][s]; e != nullptr; e = e->next) {
          doomed.push_back(e);
        }
        wheel_[l][s] = nullptr;
      }
    }
    doomed.insert(doomed.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    pending_count_ = 0;
    non_daemon_pending_ = 0;
    for (Event* ev : doomed) {
      if (ev->destroy != nullptr) {
        ev->destroy(ev);
      }
      FreeEvent(ev);
    }
  }
}

Executor::Event* Executor::NewEvent(SimTime when, bool daemon) {
  if (when < now_) {
    when = now_;
  }
  Event* ev = free_list_;
  if (ev != nullptr) {
    free_list_ = ev->next;
  } else {
    auto chunk = std::make_unique<Event[]>(kEventsPerChunk);
    for (size_t i = 1; i < kEventsPerChunk; ++i) {
      chunk[i].next = free_list_;
      free_list_ = &chunk[i];
    }
    ev = &chunk[0];
    chunks_.push_back(std::move(chunk));
  }
  ev->at = when;
  ev->seq = next_seq_++;
  // Future events draw a shuffled tie; events due *now* keep seq so the
  // Post() FIFO contract ("after already-queued same-time events") holds in
  // shuffle mode too. With shuffle off, tie == seq always — byte-identical
  // schedules to the pre-wheel executor. Daemon events never draw: telemetry
  // housekeeping must not shift the RNG stream real events see (header).
  ev->tie = (shuffle_ && !daemon && when > now_) ? shuffle_rng_.NextU64() : ev->seq;
  ev->next = nullptr;
  ev->invoke = nullptr;
  ev->destroy = nullptr;
  ev->daemon = daemon;
  ev->site = kDispatchSiteUntagged;
  return ev;
}

void Executor::FreeEvent(Event* ev) {
  ev->next = free_list_;
  free_list_ = ev;
}

void Executor::Insert(Event* ev) {
  ++pending_count_;
  if (!ev->daemon) {
    ++non_daemon_pending_;
  }
  WheelInsert(ev);
}

void Executor::WheelInsert(Event* ev) {
  const uint64_t t = static_cast<uint64_t>(ev->at.ns());
  const uint64_t c = static_cast<uint64_t>(cursor_ns_);
  const uint64_t diff = t ^ c;
  if ((diff >> kHorizonBits) != 0) {
    // Different 2^42 ns era: park in the overflow heap until the cursor gets
    // there.
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), EventLater{});
    return;
  }
  const int level = diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
  const int slot = static_cast<int>((t >> (level * kLevelBits)) & kSlotMask);
  ev->next = wheel_[level][slot];
  wheel_[level][slot] = ev;
  occupied_[level] |= uint64_t{1} << slot;
}

void Executor::PromoteOverflow() {
  const uint64_t era = static_cast<uint64_t>(cursor_ns_) >> kHorizonBits;
  while (!overflow_.empty() &&
         (static_cast<uint64_t>(overflow_.front()->at.ns()) >> kHorizonBits) == era) {
    std::pop_heap(overflow_.begin(), overflow_.end(), EventLater{});
    Event* ev = overflow_.back();
    overflow_.pop_back();
    WheelInsert(ev);
  }
}

bool Executor::LoadNextBatch(SimTime limit) {
  batch_.clear();
  batch_pos_ = 0;
  if (pending_count_ == 0) {
    return false;
  }
  for (;;) {
    // Overflow events whose era the cursor has entered belong in the wheel
    // before any "earliest slot" decision is made.
    if (!overflow_.empty()) {
      PromoteOverflow();
    }
    const uint64_t c = static_cast<uint64_t>(cursor_ns_);
    // Level 0: each slot is one exact nanosecond of the cursor's current
    // 64 ns window, so the first occupied slot at or past the cursor digit
    // IS the next batch.
    const int d0 = static_cast<int>(c & kSlotMask);
    const uint64_t m0 = occupied_[0] & (~uint64_t{0} << d0);
    if (m0 != 0) {
      const int s = std::countr_zero(m0);
      const int64_t t = static_cast<int64_t>((c & ~kSlotMask) | static_cast<uint64_t>(s));
      if (t > limit.ns()) {
        return false;
      }
      cursor_ns_ = t;
      Event* e = wheel_[0][s];
      wheel_[0][s] = nullptr;
      occupied_[0] &= ~(uint64_t{1} << s);
      for (; e != nullptr; e = e->next) {
        batch_.push_back(e);
      }
      // All batch events share one timestamp; (tie, seq) gives the exact
      // order the old heap would have popped them in. Singleton batches (the
      // common case for spread-out timers) skip the sort call entirely.
      if (batch_.size() > 1) {
        std::sort(batch_.begin(), batch_.end(), [](const Event* a, const Event* b) {
          return a->tie != b->tie ? a->tie < b->tie : a->seq < b->seq;
        });
      }
      return true;
    }
    // Level 0 empty: cascade the earliest occupied higher-level slot down.
    // Wheel invariant: at level l > 0, slots below the cursor digit are
    // empty, and lower levels always hold earlier times than higher ones, so
    // the first hit scanning levels upward is the earliest remaining window.
    bool cascaded = false;
    for (int l = 1; l < kLevels; ++l) {
      const int d = static_cast<int>((c >> (l * kLevelBits)) & kSlotMask);
      const uint64_t m = occupied_[l] & (~uint64_t{0} << d);
      if (m == 0) {
        continue;
      }
      const int s = std::countr_zero(m);
      const uint64_t below = (uint64_t{1} << ((l + 1) * kLevelBits)) - 1;
      const uint64_t start =
          (c & ~below) | (static_cast<uint64_t>(s) << (l * kLevelBits));
      if (static_cast<int64_t>(start) > limit.ns()) {
        return false;  // Every remaining event starts past the limit.
      }
      if (static_cast<int64_t>(start) > cursor_ns_) {
        cursor_ns_ = static_cast<int64_t>(start);
      }
      Event* e = wheel_[l][s];
      wheel_[l][s] = nullptr;
      occupied_[l] &= ~(uint64_t{1} << s);
      while (e != nullptr) {
        Event* next = e->next;
        WheelInsert(e);  // Lands strictly below level l.
        e = next;
      }
      cascaded = true;
      break;
    }
    if (cascaded) {
      continue;
    }
    // Wheel fully empty: jump the cursor into the next overflow era.
    if (!overflow_.empty()) {
      Event* top = overflow_.front();
      if (top->at.ns() > limit.ns()) {
        return false;
      }
      cursor_ns_ = top->at.ns();
      continue;
    }
    return false;
  }
}

void Executor::JumpCursor(int64_t to_ns) {
  if (to_ns <= cursor_ns_) {
    return;
  }
  cursor_ns_ = to_ns;
  // The cursor may have landed inside higher-level slots that still hold
  // events (all later than to_ns). Cascade them down now so the level-by-
  // level scan in LoadNextBatch stays ordered: a stale slot at the cursor's
  // own digit shares the lower levels' time window and would otherwise be
  // scanned after them.
  const uint64_t c = static_cast<uint64_t>(cursor_ns_);
  for (int l = 1; l < kLevels; ++l) {
    const int d = static_cast<int>((c >> (l * kLevelBits)) & kSlotMask);
    if ((occupied_[l] & (uint64_t{1} << d)) == 0) {
      continue;
    }
    Event* e = wheel_[l][d];
    wheel_[l][d] = nullptr;
    occupied_[l] &= ~(uint64_t{1} << d);
    while (e != nullptr) {
      Event* next = e->next;
      WheelInsert(e);
      e = next;
    }
  }
}

void Executor::DispatchOne(Event* ev) {
  --pending_count_;
  if (!ev->daemon) {
    --non_daemon_pending_;
  }
  now_ = ev->at;
  ++steps_;
  if (profile_ != nullptr) [[unlikely]] {
    ProfiledDispatch(ev);
    return;
  }
  ev->invoke(ev);
  if (ev->destroy != nullptr) {
    ev->destroy(ev);
  }
  FreeEvent(ev);
}

void Executor::ProfiledDispatch(Event* ev) {
  ProfileState& p = *profile_;
  const uint32_t site = ev->site;
  if (site >= p.stats.size()) {
    p.stats.resize(std::max<size_t>(site + 1, DispatchSiteCount()));
  }
  SiteStat& stat = p.stats[site];
  ++stat.invocations;
  const bool timed = (p.dispatch_counter++ & p.sample_mask) == 0;
  std::chrono::steady_clock::time_point t0;
  if (timed) {
    t0 = std::chrono::steady_clock::now();
  }
  ev->invoke(ev);
  if (ev->destroy != nullptr) {
    ev->destroy(ev);
  }
  if (timed) {
    const auto dt = std::chrono::steady_clock::now() - t0;
    stat.sampled_wall_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
    ++stat.samples;
  }
  FreeEvent(ev);
}

void Executor::EnableDispatchProfiler() {
  if (profile_ == nullptr) {
    profile_ = std::make_unique<ProfileState>();
  }
  profile_->sample_mask = (uint64_t{1} << profile_sample_shift_) - 1;
}

std::vector<DispatchProfileEntry> Executor::DispatchProfile() const {
  std::vector<DispatchProfileEntry> out;
  if (profile_ == nullptr) {
    return out;
  }
  for (uint32_t i = 0; i < profile_->stats.size(); ++i) {
    const SiteStat& s = profile_->stats[i];
    if (s.invocations == 0) {
      continue;
    }
    DispatchProfileEntry e;
    e.label = DispatchSiteLabel(i);
    e.invocations = s.invocations;
    e.samples = s.samples;
    e.sampled_wall_ns = s.sampled_wall_ns;
    // Scale sampled time up to the full population. With shift 0 every
    // dispatch is timed and est == sampled exactly.
    e.est_wall_ns =
        s.samples == 0
            ? 0
            : static_cast<uint64_t>(static_cast<double>(s.sampled_wall_ns) *
                                    static_cast<double>(s.invocations) /
                                    static_cast<double>(s.samples));
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const DispatchProfileEntry& a, const DispatchProfileEntry& b) {
              if (a.est_wall_ns != b.est_wall_ns) {
                return a.est_wall_ns > b.est_wall_ns;
              }
              if (a.invocations != b.invocations) {
                return a.invocations > b.invocations;
              }
              return std::strcmp(a.label, b.label) < 0;
            });
  return out;
}

bool Executor::Step() {
  if (batch_pos_ >= batch_.size() && !LoadNextBatch(SimTime::Max())) {
    return false;
  }
  DispatchOne(batch_[batch_pos_++]);
  return true;
}

void Executor::RunUntilIdle() {
  // Stop once only daemon events remain: a self-reposting watchdog probe
  // would otherwise keep this loop (and simulated time) running forever.
  while (non_daemon_pending_ > 0) {
    Step();
  }
}

void Executor::RunUntil(SimTime deadline) {
  for (;;) {
    if (batch_pos_ < batch_.size()) {
      Event* ev = batch_[batch_pos_];
      if (ev->at > deadline) {
        break;  // A batch left over from Step(); all of it shares ev->at.
      }
      ++batch_pos_;
      DispatchOne(ev);
      continue;
    }
    if (!LoadNextBatch(deadline)) {
      break;
    }
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  JumpCursor(deadline.ns());
}

void Executor::CollectPending(std::vector<const Event*>* out) const {
  for (size_t i = batch_pos_; i < batch_.size(); ++i) {
    out->push_back(batch_[i]);
  }
  for (int l = 0; l < kLevels; ++l) {
    uint64_t bits = occupied_[l];
    while (bits != 0) {
      const int s = std::countr_zero(bits);
      bits &= bits - 1;
      for (const Event* e = wheel_[l][s]; e != nullptr; e = e->next) {
        out->push_back(e);
      }
    }
  }
  out->insert(out->end(), overflow_.begin(), overflow_.end());
}

std::vector<Executor::PendingEvent> Executor::PendingEvents(size_t max) const {
  std::vector<const Event*> ptrs;
  ptrs.reserve(pending_count_);
  CollectPending(&ptrs);
  // Only the first `max` elements are needed in order: partial_sort over
  // pointers instead of copying and fully sorting the queue.
  const size_t n = std::min(max, ptrs.size());
  std::partial_sort(ptrs.begin(), ptrs.begin() + static_cast<ptrdiff_t>(n), ptrs.end(),
                    EventEarlier{});
  ptrs.resize(n);
  std::vector<PendingEvent> out;
  out.reserve(ptrs.size());
  for (const Event* ev : ptrs) {
    out.push_back(PendingEvent{ev->at, ev->seq, ev->site, ev->daemon});
  }
  return out;
}

std::string Executor::FormatPendingEvents(size_t max) const {
  std::string out = StrFormat("%zu pending event(s) at t=%.9fs", pending_count_,
                              now_.seconds());
  for (const PendingEvent& ev : PendingEvents(max)) {
    out += StrFormat("\n  at=%.9fs seq=%llu %s%s", ev.at.seconds(),
                     static_cast<unsigned long long>(ev.seq),
                     DispatchSiteLabel(ev.site),
                     ev.is_daemon ? " (daemon)" : "");
  }
  if (pending_count_ > max) {
    out += StrFormat("\n  ... %zu more", pending_count_ - max);
  }
  return out;
}

}  // namespace kite
