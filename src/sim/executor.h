// Discrete-event executor: the heart of the simulation. Single-threaded;
// events fire in (time, insertion-order) order, so runs are deterministic.
//
// Engine internals (DESIGN.md §13): events live in pool-allocated nodes with
// a small-buffer callback slot (no per-event heap allocation for callbacks up
// to kInlineCallbackBytes), keyed into a hierarchical timer wheel — 7 levels
// of 64 slots covering 2^42 ns (~73 simulated minutes) from the cursor — with
// a far-future overflow heap beyond the horizon. Dispatch drains one exact-
// timestamp slot at a time into a batch instead of heap-popping per event.
// The dispatch order is the total order (at, tie, seq), which is exactly what
// the old binary heap produced, so schedules are byte-identical with shuffle
// off.
//
// Schedule-shuffle mode (deterministic simulation testing): when enabled,
// same-timestamp events are ordered by a seeded RNG draw instead of
// insertion order. The set of events that fire at each instant is unchanged
// — only the order *within* a timestamp is permuted — so every legal
// interleaving of handler/thread wakeups at one instant can be explored by
// sweeping seeds, and any failing schedule replays exactly from its seed.
// Off by default: with shuffle off the tie key equals the insertion
// sequence number and runs are byte-identical to the pre-shuffle executor.
//
// Events scheduled *at the current time* (Post, PostAfter(0), a PostAt in
// the past) are exempt from shuffle tie randomization: they keep their
// insertion sequence number as the tie key and are dispatched after the
// already-queued same-time events, in post order. This is the documented
// Post() FIFO contract; randomizing those ties used to let a Post() fire
// before events queued earlier at the same instant, breaking callers (BMK
// flag wakes, response-before-wake in the backends) that rely on "post now"
// meaning "after everything already due now".
//
// The executor runs callbacks only. Suspended coroutine threads belong to
// their BMK scheduler (src/bmk/sched.h), whose wakes are ordinary posts.
//
// Daemon events are likewise exempt from shuffle tie randomization: they
// never consume a draw from the shuffle RNG. Housekeeping (the health
// watchdog probe, the metric sampler tick) must not perturb schedule
// exploration — arming or disarming a daemon would otherwise shift the RNG
// stream seen by every later real event and change which interleavings a
// given seed reaches. With this rule, telemetry on/off leaves shuffled
// schedules bit-identical.
//
// Dispatch profiler (DESIGN.md §15): posting sites can be tagged with a
// static KITE_POST_SITE("label") id; when the profiler is enabled the
// executor accumulates per-site invocation counts and (sampled) wall-clock
// dispatch time in DispatchOne. All bookkeeping is host-side — it never
// touches simulated time or event ordering — and the disabled cost is one
// pointer test per dispatch, the same gating contract as tracing.
#ifndef SRC_SIM_EXECUTOR_H_
#define SRC_SIM_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/time.h"

namespace kite {

// A tagged event-posting site. Registered once per source location via
// KITE_POST_SITE; the dense index keys the executor's per-site dispatch
// statistics. Labels with the same text share one site (templated or macro-
// stamped code collapses into a single row).
struct DispatchSite {
  const char* label;
  uint32_t index;
};

// Built-in site index of events posted through an untagged overload.
inline constexpr uint32_t kDispatchSiteUntagged = 0;

// Interns `label` (src/sim/intern.h); idempotent per label text.
const DispatchSite* RegisterDispatchSite(const char* label);
// Label for a registered index; "?" when out of range.
const char* DispatchSiteLabel(uint32_t index);
size_t DispatchSiteCount();

// Tags a posting site: KITE_POST_SITE("netback/tx-complete"). Registration
// happens once (function-local static); afterwards the macro is a load.
#define KITE_POST_SITE(label_text)                                          \
  ([]() -> const ::kite::DispatchSite* {                                    \
    static const ::kite::DispatchSite* kite_site =                          \
        ::kite::RegisterDispatchSite(label_text);                           \
    return kite_site;                                                       \
  }())

// One row of the dispatch profile. `est_wall_ns` scales the sampled time up
// to the full invocation count (== sampled_wall_ns when every dispatch is
// timed, i.e. sample shift 0). Counts are exact and deterministic; wall
// times are host-clock measurements and vary run to run.
struct DispatchProfileEntry {
  const char* label;
  uint64_t invocations = 0;
  uint64_t samples = 0;
  uint64_t sampled_wall_ns = 0;
  uint64_t est_wall_ns = 0;
};

class Executor {
 public:
  // Callbacks whose captures fit in this many bytes are stored inline in the
  // pooled event node; larger ones fall back to one heap allocation. 64 bytes
  // covers this+shared_ptr+a few words, i.e. every hot-path lambda in the
  // drivers.
  static constexpr size_t kInlineCallbackBytes = 64;

  Executor() = default;
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  SimTime Now() const { return now_; }

  // Schedules fn at the given absolute time (>= Now(); earlier times clamp
  // to Now()). Accepts any nullary callable; the common small lambdas are
  // stored inline in the event node (zero heap allocations on this path).
  template <typename Fn>
  void PostAt(SimTime when, Fn&& fn) {
    Event* ev = NewEvent(when, /*daemon=*/false);
    InstallCallback(ev, std::forward<Fn>(fn));
    Insert(ev);
  }
  // Schedules fn after a relative delay (clamped at >= 0).
  template <typename Fn>
  void PostAfter(SimDuration delay, Fn&& fn) {
    if (delay < SimDuration(0)) {
      delay = SimDuration(0);
    }
    PostAt(now_ + delay, std::forward<Fn>(fn));
  }
  // Schedules fn at the current time, after already-queued same-time events
  // (FIFO — the contract holds in shuffle mode too, see the header comment).
  template <typename Fn>
  void Post(Fn&& fn) {
    PostAt(now_, std::forward<Fn>(fn));
  }

  // Site-tagged variants: identical scheduling semantics, but the event
  // carries the site's index so the dispatch profiler can attribute its
  // wall-clock cost. `site` comes from KITE_POST_SITE and must outlive the
  // executor (it always does: the registry is process-global).
  template <typename Fn>
  void PostAt(SimTime when, const DispatchSite* site, Fn&& fn) {
    Event* ev = NewEvent(when, /*daemon=*/false);
    ev->site = site->index;
    InstallCallback(ev, std::forward<Fn>(fn));
    Insert(ev);
  }
  template <typename Fn>
  void PostAfter(SimDuration delay, const DispatchSite* site, Fn&& fn) {
    if (delay < SimDuration(0)) {
      delay = SimDuration(0);
    }
    PostAt(now_ + delay, site, std::forward<Fn>(fn));
  }
  template <typename Fn>
  void Post(const DispatchSite* site, Fn&& fn) {
    PostAt(now_, site, std::forward<Fn>(fn));
  }

  // Daemon events: background housekeeping (the health watchdog's periodic
  // probe) that must not keep the simulation alive. They fire like normal
  // events while anything else is scheduled, but idle()/RunUntilIdle count
  // only non-daemon events — a self-reposting daemon loop therefore cannot
  // turn RunUntilIdle into an infinite loop, and a quiesced system still
  // quiesces with the watchdog armed.
  template <typename Fn>
  void PostDaemonAt(SimTime when, Fn&& fn) {
    Event* ev = NewEvent(when, /*daemon=*/true);
    InstallCallback(ev, std::forward<Fn>(fn));
    Insert(ev);
  }
  template <typename Fn>
  void PostDaemonAfter(SimDuration delay, Fn&& fn) {
    if (delay < SimDuration(0)) {
      delay = SimDuration(0);
    }
    PostDaemonAt(now_ + delay, std::forward<Fn>(fn));
  }
  template <typename Fn>
  void PostDaemonAt(SimTime when, const DispatchSite* site, Fn&& fn) {
    Event* ev = NewEvent(when, /*daemon=*/true);
    ev->site = site->index;
    InstallCallback(ev, std::forward<Fn>(fn));
    Insert(ev);
  }
  template <typename Fn>
  void PostDaemonAfter(SimDuration delay, const DispatchSite* site, Fn&& fn) {
    if (delay < SimDuration(0)) {
      delay = SimDuration(0);
    }
    PostDaemonAt(now_ + delay, site, std::forward<Fn>(fn));
  }

  // Runs a single event; returns false if the queue is empty. Not reentrant:
  // handlers must not call Step/RunUntil themselves (they never have).
  bool Step();
  // Runs until no non-daemon events remain (daemon events scheduled earlier
  // than the last non-daemon event still fire in order).
  void RunUntilIdle();
  // Runs events with timestamp <= deadline; Now() ends at the deadline
  // (even if the queue drained earlier) so time-window rate math is exact.
  void RunUntil(SimTime deadline);
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  // --- Schedule shuffle (deterministic simulation testing). ---
  // Randomizes tie-breaking among same-timestamp events from a seeded RNG.
  // Call before scheduling anything for full coverage; enabling mid-run only
  // affects events queued afterwards. Same seed → same schedule, always.
  // Events posted at the current instant are exempt (Post FIFO contract).
  void EnableShuffle(uint64_t seed) {
    shuffle_ = true;
    shuffle_rng_ = Rng(seed);
  }

  // Number of events executed since construction (for sanity checks).
  uint64_t steps_executed() const { return steps_; }
  // Idle == no non-daemon work left. A pending daemon probe does not count:
  // it represents the watchdog watching, not the simulation doing.
  bool idle() const { return non_daemon_pending_ == 0; }
  // Pending events (diagnostics, e.g. "why did WaitUntil time out?").
  size_t queue_size() const { return pending_count_; }

  // --- Pending-queue diagnostics. ---
  // Snapshot of queued events in firing order (earliest first), truncated to
  // `max`. Lets a stuck exploration seed answer "what was the simulation
  // waiting on" from the failure artifact alone.
  struct PendingEvent {
    SimTime at;
    uint64_t seq = 0;   // Insertion order (global, monotonic).
    uint32_t site = kDispatchSiteUntagged;  // Where it was posted.
    bool is_daemon = false;
  };
  std::vector<PendingEvent> PendingEvents(size_t max = 16) const;
  // Human-readable rendering of PendingEvents plus the queue size, one event
  // per line with its posting site's label — what WaitUntil timeouts and
  // kite_explore aborts print.
  std::string FormatPendingEvents(size_t max = 16) const;

  // --- Dispatch profiler. ---
  // Starts attributing dispatch cost to posting sites. Invocation counts are
  // exact; wall-clock time is measured on 1-in-2^shift dispatches (default
  // 1/64) and scaled, keeping the enabled overhead a small fraction of the
  // ~50 ns dispatch fast path. All accumulation is host-side: enabling the
  // profiler never changes simulated time or event order.
  void EnableDispatchProfiler();
  bool dispatch_profiler_enabled() const { return profile_ != nullptr; }
  // Sampling granularity: wall time is measured on 1-in-2^shift dispatches.
  // 0 times every dispatch (tests); takes effect from the next Enable or
  // immediately if already enabled.
  void set_profile_sample_shift(int shift) {
    profile_sample_shift_ = shift;
    if (profile_ != nullptr) {
      profile_->sample_mask = (uint64_t{1} << shift) - 1;
    }
  }
  // Per-site rows sorted by estimated wall time (descending), label as the
  // final tie-break. Empty when the profiler was never enabled.
  std::vector<DispatchProfileEntry> DispatchProfile() const;

 private:
  // Timer-wheel geometry: 7 levels of 64 slots, 1 ns per level-0 tick. A
  // level-l slot covers 64^l ns; the whole wheel spans 2^42 ns past the
  // cursor. Anything further out waits in the overflow heap until the cursor
  // enters its 2^42 ns era.
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;          // 64
  static constexpr int kLevels = 7;
  static constexpr int kHorizonBits = kLevelBits * kLevels;       // 42
  static constexpr uint64_t kSlotMask = kSlotsPerLevel - 1;

  // A pooled event node. The node never moves while queued, so inline
  // callbacks need no move support.
  struct Event {
    SimTime at;
    uint64_t tie;  // == seq normally; an RNG draw for shuffled future events.
    uint64_t seq;
    Event* next;   // Wheel-slot chain / pool free list.
    void (*invoke)(Event*);   // Runs the stored callable.
    void (*destroy)(Event*);  // Destroys it (null if trivially destructible).
    bool daemon;
    uint32_t site;  // DispatchSite index; fits in the pre-storage padding.
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };
  static_assert(sizeof(Event) == 128, "event node must stay two cache lines");

  template <typename Fn>
  static void InstallCallback(Event* ev, Fn&& fn) {
    using F = std::decay_t<Fn>;
    static_assert(std::is_invocable_v<F&>, "executor callbacks take no arguments");
    if constexpr (sizeof(F) <= kInlineCallbackBytes &&
                  alignof(F) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(ev->storage)) F(std::forward<Fn>(fn));
      ev->invoke = [](Event* e) { (*std::launder(reinterpret_cast<F*>(e->storage)))(); };
      if constexpr (std::is_trivially_destructible_v<F>) {
        ev->destroy = nullptr;
      } else {
        ev->destroy = [](Event* e) {
          std::launder(reinterpret_cast<F*>(e->storage))->~F();
        };
      }
    } else {
      F* boxed = new F(std::forward<Fn>(fn));
      std::memcpy(ev->storage, &boxed, sizeof(boxed));
      ev->invoke = [](Event* e) {
        F* f;
        std::memcpy(&f, e->storage, sizeof(f));
        (*f)();
      };
      ev->destroy = [](Event* e) {
        F* f;
        std::memcpy(&f, e->storage, sizeof(f));
        delete f;
      };
    }
  }

  Event* NewEvent(SimTime when, bool daemon);
  void FreeEvent(Event* ev);
  void Insert(Event* ev);       // Counts the event, then places it.
  void WheelInsert(Event* ev);  // Placement only (also used by cascades).
  void PromoteOverflow();
  // Extracts the next exact-timestamp slot (≤ limit) into batch_, advancing
  // the cursor and cascading higher wheel levels as needed. Returns false if
  // nothing is due at or before the limit.
  bool LoadNextBatch(SimTime limit);
  // Moves the cursor forward without dispatching (RunUntil deadline), then
  // cascades any level-l slot the cursor landed in so lower levels stay
  // authoritative for "earliest event".
  void JumpCursor(int64_t to_ns);
  void DispatchOne(Event* ev);
  // The profiled tail of DispatchOne: runs + reclaims the event while
  // accumulating per-site stats. Out of line so the common path stays lean.
  void ProfiledDispatch(Event* ev);
  // Appends every queued event (batch remainder, wheel, overflow) to *out.
  void CollectPending(std::vector<const Event*>* out) const;

  SimTime now_;
  // The wheel's reference point: no undelivered event is earlier. Equal to
  // now_ whenever user code can observe the executor; runs ahead of now_
  // only transiently inside LoadNextBatch cascades.
  int64_t cursor_ns_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t steps_ = 0;
  size_t pending_count_ = 0;
  size_t non_daemon_pending_ = 0;
  bool shuffle_ = false;
  Rng shuffle_rng_{0};

  Event* wheel_[kLevels][kSlotsPerLevel] = {};
  uint64_t occupied_[kLevels] = {};  // Bit s set ⇔ wheel_[l][s] non-empty.
  std::vector<Event*> overflow_;     // Min-heap by (at, tie, seq).

  // The slot currently being dispatched, sorted by (tie, seq). Events at
  // [batch_pos_, size) are still pending; same-time events posted during the
  // batch land back in the slot and form the next batch.
  std::vector<Event*> batch_;
  size_t batch_pos_ = 0;

  // Node pool: chunked storage plus a free list threaded through `next`.
  Event* free_list_ = nullptr;
  std::vector<std::unique_ptr<Event[]>> chunks_;

  // Dispatch-profiler state, allocated only when enabled: the disabled cost
  // in DispatchOne is one null test (same contract as tracing).
  struct SiteStat {
    uint64_t invocations = 0;
    uint64_t samples = 0;
    uint64_t sampled_wall_ns = 0;
  };
  struct ProfileState {
    std::vector<SiteStat> stats;  // Indexed by DispatchSite index.
    uint64_t dispatch_counter = 0;
    uint64_t sample_mask = 0;  // Time the dispatch when (ctr & mask) == 0.
  };
  std::unique_ptr<ProfileState> profile_;
  int profile_sample_shift_ = 6;  // Default: time 1-in-64 dispatches.
};

}  // namespace kite

#endif  // SRC_SIM_EXECUTOR_H_
