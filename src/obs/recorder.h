// Observability: the always-on flight recorder.
//
// A black box for the simulator: every domain gets a fixed-size ring of
// structured recent events (xenbus state switches, ring push watermarks,
// grant map/unmap, swallowed event kicks, fault trips, instance reaps,
// health transitions) recorded unconditionally — no enable flag, no
// allocation on the hot path, one masked store per record. When a
// KITE_CHECK aborts or kite_explore wedges, the tail of each ring says what
// the last ~256 things each domain did, which is exactly the context the
// one-line check message discards.
//
// A destroyed domain's ring stays readable until kDeadRings later deaths
// evict it, so the recorder holds the live domains' rings plus the last
// kDeadRings dead ones however many guests come and go.
//
// Records are PODs of (time, kind, dom, dev, a, b); the meaning of a/b is
// per-kind (DESIGN.md §11). Strings are deliberately excluded so a record
// is 32 bytes and the ring never allocates after construction. Dump output
// depends only on recorded values and simulated time, so identical seeds
// produce byte-identical dumps — asserted by the wraparound determinism
// test.
#ifndef SRC_OBS_RECORDER_H_
#define SRC_OBS_RECORDER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/executor.h"

namespace kite {

enum class FlightKind : uint8_t {
  kDomainCreated,     // a=vcpus, b=memory_mb
  kDomainDestroyed,   // a=0, b=0
  kXenbusSwitch,      // a=new XenbusState (numeric), b=0
  kRingPush,          // dev=devid, a=rsp_prod, b=req_cons (backend watermarks)
  kGrantMap,          // dev=owner dom, a=grant ref, b=0
  kGrantMapFail,      // dev=owner dom, a=grant ref, b=0
  kGrantUnmap,        // dev=owner dom, a=grant ref, b=0
  kEventDropped,      // dev=port, a=0 (send on masked/unbound port)
  kEventVanished,     // dev=port, a=0 (peer domain died)
  kFaultTripped,      // dev=FaultSite (numeric), a=total trips at that site
  kInstanceReaped,    // dev=devid, a=dead frontend dom
  kHealthTransition,  // dev=devid, a=old HealthState, b=new HealthState
  kMigrateStart,      // dev=devid, a=from dom, b=to dom (guest's ring)
  kMigrateDone,       // dev=devid, a=to dom, b=1 success / 0 failure
  kInstanceRetired,   // dev=devid, a=frontend dom (graceful drain complete)
};

const char* FlightKindName(FlightKind kind);

struct FlightRecord {
  int64_t t_ns = 0;
  FlightKind kind{};
  int32_t dom = 0;  // Domain whose ring holds the record.
  int32_t dev = 0;  // Kind-specific (device id, port, peer dom, ...).
  uint64_t a = 0;
  uint64_t b = 0;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;  // Per-domain; power of two.
  // How many destroyed domains' rings are kept: those of the latest deaths.
  static constexpr size_t kDeadRings = 16;

  // `capacity` is rounded up to a power of two so the hot path masks
  // instead of dividing.
  explicit FlightRecorder(Executor* executor, size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // One domain's ring. Stable address once created, so hot paths may cache
  // the pointer instead of re-looking-up by dom id.
  class DomainRing {
   public:
    DomainRing(Executor* executor, int32_t dom, size_t capacity)
        : executor_(executor), dom_(dom), mask_(capacity - 1), slots_(capacity) {}

    void Record(FlightKind kind, int32_t dev, uint64_t a, uint64_t b) {
      FlightRecord& slot = slots_[head_ & mask_];
      slot.t_ns = executor_->Now().ns();
      slot.kind = kind;
      slot.dom = dom_;
      slot.dev = dev;
      slot.a = a;
      slot.b = b;
      ++head_;
    }

    // Total records ever written (>= capacity means the ring has wrapped).
    uint64_t recorded() const { return head_; }
    size_t capacity() const { return mask_ + 1; }
    // Oldest-first copy of the last min(recorded, capacity, max) records.
    std::vector<FlightRecord> Tail(size_t max) const;

   private:
    Executor* executor_;
    int32_t dom_;
    uint64_t head_ = 0;
    size_t mask_;
    std::vector<FlightRecord> slots_;
  };

  // Get-or-create. A ring persists after its domain dies (that is the point
  // — the black box of a destroyed domain is still readable) until
  // kDeadRings later deaths evict it; a destroyed domain without a ring gets
  // none, so this is null for it.
  DomainRing* ring(int32_t dom);

  // Hot-path convenience when the caller has no cached ring. A late record
  // for a destroyed domain whose ring was evicted is dropped.
  void Record(int32_t dom, FlightKind kind, int32_t dev = 0, uint64_t a = 0,
              uint64_t b = 0) {
    if (DomainRing* r = ring(dom)) {
      r->Record(kind, dev, a, b);
    }
  }

  // Domain `dom` was destroyed: its ring joins the dead ones kept, and the
  // oldest dead ring beyond kDeadRings is freed.
  void DomainDestroyed(int32_t dom);

  uint64_t recorded(int32_t dom) const;
  uint64_t total_recorded() const;
  // Rings held: the live domains' plus at most kDeadRings dead ones.
  size_t ring_count() const { return rings_.size(); }

  // Human-readable tail of one domain's ring, oldest first.
  std::string FormatTail(int32_t dom, size_t max = 32) const;
  // All domains in id order — the flight-recorder section of DumpDiagnostics.
  std::string FormatAll(size_t max_per_domain = 32) const;

 private:
  Executor* executor_;
  size_t capacity_;
  std::map<int32_t, std::unique_ptr<DomainRing>> rings_;
  // Dead domains whose rings are kept, oldest death first.
  std::deque<int32_t> dead_rings_;
  // Indexed by domain id (ids are never reused): destroyed.
  std::vector<bool> destroyed_;
};

}  // namespace kite

#endif  // SRC_OBS_RECORDER_H_
