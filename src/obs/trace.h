// Observability: the event tracer, producing Chrome trace_event JSON.
//
// The tracer records simulator events — hypercalls with their cost,
// event-channel sends/suppressions/deliveries, ring push/notify decisions,
// grant map/copy/unmap, domain lifecycle — keyed to *simulated* time, and
// dumps them in the Chrome trace_event format so a run can be opened in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Compiled in but off by default. The hypervisor owns the one tracer, and
// every instrumentation site is guarded as
//   if (tracer_.enabled()) { tracer_....; }
// so the disabled cost is one byte load — measurably zero against even the
// cheapest simulated hypercall.
//
// Mapping: pid = domain id (with a process_name metadata record carrying the
// domain name), tid = a small per-domain track id chosen by the caller,
// ts/dur = simulated nanoseconds exported as fractional microseconds.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace kite {

class EventTracer {
 public:
  // `max_events` bounds memory; records past the cap are counted in
  // dropped() instead of stored, except that the very first drop stores one
  // synthetic "truncated" instant at the drop point (so the viewer shows
  // *where* the trace went dark, and size() may exceed the cap by one).
  explicit EventTracer(size_t max_events = 1 << 20) : max_events_(max_events) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // One argument slot is enough for every current call site; events without
  // an argument pass `arg_key = nullptr`.
  // Duration event ("ph":"X"): an operation with a cost.
  void Complete(int pid, int tid, const char* cat, const char* name, SimTime start,
                SimDuration dur, const char* arg_key = nullptr, int64_t arg_value = 0);
  // Instant event ("ph":"i"): a point occurrence (a drop, a suppression).
  void Instant(int pid, int tid, const char* cat, const char* name, SimTime at,
               const char* arg_key = nullptr, int64_t arg_value = 0);

  // Flow events stitch one logical request across domains: a FlowBegin at
  // the producing side, FlowSteps at intermediate hops, a FlowEnd at the
  // completing side, all carrying the same 64-bit `flow_id` (DESIGN.md §10).
  // Each call also records an anchor slice ("ph":"X", duration `dur`) at the
  // same point, because viewers bind flow arrows to an enclosing slice on
  // the thread track; pass the stage's charged cost when one exists, else 0.
  void FlowBegin(int pid, int tid, const char* cat, const char* name, SimTime at,
                 uint64_t flow_id, SimDuration dur = SimDuration(0));
  void FlowStep(int pid, int tid, const char* cat, const char* name, SimTime at,
                uint64_t flow_id, SimDuration dur = SimDuration(0));
  void FlowEnd(int pid, int tid, const char* cat, const char* name, SimTime at,
               uint64_t flow_id, SimDuration dur = SimDuration(0));

  // Metadata: names the pid track ("process_name") in the viewer.
  void SetProcessName(int pid, const std::string& name);
  // Every pid named so far, destroyed domains included.
  const std::map<int, std::string>& process_names() const { return process_names_; }

  size_t size() const { return events_.size(); }
  uint64_t dropped() const { return dropped_; }
  void Clear();

  // `{"traceEvents":[...]}` — the JSON object form, which Perfetto and
  // chrome://tracing both accept.
  std::string ToJson() const;
  // Writes ToJson() to `path`; returns false on I/O failure.
  bool DumpTrace(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'X', 'i', or flow 's'/'t'/'f'.
    int pid;
    int tid;
    const char* cat;
    const char* name;
    int64_t ts_ns;
    int64_t dur_ns;
    const char* arg_key;  // nullptr when the event has no argument.
    int64_t arg_value;
    uint64_t flow_id = 0;  // Flow events only.
  };

  bool Admit(int pid, int tid, int64_t ts_ns);
  void FlowPoint(char phase, int pid, int tid, const char* cat, const char* name,
                 SimTime at, uint64_t flow_id, SimDuration dur);

  bool enabled_ = false;
  size_t max_events_;
  uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::map<int, std::string> process_names_;
};

}  // namespace kite

#endif  // SRC_OBS_TRACE_H_
