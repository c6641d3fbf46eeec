#include "src/obs/trace.h"

#include "src/base/artifact.h"
#include "src/base/strings.h"

namespace kite {

bool EventTracer::Admit(int pid, int tid, int64_t ts_ns) {
  if (events_.size() >= max_events_) {
    if (dropped_ == 0) {
      // First drop: leave a marker at the drop point. The viewer then shows
      // exactly where the trace went dark instead of just ending; the
      // events_dropped counter says how much followed. This one record may
      // push size() to max_events_ + 1 — bounded, and only once.
      events_.push_back(
          {'i', pid, tid, "trace", "truncated", ts_ns, 0, "events_dropped_after", 1});
    }
    ++dropped_;
    return false;
  }
  return true;
}

void EventTracer::Complete(int pid, int tid, const char* cat, const char* name,
                           SimTime start, SimDuration dur, const char* arg_key,
                           int64_t arg_value) {
  if (!enabled_ || !Admit(pid, tid, start.ns())) {
    return;
  }
  events_.push_back({'X', pid, tid, cat, name, start.ns(), dur.ns(), arg_key, arg_value});
}

void EventTracer::Instant(int pid, int tid, const char* cat, const char* name, SimTime at,
                          const char* arg_key, int64_t arg_value) {
  if (!enabled_ || !Admit(pid, tid, at.ns())) {
    return;
  }
  events_.push_back({'i', pid, tid, cat, name, at.ns(), 0, arg_key, arg_value});
}

void EventTracer::FlowPoint(char phase, int pid, int tid, const char* cat,
                            const char* name, SimTime at, uint64_t flow_id,
                            SimDuration dur) {
  if (!enabled_) {
    return;
  }
  // Anchor slice first: viewers bind the flow record to the slice that
  // encloses its timestamp on this thread track.
  if (Admit(pid, tid, at.ns())) {
    events_.push_back({'X', pid, tid, cat, name, at.ns(), dur.ns(), nullptr, 0});
  }
  if (Admit(pid, tid, at.ns())) {
    events_.push_back({phase, pid, tid, cat, name, at.ns(), 0, nullptr, 0, flow_id});
  }
}

void EventTracer::FlowBegin(int pid, int tid, const char* cat, const char* name,
                            SimTime at, uint64_t flow_id, SimDuration dur) {
  FlowPoint('s', pid, tid, cat, name, at, flow_id, dur);
}

void EventTracer::FlowStep(int pid, int tid, const char* cat, const char* name,
                           SimTime at, uint64_t flow_id, SimDuration dur) {
  FlowPoint('t', pid, tid, cat, name, at, flow_id, dur);
}

void EventTracer::FlowEnd(int pid, int tid, const char* cat, const char* name,
                          SimTime at, uint64_t flow_id, SimDuration dur) {
  FlowPoint('f', pid, tid, cat, name, at, flow_id, dur);
}

void EventTracer::SetProcessName(int pid, const std::string& name) {
  process_names_[pid] = name;
}

void EventTracer::Clear() {
  events_.clear();
  dropped_ = 0;
}

std::string EventTracer::ToJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, name] : process_names_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrFormat(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, JsonEscape(name).c_str());
  }
  for (const Event& e : events_) {
    if (!first) {
      out += ",";
    }
    first = false;
    // ts/dur are microseconds in the trace_event format; keep nanosecond
    // precision as a fraction.
    out += StrFormat("{\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\","
                     "\"ts\":%.3f",
                     e.phase, e.pid, e.tid, e.cat, e.name,
                     static_cast<double>(e.ts_ns) / 1e3);
    if (e.phase == 'X') {
      out += StrFormat(",\"dur\":%.3f", static_cast<double>(e.dur_ns) / 1e3);
    } else if (e.phase == 'i') {
      out += ",\"s\":\"t\"";  // Instant scope: thread.
    } else {
      // Flow event ('s'/'t'/'f'): the id correlates begin/step/end records.
      out += StrFormat(",\"id\":\"0x%llx\"", static_cast<unsigned long long>(e.flow_id));
      if (e.phase == 'f') {
        out += ",\"bp\":\"e\"";  // Bind the arrowhead to the enclosing slice.
      }
    }
    if (e.arg_key != nullptr) {
      out += StrFormat(",\"args\":{\"%s\":%lld}", e.arg_key,
                       static_cast<long long>(e.arg_value));
    }
    out += "}";
  }
  out += "]}";
  return out;
}

bool EventTracer::DumpTrace(const std::string& path) const {
  return WriteArtifactFile(path, ToJson());
}

}  // namespace kite
