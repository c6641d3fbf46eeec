// Rendering for the executor dispatch profiler (src/sim/executor.h).
//
// The executor owns the raw per-site counters (src/sim cannot depend on
// src/obs); this module turns them into the human table DumpDiagnostics and
// kite_explore liveness reports embed, and the JSON dump KITE_PROFILE and
// bench_engine write. Invocation counts are exact and deterministic; wall
// times are sampled host-clock measurements (DESIGN.md §15).
#ifndef SRC_OBS_PROFILE_H_
#define SRC_OBS_PROFILE_H_

#include <cstddef>
#include <string>

#include "src/sim/executor.h"

namespace kite {

// Top-N dispatch sites by estimated wall time, one per line with share of
// total, invocation count, and mean ns/dispatch. Returns a "(dispatch
// profiler disabled)" line when the profiler was never enabled.
std::string FormatDispatchProfile(const Executor& executor, size_t top_n = 10);

// Full profile as an artifact (src/base/artifact.h): top-level
// total_dispatches, then a "sites" array of one row per site.
std::string DispatchProfileJson(const Executor& executor);

}  // namespace kite

#endif  // SRC_OBS_PROFILE_H_
