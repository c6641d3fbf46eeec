#include "src/obs/profile.h"

#include <algorithm>

#include "src/base/artifact.h"
#include "src/base/strings.h"

namespace kite {

std::string FormatDispatchProfile(const Executor& executor, size_t top_n) {
  if (!executor.dispatch_profiler_enabled()) {
    return "(dispatch profiler disabled)\n";
  }
  const std::vector<DispatchProfileEntry> profile = executor.DispatchProfile();
  uint64_t total_invocations = 0;
  uint64_t total_est_ns = 0;
  for (const DispatchProfileEntry& e : profile) {
    total_invocations += e.invocations;
    total_est_ns += e.est_wall_ns;
  }
  std::string out =
      StrFormat("%llu dispatches across %zu site(s), est %.3f ms dispatch time\n",
                static_cast<unsigned long long>(total_invocations), profile.size(),
                static_cast<double>(total_est_ns) / 1e6);
  out += StrFormat("  %-36s %12s %8s %10s %8s\n", "site", "calls", "share",
                   "est_ms", "ns/call");
  const size_t n = std::min(top_n, profile.size());
  for (size_t i = 0; i < n; ++i) {
    const DispatchProfileEntry& e = profile[i];
    const double share = total_est_ns == 0
                             ? 0
                             : 100.0 * static_cast<double>(e.est_wall_ns) /
                                   static_cast<double>(total_est_ns);
    const double per_call = e.invocations == 0
                                ? 0
                                : static_cast<double>(e.est_wall_ns) /
                                      static_cast<double>(e.invocations);
    out += StrFormat("  %-36s %12llu %7.1f%% %10.3f %8.0f\n", e.label,
                     static_cast<unsigned long long>(e.invocations), share,
                     static_cast<double>(e.est_wall_ns) / 1e6, per_call);
  }
  if (profile.size() > n) {
    out += StrFormat("  ... %zu more site(s)\n", profile.size() - n);
  }
  return out;
}

std::string DispatchProfileJson(const Executor& executor) {
  uint64_t total_invocations = 0;
  std::vector<std::string> sites;
  for (const DispatchProfileEntry& e : executor.DispatchProfile()) {
    total_invocations += e.invocations;
    sites.push_back(StrFormat(
        "{\"label\":\"%s\",\"invocations\":%llu,\"samples\":%llu,"
        "\"sampled_wall_ns\":%llu,\"est_wall_ns\":%llu}",
        JsonEscape(e.label).c_str(), static_cast<unsigned long long>(e.invocations),
        static_cast<unsigned long long>(e.samples),
        static_cast<unsigned long long>(e.sampled_wall_ns),
        static_cast<unsigned long long>(e.est_wall_ns)));
  }
  ArtifactWriter doc;
  doc.Field("total_dispatches",
            StrFormat("%llu", static_cast<unsigned long long>(total_invocations)));
  doc.Array("sites", sites);
  return doc.Render();
}

}  // namespace kite
