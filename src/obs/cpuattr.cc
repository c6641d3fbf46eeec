#include "src/obs/cpuattr.h"

#include <algorithm>
#include <cstdint>

#include "src/base/artifact.h"
#include "src/base/strings.h"

namespace kite {
namespace {

// All-nonzero categories of one ledger, busy-descending (ties: label
// ascending) — the registry order is registration order, which depends on
// which translation unit's static ran first, so reports sort explicitly to
// stay deterministic.
struct CategoryRow {
  uint32_t index;
  uint64_t busy_ns;
};

std::vector<CategoryRow> SortedCategories(const CpuLedger& ledger) {
  std::vector<CategoryRow> rows;
  for (uint32_t i = 0; i < ledger.busy_ns.size(); ++i) {
    if (ledger.busy_ns[i] == 0) {
      continue;
    }
    rows.push_back({i, ledger.busy_ns[i]});
  }
  std::sort(rows.begin(), rows.end(), [](const CategoryRow& a, const CategoryRow& b) {
    if (a.busy_ns != b.busy_ns) {
      return a.busy_ns > b.busy_ns;
    }
    return std::string(CpuCategoryLabel(a.index)) < CpuCategoryLabel(b.index);
  });
  return rows;
}

std::string FormatMs(uint64_t ns) {
  return StrFormat("%.3fms", static_cast<double>(ns) / 1e6);
}

std::string FormatUs(uint64_t ns) {
  return StrFormat("%.1fus", static_cast<double>(ns) / 1e3);
}

}  // namespace

std::string FormatCpuAttribution(const std::vector<CpuActor>& actors, SimTime now,
                                 size_t top_n) {
  std::string out;
  for (const CpuActor& actor : actors) {
    if (actor.vcpu == nullptr) {
      continue;
    }
    const Vcpu& cpu = *actor.vcpu;
    const uint64_t busy_ns = static_cast<uint64_t>(cpu.busy_total().ns());
    double util = Vcpu::Utilization(SimDuration(0), cpu.busy_total(),
                                    now - SimTime(0));
    // Display clamp only; CpuReportJson keeps the raw ratio.
    if (util > 1.0) {
      util = 1.0;
    }
    out += StrFormat("  %s/vcpu%d: busy %s  util %.1f%%", actor.domain.c_str(),
                     actor.vcpu_index, FormatMs(busy_ns).c_str(), util * 100.0);
    if (!cpu.attribution_enabled()) {
      out += "  (attribution off)\n";
      continue;
    }
    const CpuLedger& ledger = *cpu.ledger();
    const LatencyHistogram& wait = ledger.wait_hist;
    out += StrFormat(
        "  wait p50 %s p99 %s max %s (n=%llu)\n",
        FormatUs(wait.Percentile(50)).c_str(), FormatUs(wait.Percentile(99)).c_str(),
        FormatUs(wait.max()).c_str(), static_cast<unsigned long long>(wait.count()));
    const std::vector<CategoryRow> rows = SortedCategories(ledger);
    const size_t n = std::min(top_n, rows.size());
    for (size_t i = 0; i < n; ++i) {
      const CategoryRow& row = rows[i];
      const double share =
          busy_ns == 0 ? 0
                       : 100.0 * static_cast<double>(row.busy_ns) /
                             static_cast<double>(busy_ns);
      out += StrFormat("    %-24s %12s %6.1f%%\n", CpuCategoryLabel(row.index),
                       FormatMs(row.busy_ns).c_str(), share);
    }
    if (rows.size() > n) {
      out += StrFormat("    ... %zu more categor%s\n", rows.size() - n,
                       rows.size() - n == 1 ? "y" : "ies");
    }
  }
  if (out.empty()) {
    out = "  (no vcpus)\n";
  }
  return out;
}

std::string CpuReportJson(const std::vector<CpuActor>& actors, SimTime now) {
  std::vector<std::string> rows, waits, categories;
  for (const CpuActor& actor : actors) {
    if (actor.vcpu == nullptr) {
      continue;
    }
    const Vcpu& cpu = *actor.vcpu;
    const uint64_t busy_ns = static_cast<uint64_t>(cpu.busy_total().ns());
    const std::string id = StrFormat("\"domain\":\"%s\",\"vcpu\":%d",
                                     JsonEscape(actor.domain).c_str(), actor.vcpu_index);
    rows.push_back(StrFormat(
        "{%s,\"attribution\":%s,\"busy_ns\":%llu,\"util\":%.6f}", id.c_str(),
        cpu.attribution_enabled() ? "true" : "false", static_cast<unsigned long long>(busy_ns),
        Vcpu::Utilization(SimDuration(0), cpu.busy_total(), now - SimTime(0))));
    if (!cpu.attribution_enabled()) {
      continue;
    }
    const LatencyHistogram& wait = cpu.ledger()->wait_hist;
    waits.push_back(StrFormat(
        "{%s,\"count\":%llu,\"total_ns\":%llu,\"max_ns\":%llu,\"p50_ns\":%llu,"
        "\"p90_ns\":%llu,\"p99_ns\":%llu}",
        id.c_str(), static_cast<unsigned long long>(wait.count()),
        static_cast<unsigned long long>(wait.sum()),
        static_cast<unsigned long long>(wait.max()),
        static_cast<unsigned long long>(wait.Percentile(50)),
        static_cast<unsigned long long>(wait.Percentile(90)),
        static_cast<unsigned long long>(wait.Percentile(99))));
    for (const CategoryRow& row : SortedCategories(*cpu.ledger())) {
      const double share =
          busy_ns == 0 ? 0 : static_cast<double>(row.busy_ns) / static_cast<double>(busy_ns);
      categories.push_back(StrFormat(
          "{%s,\"label\":\"%s\",\"busy_ns\":%llu,\"share\":%.6f}", id.c_str(),
          CpuCategoryLabel(row.index), static_cast<unsigned long long>(row.busy_ns), share));
    }
  }
  ArtifactWriter doc;
  doc.Field("t_ns", StrFormat("%lld", static_cast<long long>(now.ns())));
  doc.Array("actors", rows);
  doc.Array("wait", waits);
  doc.Array("categories", categories);
  return doc.Render();
}

}  // namespace kite
