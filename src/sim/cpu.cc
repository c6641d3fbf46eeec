#include "src/sim/cpu.h"

#include "src/sim/intern.h"

namespace kite {
namespace {

LabelRegistry<CpuCategory>& Categories() {
  static auto* categories = new LabelRegistry<CpuCategory>({"(unattributed)"});
  return *categories;
}

// Ambient category for Charge. The simulation is single-threaded; scopes
// save/restore this, so it is always consistent with the C++ scope nesting
// of the currently running event.
uint32_t g_current_category = kCpuUnattributedIndex;

}  // namespace

const CpuCategory* RegisterCpuCategory(const char* label) { return Categories().Intern(label); }

size_t CpuCategoryCount() { return Categories().Count(); }

const char* CpuCategoryLabel(uint32_t index) { return Categories().Label(index); }

CpuScope::CpuScope(const CpuCategory* category) : saved_(g_current_category) {
  g_current_category = category->index;
}

CpuScope::~CpuScope() { g_current_category = saved_; }

uint32_t CurrentCpuCategory() { return g_current_category; }

SimTime Vcpu::Charge(SimDuration cost) {
  if (cost < SimDuration(0)) {
    cost = SimDuration(0);
  }
  const SimTime now = executor_->Now();
  SimTime start = now;
  if (free_at_ > start) {
    start = free_at_;
  }
  free_at_ = start + cost;
  if (ledger_ == nullptr) {
    busy_total_ += cost;
  } else {
    // `start` already holds max(now, old free_at_): the wait is how far the
    // busy horizon pushed this request past "now". The common case is
    // inlined here; RecordAttribution is the cold grow-then-record path for
    // a category index the ledger hasn't seen yet. busy_total_ is NOT
    // updated on this path — busy_total() derives it from the ledger.
    CpuLedger* ledger = ledger_.get();
    const uint32_t category = g_current_category;
    if (__builtin_expect(category < ledger->busy_ns.size(), 1)) {
      ledger->busy_ns[category] += static_cast<uint64_t>(cost.ns());
      ledger->wait_hist.Record(static_cast<uint64_t>((start - now).ns()));
    } else {
      RecordAttribution(cost, start - now);
    }
  }
  return free_at_;
}

void Vcpu::EnableAttribution() {
  if (ledger_ == nullptr) {
    ledger_ = std::make_unique<CpuLedger>();
  }
}

SimDuration Vcpu::attributed_busy(uint32_t category) const {
  if (ledger_ == nullptr || category >= ledger_->busy_ns.size()) {
    return SimDuration(0);
  }
  return Nanos(static_cast<int64_t>(ledger_->busy_ns[category]));
}

void Vcpu::RecordAttribution(SimDuration cost, SimDuration wait) {
  CpuLedger* ledger = ledger_.get();
  const uint32_t category = g_current_category;
  if (__builtin_expect(category >= ledger->busy_ns.size(), 0)) {
    // Categories register lazily; size to the full registry so one resize
    // covers every label seen so far.
    ledger->busy_ns.resize(CpuCategoryCount(), 0);
  }
  ledger->busy_ns[category] += static_cast<uint64_t>(cost.ns());
  ledger->wait_hist.Record(static_cast<uint64_t>(wait.ns()));
}

}  // namespace kite
