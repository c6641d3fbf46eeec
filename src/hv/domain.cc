#include "src/hv/domain.h"

#include "src/base/strings.h"
#include "src/hv/hypervisor.h"

namespace kite {

Domain::Domain(Hypervisor* hv, DomId id, std::string name, int vcpus, int memory_mb)
    : hv_(hv), id_(id), name_(std::move(name)), memory_mb_(memory_mb), grant_table_(id) {
  for (int i = 0; i < vcpus; ++i) {
    vcpus_.push_back(std::make_unique<Vcpu>(hv->executor()));
    if (hv->cpu_attribution()) {
      vcpus_.back()->EnableAttribution();
    }
  }
}

bool Domain::StoreWrite(const std::string& path, const std::string& value) {
  hv_->ChargeXenstoreOp(this);
  return hv_->store().Write(id_, path, value);
}

bool Domain::StoreWriteInt(const std::string& path, int64_t value) {
  hv_->ChargeXenstoreOp(this);
  return hv_->store().WriteInt(id_, path, value);
}

std::optional<std::string> Domain::StoreRead(const std::string& path) {
  hv_->ChargeXenstoreOp(this);
  if (hv_->faults().ShouldFail(FaultSite::kXenstoreRead)) {
    return std::nullopt;
  }
  return hv_->store().Read(id_, path);
}

std::optional<int64_t> Domain::StoreReadInt(const std::string& path) {
  hv_->ChargeXenstoreOp(this);
  if (hv_->faults().ShouldFail(FaultSite::kXenstoreRead)) {
    return std::nullopt;
  }
  return hv_->store().ReadInt(id_, path);
}

std::optional<std::vector<std::string>> Domain::StoreList(const std::string& path) {
  hv_->ChargeXenstoreOp(this);
  if (hv_->faults().ShouldFail(FaultSite::kXenstoreRead)) {
    return std::nullopt;
  }
  return hv_->store().List(id_, path);
}

bool Domain::StoreRemove(const std::string& path) {
  hv_->ChargeXenstoreOp(this);
  return hv_->store().Remove(id_, path);
}

WatchId Domain::StoreWatch(const std::string& prefix, const std::string& token, WatchFn fn) {
  hv_->ChargeXenstoreOp(this);
  return hv_->store().AddWatch(id_, prefix, token, std::move(fn));
}

std::string Domain::store_home() const { return StrFormat("/local/domain/%d", id_); }

}  // namespace kite
