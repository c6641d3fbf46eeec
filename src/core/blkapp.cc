#include "src/core/blkapp.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {

BlockStatusApp::BlockStatusApp(BmkSched* sched, StorageBackendDriver* driver,
                               std::string physical_bdf)
    : sched_(sched),
      driver_(driver),
      physical_bdf_(std::move(physical_bdf)),
      vbd_wake_(sched->executor()) {
  driver_->SetOnNew([this](BlkbackInstance* vbd) {
    pending_.push_back(vbd);
    vbd_wake_.Signal();
  });
  // Drop reaped instances from the status view and the hotplug queue — the
  // pointer is about to go away.
  driver_->SetOnGone([this](BlkbackInstance* vbd) {
    std::erase(pending_, vbd);
    std::erase_if(status_, [vbd](const VbdStatus& s) {
      return s.frontend_dom == vbd->frontend_dom() && s.devid == vbd->devid();
    });
  });
  sched_->Spawn("block-status-app", [this] { return MainLoop(); });
}

std::vector<BlockStatusApp::VbdStatus> BlockStatusApp::Status() const { return status_; }

Task BlockStatusApp::MainLoop() {
  for (;;) {
    co_await vbd_wake_.Wait();
    while (!pending_.empty()) {
      BlkbackInstance* vbd = pending_.front();
      pending_.pop_front();
      // Record the device-specific information the Linux hotplug scripts
      // would have written (a few ioctl-priced operations).
      {
        CpuScope cpu_scope(KITE_CPU_CATEGORY("app/config"));
        sched_->vcpu()->Charge(Micros(12));
      }
      status_.push_back({vbd->frontend_dom(), vbd->devid(), vbd->connected()});
      ++vbds_configured_;
      KITE_LOG(Info) << "block-status-app: vbd for dom " << vbd->frontend_dom()
                     << " devid " << vbd->devid() << " connected";
      co_await sched_->Yield();
    }
  }
}

}  // namespace kite
