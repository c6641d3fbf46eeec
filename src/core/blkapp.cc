#include "src/core/blkapp.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {

BlockStatusApp::BlockStatusApp(BmkSched* sched, StorageBackendDriver* driver)
    : ConfigApp(sched, driver) {}

std::vector<BlockStatusApp::VbdStatus> BlockStatusApp::Status() const { return status_; }

void BlockStatusApp::Configure(BlkbackInstance* vbd) {
  // Record the device-specific information the Linux hotplug scripts would
  // have written (a few ioctl-priced operations).
  {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("app/config"));
    sched_->vcpu()->Charge(Micros(12));
  }
  status_.push_back({vbd->frontend_dom(), vbd->devid(), vbd->connected()});
  KITE_LOG(Info) << "block-status-app: vbd for dom " << vbd->frontend_dom() << " devid "
                 << vbd->devid() << " connected";
}

void BlockStatusApp::Forget(BlkbackInstance* vbd) {
  std::erase_if(status_, [vbd](const VbdStatus& s) {
    return s.frontend_dom == vbd->frontend_dom() && s.devid == vbd->devid();
  });
}

}  // namespace kite
