// The storage driver domain's block status application (paper Table 1
// "Configuration"): the single-process replacement for Xen's block hotplug
// scripts. It watches the backend vbd directory, records device-specific
// information into xenstore for blkback instances to pick up, and maintains
// a status view.
#ifndef SRC_CORE_BLKAPP_H_
#define SRC_CORE_BLKAPP_H_

#include <vector>

#include "src/bmk/sched.h"
#include "src/blkdrv/blkback.h"
#include "src/core/configapp.h"

namespace kite {

class BlockStatusApp : public ConfigApp<BlkbackInstance> {
 public:
  BlockStatusApp(BmkSched* sched, StorageBackendDriver* driver);

  struct VbdStatus {
    DomId frontend_dom;
    int devid;
    bool connected;
  };
  std::vector<VbdStatus> Status() const;

 private:
  // Records the vbd in the status view.
  void Configure(BlkbackInstance* vbd) override;
  // Drops a reaped vbd from the status view.
  void Forget(BlkbackInstance* vbd) override;

  std::vector<VbdStatus> status_;
};

}  // namespace kite

#endif  // SRC_CORE_BLKAPP_H_
