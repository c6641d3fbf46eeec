// PCI passthrough device model.
//
// A PciDevice (NIC, NVMe controller) is assigned to exactly one domain —
// Dom0 or a driver domain — via PCI passthrough. The devices charge their
// owner's vCPU directly (a NIC's receive processing) or complete through
// callbacks (a disk), so the model keeps only assignment and its hooks.
#ifndef SRC_HV_PCI_H_
#define SRC_HV_PCI_H_

#include <string>
#include <utility>

namespace kite {

class Domain;

class PciDevice {
 public:
  PciDevice(std::string bdf, std::string name)
      : bdf_(std::move(bdf)), name_(std::move(name)) {}
  virtual ~PciDevice() = default;

  PciDevice(const PciDevice&) = delete;
  PciDevice& operator=(const PciDevice&) = delete;

  const std::string& bdf() const { return bdf_; }
  const std::string& name() const { return name_; }

  Domain* owner() const { return owner_; }

  // Called by the hypervisor on assignment; overridable for device bring-up.
  virtual void OnAssigned(Domain* owner) {}

  // Called by the hypervisor when the device is released (explicit unassign
  // or owner destruction) so the model can drop references into the old
  // owner — e.g. the vCPU that receive processing was charged to.
  virtual void OnUnassigned() {}

 private:
  friend class Hypervisor;

  std::string bdf_;
  std::string name_;
  Domain* owner_ = nullptr;
};

}  // namespace kite

#endif  // SRC_HV_PCI_H_
