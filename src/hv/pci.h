// PCI passthrough device model.
//
// A PciDevice (NIC, NVMe controller) is assigned to exactly one domain —
// Dom0 or a driver domain — via PCI passthrough. With the IOMMU enabled
// (required by MLS OSs, paper §2.3), DMA initiated by the device is validated
// against the owning domain, so the device cannot corrupt other domains.
#ifndef SRC_HV_PCI_H_
#define SRC_HV_PCI_H_

#include <functional>
#include <string>

#include "src/sim/time.h"

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

  // Device driver (in the owning domain) registers its interrupt handler.
  void SetIrqHandler(std::function<void()> fn) { irq_handler_ = std::move(fn); }

  // Raises the device interrupt: delivered to the owner with IRQ latency and
  // dispatch cost (implemented in pci/domain glue in hypervisor.cc).
  void RaiseIrq();

  // DMA validation: returns true if the device may DMA into `target`'s
  // memory. With IOMMU this is owner-only; without, any domain (the unsafe
  // pre-IOMMU world the paper contrasts against).
  bool DmaAllowed(const Domain* target) const;

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
  bool iommu_ = true;
  std::function<void()> irq_handler_;
};

}  // namespace kite

#endif  // SRC_HV_PCI_H_
