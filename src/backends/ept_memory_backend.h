// kvm-ept (BM): single-level hardware memory virtualization.
//
// The guest owns GPT2 and handles its own page faults without exits; only
// EPT01 violations (first touch of a guest-physical page) reach L0. This is
// the baseline every other scheme is measured against.

#ifndef PVM_SRC_BACKENDS_EPT_MEMORY_BACKEND_H_
#define PVM_SRC_BACKENDS_EPT_MEMORY_BACKEND_H_

#include "src/backends/memory_common.h"
#include "src/hv/host_hypervisor.h"

namespace pvm {

class EptMemoryBackend : public GuestPtBackend {
 public:
  EptMemoryBackend(HostHypervisor& l0, HostHypervisor::Vm& vm, bool kpti)
      : GuestPtBackend(l0.sim(), l0.costs(), l0.counters(), "ept:" + vm.name(), vm.vpid(), kpti,
                       /*max_attempts=*/16, /*opens_fault_span=*/true),
        l0_(&l0),
        vm_(&vm) {}

  std::string_view name() const override { return "kvm-ept"; }

 protected:
  TwoDimWalk hardware_walk(GuestProcess& proc, const GuestAccess& access) override {
    return walk_two_dimensional(proc.gpt(), vm_->ept(), access.gva, access.type,
                                access.user_mode);
  }
  Task<bool> resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                           const GuestAccess& access, const TwoDimWalk& walk) override;

 private:
  HostHypervisor* l0_;
  HostHypervisor::Vm* vm_;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_EPT_MEMORY_BACKEND_H_
