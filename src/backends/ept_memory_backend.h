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

class EptMemoryBackend : public MemoryBackendBase {
 public:
  EptMemoryBackend(HostHypervisor& l0, HostHypervisor::Vm& vm, bool kpti)
      : MemoryBackendBase(l0.sim(), l0.costs(), l0.counters(), "ept:" + vm.name(), vm.vpid()),
        l0_(&l0),
        vm_(&vm),
        kpti_(kpti) {}

  std::string_view name() const override { return "kvm-ept"; }

  Task<void> access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel, std::uint64_t gva,
                    AccessType access, bool user_mode) override;
  Task<void> gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, std::uint64_t gpa_frame,
                     PteFlags flags) override;
  Task<void> gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) override;
  Task<void> gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, bool writable,
                         bool mark_cow) override;
  Task<void> activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) override;

 private:
  HostHypervisor* l0_;
  HostHypervisor::Vm* vm_;
  bool kpti_;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_EPT_MEMORY_BACKEND_H_
