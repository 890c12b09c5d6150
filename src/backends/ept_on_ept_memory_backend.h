// kvm-ept (NST): hardware-assisted nested memory virtualization (EPT-on-EPT,
// paper §2.2 Fig. 3b).
//
// The L2 guest updates GPT2 freely, but every EPT02 miss runs the 13-step
// protocol: exit to L0, forward to L1, L1 repairs EPT12 (write-protected, so
// each store is emulated by L0), emulated VMRESUME, a second EPT02 violation,
// and finally L0 compresses EPT01+EPT12 into EPT02 — under the *L1 VM's* L0
// mmu_lock, which every container on the instance shares. That shared lock is
// the scalability collapse of Figs. 4/10/11.

#ifndef PVM_SRC_BACKENDS_EPT_ON_EPT_MEMORY_BACKEND_H_
#define PVM_SRC_BACKENDS_EPT_ON_EPT_MEMORY_BACKEND_H_

#include "src/backends/memory_common.h"
#include "src/hv/host_hypervisor.h"
#include "src/sim/resource.h"

namespace pvm {

class EptOnEptMemoryBackend : public MemoryBackendBase {
 public:
  EptOnEptMemoryBackend(HostHypervisor& l0, HostHypervisor::Vm& l1_vm, std::uint16_t l2_vpid,
                        const std::string& container_name, bool kpti)
      : MemoryBackendBase(l0.sim(), l0.costs(), l0.counters(), "ept-on-ept:" + container_name,
                          l2_vpid),
        l0_(&l0),
        l1_vm_(&l1_vm),
        kpti_(kpti),
        ept12_(container_name + ".ept12", nullptr),
        ept02_(container_name + ".ept02", nullptr),
        l1_mmu_lock_(l0.sim(), container_name + ".l1_mmu_lock") {}

  std::string_view name() const override { return "ept-on-ept"; }

  Task<void> access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel, std::uint64_t gva,
                    AccessType access, bool user_mode) override;
  Task<void> gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, std::uint64_t gpa_frame,
                     PteFlags flags) override;
  Task<void> gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) override;
  Task<void> gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, bool writable,
                         bool mark_cow) override;
  Task<void> activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) override;

  PageTable& ept12() { return ept12_; }
  PageTable& ept02() { return ept02_; }

 private:
  // The full ➊..⓭ flow for one missing GPA_L2. Returns false when the L1
  // KVM could not allocate backing for the page (instance-level exhaustion;
  // hardware-assisted nesting has no reclaim hook at this layer, so the
  // caller must OOM-kill the faulting process).
  Task<bool> handle_ept02_violation(Vcpu& vcpu, std::uint64_t gpa);

  HostHypervisor* l0_;
  HostHypervisor::Vm* l1_vm_;
  bool kpti_;
  PageTable ept12_;  // GPA_L2 -> GPA_L1, owned by the L1 KVM
  PageTable ept02_;  // GPA_L2 -> HPA, owned by L0 (the compressed table)
  Resource l1_mmu_lock_;  // the L1 KVM's per-L2-VM mmu_lock
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_EPT_ON_EPT_MEMORY_BACKEND_H_
