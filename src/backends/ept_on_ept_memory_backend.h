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

class EptOnEptMemoryBackend : public GuestPtBackend {
 public:
  // The loop opens no op span: handle_ept02_violation opens it with the GPA.
  EptOnEptMemoryBackend(HostHypervisor& l0, HostHypervisor::Vm& l1_vm, std::uint16_t l2_vpid,
                        const std::string& container_name, bool kpti)
      : GuestPtBackend(l0.sim(), l0.costs(), l0.counters(), "ept-on-ept:" + container_name,
                       l2_vpid, kpti, /*max_attempts=*/24, /*opens_fault_span=*/false),
        l0_(&l0),
        l1_vm_(&l1_vm),
        ept12_(container_name + ".ept12", nullptr),
        ept02_(container_name + ".ept02", nullptr),
        l1_mmu_lock_(l0.sim(), container_name + ".l1_mmu_lock") {}

  std::string_view name() const override { return "ept-on-ept"; }

  PageTable& ept12() { return ept12_; }
  PageTable& ept02() { return ept02_; }

 protected:
  TwoDimWalk hardware_walk(GuestProcess& proc, const GuestAccess& access) override {
    return walk_two_dimensional(proc.gpt(), ept02_, access.gva, access.type, access.user_mode);
  }
  Task<bool> resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                           const GuestAccess& access, const TwoDimWalk& walk) override;

 private:
  // The full ➊..⓭ flow for one missing GPA_L2. Returns false when the L1
  // KVM could not allocate backing for the page (instance-level exhaustion;
  // hardware-assisted nesting has no reclaim hook at this layer, so the
  // caller must OOM-kill the faulting process).
  Task<bool> handle_ept02_violation(Vcpu& vcpu, std::uint64_t gpa);

  HostHypervisor* l0_;
  HostHypervisor::Vm* l1_vm_;
  PageTable ept12_;  // GPA_L2 -> GPA_L1, owned by the L1 KVM
  PageTable ept02_;  // GPA_L2 -> HPA, owned by L0 (the compressed table)
  Resource l1_mmu_lock_;  // the L1 KVM's per-L2-VM mmu_lock
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_EPT_ON_EPT_MEMORY_BACKEND_H_
