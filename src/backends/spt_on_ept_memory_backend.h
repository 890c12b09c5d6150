// SPT-on-EPT (NST): shadow paging in the L1 hypervisor with every L2<->L1
// transition mediated by L0 (paper §2.2 Fig. 3a).
//
// The worst of both worlds — a fresh L2 page fault costs 4n+8 world switches
// and 2n+4 exits to L0 — included as the Fig. 4 "SPT-EPT" baseline. Shares
// the generic shadow engine (no PVM optimizations) with kvm-spt; what differs
// is that each trap is a full nested round trip instead of one VMX exit.

#ifndef PVM_SRC_BACKENDS_SPT_ON_EPT_MEMORY_BACKEND_H_
#define PVM_SRC_BACKENDS_SPT_ON_EPT_MEMORY_BACKEND_H_

#include "src/backends/memory_common.h"
#include "src/hv/host_hypervisor.h"

namespace pvm {

class SptOnEptMemoryBackend : public ShadowPtBackend {
 public:
  SptOnEptMemoryBackend(HostHypervisor& l0, HostHypervisor::Vm& l1_vm, std::uint16_t l2_vpid,
                        const std::string& container_name, PvmMemoryEngine& engine)
      : ShadowPtBackend(l0.sim(), l0.costs(), l0.counters(), "spt-on-ept:" + container_name,
                        l2_vpid, engine, /*max_attempts=*/24),
        l0_(&l0),
        l1_vm_(&l1_vm) {}

  std::string_view name() const override { return "spt-on-ept"; }

  Task<void> activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) override;

 protected:
  std::uint16_t access_pcid(GuestProcess&, bool) override { return 0; }  // no PCID awareness
  // Hardware uses SPT12 (GVA_L2 -> GPA_L1) plus the warm EPT01.
  TwoDimWalk hardware_walk(GuestProcess& proc, const GuestAccess& access) override {
    return walk_two_dimensional(active_spt(proc, access.user_mode), l1_vm_->ept(), access.gva,
                                access.type, access.user_mode);
  }
  Task<bool> resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                           const GuestAccess& access, const TwoDimWalk& walk) override;
  // A trapped GPT store: L2 -> L0 -> L1 emulates -> L0 -> L2.
  Task<void> sync_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                        GptStoreKind kind) override;

 private:
  HostHypervisor* l0_;
  HostHypervisor::Vm* l1_vm_;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_SPT_ON_EPT_MEMORY_BACKEND_H_
