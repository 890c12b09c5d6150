// PVM direct paging (paper §5: "implementing a Xen-like 'direct paging'
// solution on KVM by mapping the GPA->HPA relationship to the guest").
//
// The guest's page tables hold L1 machine frames directly, so there are no
// shadow tables at all: the hardware walks the guest table (composed with
// the warm EPT01 when nested) and no second fault or prefault ever happens.
// What remains is validation — every guest page-table store is a hypercall
// that PVM checks (the Xen PV mmu_update contract) — and fault delivery
// through the switcher. A fresh-page fault costs 2n+2 world switches.
//
// Implemented as an experimental deployment (DeployMode::kPvmDirectNst);
// not part of the paper's evaluation.

#ifndef PVM_SRC_BACKENDS_PVM_DIRECT_MEMORY_BACKEND_H_
#define PVM_SRC_BACKENDS_PVM_DIRECT_MEMORY_BACKEND_H_

#include "src/backends/memory_common.h"
#include "src/core/pvm_hypervisor.h"
#include "src/hv/host_hypervisor.h"

namespace pvm {

class PvmDirectMemoryBackend : public TrackedPtBackend {
 public:
  // The container's guest-physical space *is* the L1 space in this mode
  // (process tables and data frames are allocated from l1 frames directly).
  PvmDirectMemoryBackend(PvmHypervisor& hypervisor, HostHypervisor* l0,
                         HostHypervisor::Vm* l1_vm, std::uint16_t vpid,
                         const std::string& container_name)
      : TrackedPtBackend(hypervisor.sim(), hypervisor.costs(), hypervisor.counters(),
                         "pvm-direct:" + container_name, vpid, /*max_attempts=*/24),
        hypervisor_(&hypervisor),
        l0_(l0),
        l1_vm_(l1_vm) {}

  std::string_view name() const override { return "pvm-direct"; }

  Task<void> activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) override;

 protected:
  std::uint16_t access_pcid(GuestProcess& proc, bool user_mode) override {
    return guest_pcid(proc, user_mode, /*kpti=*/true);
  }
  // The guest table maps GVA straight to L1 frames; no shadow dimension.
  TwoDimWalk hardware_walk(GuestProcess& proc, const GuestAccess& access) override {
    return l1_vm_ != nullptr
               ? walk_two_dimensional(proc.gpt(), l1_vm_->ept(), access.gva, access.type,
                                      access.user_mode)
               : walk_one_dimensional(proc.gpt(), access.gva, access.type, access.user_mode);
  }
  Task<bool> resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                           const GuestAccess& access, const TwoDimWalk& walk) override;
  Task<void> sync_store(Vcpu& vcpu, GuestProcess&, std::uint64_t, GptStoreKind) override {
    return validate_stores(vcpu, 1);
  }
  // One validation hypercall covers the whole chain of stores (Xen batches
  // mmu_update entries the same way).
  Task<void> sync_map(Vcpu& vcpu, GuestProcess&, std::uint64_t, int entries) override {
    return validate_stores(vcpu, entries);
  }

  // Dirty-tracking faults resolve through the switcher, as on pvm-on-ept.
  std::uint64_t dirty_exit_roundtrip_ns() const override {
    return 2 * costs_->switcher_switch() + costs_->pvm_exit_dispatch;
  }

 private:
  // One mmu_update-style validation hypercall round trip for `stores` stores.
  Task<void> validate_stores(Vcpu& vcpu, int stores);

  PvmHypervisor* hypervisor_;
  HostHypervisor* l0_;
  HostHypervisor::Vm* l1_vm_;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_PVM_DIRECT_MEMORY_BACKEND_H_
