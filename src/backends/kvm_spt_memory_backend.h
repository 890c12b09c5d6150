// kvm-spt (BM): classic software shadow paging at the host hypervisor.
//
// L0 maintains per-process shadow tables (GVA -> HPA) synchronized with the
// write-protected guest GPT. Every guest page fault exits to L0; every GPT
// store is emulated; CR3 writes trap. No prefault, no PCID mapping, one
// global per-VM mmu_lock — the software baseline PVM improves on.
// (Implemented over the generic shadow engine with all PVM optimizations
// switched off.)

#ifndef PVM_SRC_BACKENDS_KVM_SPT_MEMORY_BACKEND_H_
#define PVM_SRC_BACKENDS_KVM_SPT_MEMORY_BACKEND_H_

#include "src/backends/memory_common.h"
#include "src/hv/host_hypervisor.h"

namespace pvm {

class KvmSptMemoryBackend : public ShadowPtBackend {
 public:
  KvmSptMemoryBackend(HostHypervisor& l0, HostHypervisor::Vm& vm, PvmMemoryEngine& engine)
      : ShadowPtBackend(l0.sim(), l0.costs(), l0.counters(), "kvm-spt:" + vm.name(), vm.vpid(),
                        engine, /*max_attempts=*/16),
        l0_(&l0),
        vm_(&vm) {}

  std::string_view name() const override { return "kvm-spt"; }

  Task<void> activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) override;

 protected:
  // Without PCID awareness every guest address space shares tag 0.
  std::uint16_t access_pcid(GuestProcess&, bool) override { return 0; }
  TwoDimWalk hardware_walk(GuestProcess& proc, const GuestAccess& access) override {
    return walk_one_dimensional(active_spt(proc, access.user_mode), access.gva, access.type,
                                access.user_mode);
  }
  Task<bool> resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                           const GuestAccess& access, const TwoDimWalk& walk) override;
  // One trapped GPT store: exit, emulate, keep shadows coherent, entry.
  Task<void> sync_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                        GptStoreKind kind) override;

 private:
  HostHypervisor* l0_;
  HostHypervisor::Vm* vm_;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_KVM_SPT_MEMORY_BACKEND_H_
