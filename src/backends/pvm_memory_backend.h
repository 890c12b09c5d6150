// PVM-on-EPT / PVM shadow paging (paper §3.3.2, Fig. 9).
//
// L1 (the PVM hypervisor) owns dual per-process shadow tables; all fault
// handling happens between L2 and L1 through the switcher — L0 is only ever
// touched for (rare, warm) EPT01 violations. A fresh guest page fault costs
// 2n+4 world switches, each ~7x cheaper than a nested VMX transition, and
// the prefault / PCID-mapping / fine-grained-lock optimizations are all
// applied here.
//
// The same backend serves pvm (BM) — PVM running as the bare-metal host
// hypervisor — by omitting the L1 VM (one-dimensional SPT walks, no L0).

#ifndef PVM_SRC_BACKENDS_PVM_MEMORY_BACKEND_H_
#define PVM_SRC_BACKENDS_PVM_MEMORY_BACKEND_H_

#include <vector>

#include "src/backends/memory_common.h"
#include "src/core/pvm_hypervisor.h"
#include "src/hv/host_hypervisor.h"

namespace pvm {

class PvmMemoryBackend : public ShadowPtBackend {
 public:
  // `l0`/`l1_vm` are null for bare-metal deployments.
  PvmMemoryBackend(PvmHypervisor& hypervisor, PvmMemoryEngine& engine, HostHypervisor* l0,
                   HostHypervisor::Vm* l1_vm, std::uint16_t vpid,
                   const std::string& container_name)
      : ShadowPtBackend(hypervisor.sim(), hypervisor.costs(), hypervisor.counters(),
                        "pvm:" + container_name, vpid, engine, /*max_attempts=*/24),
        hypervisor_(&hypervisor),
        l0_(l0),
        l1_vm_(l1_vm) {}

  std::string_view name() const override { return l1_vm_ ? "pvm-on-ept" : "pvm-spt"; }

  Task<void> activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) override;

 protected:
  // With PCID mapping on, the L1 PCID the engine maps this (process, ring)
  // to; the lookup refreshes the mapper's LRU.
  std::uint16_t access_pcid(GuestProcess& proc, bool user_mode) override {
    if (!engine_->options().pcid_mapping) {
      return 0;
    }
    return engine_->pcid_mapper().map(proc.pid(), /*kernel_ring=*/!user_mode).hw_pcid;
  }
  // The active dual SPT, composed with the warm EPT01 when nested (the L0
  // hypervisor sees an ordinary VM).
  TwoDimWalk hardware_walk(GuestProcess& proc, const GuestAccess& access) override {
    PageTable& spt = active_spt(proc, access.user_mode);
    return l1_vm_ != nullptr
               ? walk_two_dimensional(spt, l1_vm_->ept(), access.gva, access.type,
                                      access.user_mode)
               : walk_one_dimensional(spt, access.gva, access.type, access.user_mode);
  }
  Task<bool> resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                           const GuestAccess& access, const TwoDimWalk& walk) override;
  // GPT2 is read-only to the guest: a store needs PVM's assistance, one
  // switcher round trip (the "2n" of §3.3.2), unless collaborative PT
  // queues it.
  Task<void> sync_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                        GptStoreKind kind) override;

  // A dirty-tracking WP fault resolves through the switcher into the PVM
  // hypervisor — the paper's ~7x-cheaper exit — not a VMX round trip.
  std::uint64_t dirty_exit_roundtrip_ns() const override {
    return 2 * costs_->switcher_switch() + costs_->pvm_exit_dispatch;
  }

 private:
  // After the guest kernel repaired GPT2: the iret hypercall into PVM, the
  // prefault of the repaired leaf and the return to the faulting context
  // (Fig. 9 ⑦-⑩). Returns false when the prefault found no backing and the
  // process was OOM-killed.
  Task<bool> iret_and_prefault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                               const GuestAccess& access);

  // §5 collaborative-PT extension: GPT stores are queued in a shared ring
  // instead of trapping; the queue is drained under one switcher round trip
  // when full, and piggybacked for free whenever PVM is entered anyway.
  struct PendingSync {
    std::uint64_t pid;
    std::uint64_t gva;
    GptStoreKind kind;
  };
  static constexpr std::size_t kSyncRingCapacity = 32;
  bool collaborative() const { return hypervisor_->options().collaborative_pt; }
  // Queues one record; drains with a dedicated round trip when full.
  Task<void> queue_sync(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, GptStoreKind kind);
  // Applies all queued records (caller is conceptually in PVM context).
  Task<void> drain_sync_ring(Vcpu& vcpu);

  PvmHypervisor* hypervisor_;
  HostHypervisor* l0_;
  HostHypervisor::Vm* l1_vm_;
  std::vector<PendingSync> sync_ring_;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_PVM_MEMORY_BACKEND_H_
