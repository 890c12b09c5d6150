#include "src/backends/ept_on_ept_memory_backend.h"

#include "src/obs/span.h"

namespace pvm {

Task<bool> EptOnEptMemoryBackend::resolve_fault(Vcpu& vcpu, GuestProcess& proc,
                                                GuestKernel& kernel, const GuestAccess& access,
                                                const TwoDimWalk& walk) {
  if (walk.outcome != TwoDimWalk::Outcome::kEptViolation) {
    // ①-③ of Fig. 3(b): guest page faults stay inside L2.
    co_await guest_local_fault(vcpu, proc, kernel, access, walk);
    co_return true;
  }
  // Bound before the test: GCC 12 miscompiles `if (!co_await ...)` here.
  const bool backed = co_await handle_ept02_violation(vcpu, walk.violating_gpa);
  if (!backed) {
    // The instance's guest-physical pool is empty and the L1 KVM has no
    // reclaim protocol for EPT12 backing: the faulting process is
    // OOM-killed (during a boot storm this takes init down with it).
    co_await kernel.oom_kill_process(vcpu, proc);
    co_return false;
  }
  co_return true;
}

Task<bool> EptOnEptMemoryBackend::handle_ept02_violation(Vcpu& vcpu, std::uint64_t gpa) {
  obs::SpanScope op(sim_->spans(), obs::Phase::kOpPageFault, gpa);

  // ➊-➌: hardware exit to L0, which sees an EPT violation it cannot satisfy
  // from EPT02 and reflects it into L1 as an EPT12 violation.
  co_await l0_->nested_forward_exit_to_l1(*l1_vm_, vcpu.nested, ExitKind::kEptViolation);

  // ➍: L1's KVM handles the violation under its own per-VM mmu_lock:
  // allocate L1 backing for the L2 page and install the EPT12 leaf. EPT12 is
  // write-protected by L0, so each store traps and is emulated (➎-➐,
  // repeated per touched table level).
  bool backed = true;
  {
    ScopedResource l1_lock = co_await l1_mmu_lock_.scoped();
    co_await sim_->delay(costs_->l0_ept_fill);
    if (const Pte* pte = ept12_.find_pte(gpa); pte == nullptr || !pte->present()) {
      const std::optional<std::uint64_t> gpa_l1 = l1_vm_->gpa_frames().allocate();
      if (!gpa_l1.has_value()) {
        // Instance pool exhausted. The L1 KVM cannot steal another
        // container's EPT12 backing (it has no rmap over sibling VMs), so
        // the violation is unserviceable.
        counters_->add(Counter::kBackingFail);
        backed = false;
      } else {
        const MapResult result = ept12_.map(page_base(gpa), *gpa_l1, PteFlags::rw_kernel());
        for (int i = 0; i < result.entries_written; ++i) {
          co_await l0_->emulate_protected_store(*l1_vm_);
        }
      }
    }
  }
  if (!backed) {
    // Resume L2 anyway so the VMX protocol stays balanced; the caller
    // escalates to the guest OOM killer.
    co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
    co_return false;
  }

  // L1 prepares to resume L2: VMCS12 bookkeeping (free under shadowing).
  co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 8);

  // ➑-➓: L1's VMRESUME trap; L0 merges VMCS02 and really enters L2.
  co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);

  // ⓫-⓭: L2 faults on EPT02 again immediately; this time L0 can build the
  // compressed entry by composing EPT12 and EPT01 — serialized on the **L1
  // VM's** mmu_lock at L0, shared by every container on the instance.
  co_await l0_->begin_exit(*l1_vm_);
  {
    ScopedResource l0_lock = co_await l1_vm_->mmu_lock().scoped();
    const WalkResult via12 = ept12_.walk(page_base(gpa), AccessType::kRead, false);
    co_await sim_->delay(static_cast<std::uint64_t>(via12.levels_walked) * costs_->walk_load);
    if (via12.present) {
      const std::uint64_t gpa_l1 = via12.pte.frame_number();
      co_await l0_->ensure_backed(*l1_vm_, gpa_l1 << kPageShift);
      const WalkResult via01 =
          l1_vm_->ept().walk(gpa_l1 << kPageShift, AccessType::kRead, false);
      co_await sim_->delay(static_cast<std::uint64_t>(via01.levels_walked) * costs_->walk_load);
      ept02_.map(page_base(gpa), via01.pte.frame_number(), PteFlags::rw_kernel());
      counters_->add(Counter::kEptCompressed);
      co_await sim_->delay(costs_->l0_ept_fill + costs_->tlb_shootdown);
    }
  }
  co_await l0_->finish_entry();
  co_return true;
}

}  // namespace pvm
