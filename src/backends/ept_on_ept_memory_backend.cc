#include "src/backends/ept_on_ept_memory_backend.h"

#include "src/obs/flight.h"
#include "src/obs/span.h"

namespace pvm {

Task<void> EptOnEptMemoryBackend::access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                         std::uint64_t gva, AccessType access, bool user_mode) {
  const std::uint16_t pcid = guest_pcid(proc, user_mode, kpti_);
  for (int attempt = 0; attempt < 24; ++attempt) {
    if (proc.oom_killed()) {
      co_return;  // OOM-killed mid-access; the faulting task is abandoned
    }
    if (tlb_try(vcpu, pcid, gva, access, user_mode)) {
      co_await sim_->delay(costs_->tlb_hit);
      co_await dirty_note(vcpu, proc, gva, access);
      co_return;
    }

    const TwoDimWalk walk = walk_two_dimensional(proc.gpt(), ept02_, gva, access, user_mode);
    co_await sim_->delay(static_cast<std::uint64_t>(walk.total_loads) * costs_->walk_load);

    if (walk.outcome != TwoDimWalk::Outcome::kOk && attempt == 0) {
      if (flight::FlightRecorder* flight = sim_->flight()) {
        flight->record(flight::EventKind::kGuestFault, gva,
                       static_cast<std::uint64_t>(proc.pid()));
      }
    }
    switch (walk.outcome) {
      case TwoDimWalk::Outcome::kOk:
        vcpu.tlb.insert(vpid_, pcid, page_number(gva),
                        Pte::make(walk.host_frame, walk.guest.pte.flags()));
        co_await sim_->delay(costs_->tlb_fill);
        co_await dirty_note(vcpu, proc, gva, access);
        co_return;
      case TwoDimWalk::Outcome::kGuestNotPresent:
      case TwoDimWalk::Outcome::kGuestProtection: {
        // ①-③ of Fig. 3(b): guest page faults stay inside L2.
        co_await guest_local_fault_entry();
        const PageFaultInfo fault{gva, access, user_mode,
                                  walk.outcome == TwoDimWalk::Outcome::kGuestProtection};
        co_await kernel.handle_page_fault(vcpu, proc, fault);
        co_await guest_local_fault_return();
        break;
      }
      case TwoDimWalk::Outcome::kEptViolation: {
        const bool backed = co_await handle_ept02_violation(vcpu, walk.violating_gpa);
        if (!backed) {
          // The instance's guest-physical pool is empty and the L1 KVM has
          // no reclaim protocol for EPT12 backing: the faulting process is
          // OOM-killed (during a boot storm this takes init down with it).
          co_await kernel.oom_kill_process(vcpu, proc);
          co_return;
        }
        break;
      }
    }
  }
  fault_loop_error(gva);
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

Task<void> EptOnEptMemoryBackend::gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                          std::uint64_t gpa_frame, PteFlags flags) {
  // GPT2 updates are free under EPT-on-EPT (①-③).
  const MapResult result = proc.gpt().map(gva, gpa_frame, flags);
  co_await sim_->delay(static_cast<std::uint64_t>(result.entries_written) *
                       costs_->guest_pte_store);
  if (result.replaced) {
    tlb_drop_page(vcpu, proc, gva);
  }
}

Task<void> EptOnEptMemoryBackend::gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) {
  proc.gpt().unmap(gva);
  co_await sim_->delay(costs_->guest_pte_store + costs_->cr3_write / 2);
  tlb_drop_page(vcpu, proc, gva);
}

Task<void> EptOnEptMemoryBackend::gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                              bool writable, bool mark_cow) {
  proc.gpt().update_pte(gva, [&](Pte& pte) {
    pte.set_writable(writable);
    pte.set_cow(mark_cow);
  });
  co_await sim_->delay(costs_->guest_pte_store + costs_->cr3_write / 2);
  tlb_drop_page(vcpu, proc, gva);
}

Task<void> EptOnEptMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                                   bool kernel_ring) {
  vcpu.state.cr3 = proc.gpt().root_frame();
  vcpu.state.pcid = guest_pcid(proc, !kernel_ring, kpti_);
  co_await sim_->delay(costs_->cr3_write);
}

}  // namespace pvm
