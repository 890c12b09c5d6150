#include "src/backends/pvm_direct_memory_backend.h"

#include "src/obs/span.h"

namespace pvm {

Task<void> PvmDirectMemoryBackend::validate_stores(Vcpu& vcpu, int stores) {
  // mmu_update: the guest hands PVM a batch of page-table writes; PVM checks
  // frame ownership and type (a table frame must never be mapped writable)
  // and applies them.
  obs::SpanScope op(sim_->spans(), obs::Phase::kOpGptStore,
                    static_cast<std::uint64_t>(stores));
  Switcher& switcher = hypervisor_->switcher();
  const VirtRing resume_ring = vcpu.state.virt_ring;
  counters_->add(Counter::kHypercall);
  co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kHypercall);
  co_await sim_->delay(costs_->pvm_exit_dispatch +
                       static_cast<std::uint64_t>(stores) *
                           (costs_->pvm_gpt_store_emulate / 2 + costs_->spt_sync_check));
  counters_->add(Counter::kGptWriteProtectTrap, static_cast<std::uint64_t>(stores));
  co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring);
}

Task<bool> PvmDirectMemoryBackend::resolve_fault(Vcpu& vcpu, GuestProcess& proc,
                                                 GuestKernel& kernel, const GuestAccess& access,
                                                 const TwoDimWalk& walk) {
  if (walk.outcome == TwoDimWalk::Outcome::kEptViolation) {
    co_await l0_->ensure_backed(*l1_vm_, walk.violating_gpa);
    co_return true;
  }

  // Guest fault: delivered through the switcher into the guest kernel
  // (the de-privileged guest cannot take #PF natively), then straight
  // back — there is no shadow table to fill, so no prefault and no second
  // fault.
  Switcher& switcher = hypervisor_->switcher();
  co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kPageFault);
  co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_exception_inject);
  co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, VirtRing::kVRing0);

  co_await kernel.handle_page_fault(
      vcpu, proc, access.fault(walk.outcome == TwoDimWalk::Outcome::kGuestProtection));

  counters_->add(Counter::kHypercall);  // iret hypercall
  co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kHypercall);
  co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_simple_handler);
  co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state,
                                access.user_mode ? VirtRing::kVRing3 : VirtRing::kVRing0);
  co_return true;
}

Task<void> PvmDirectMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                                    bool kernel_ring) {
  track(proc);
  // CR3 load is a hypercall: PVM validates (and pins) the new root.
  co_await hypervisor_->handle_privileged_op(vcpu.switcher_state, vcpu.state,
                                             PrivOp::kWriteCr3);
  vcpu.state.cr3 = proc.gpt().root_frame();
  vcpu.state.pcid = guest_pcid(proc, !kernel_ring, /*kpti=*/true);
}

}  // namespace pvm
