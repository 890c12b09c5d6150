#include "src/backends/spt_on_ept_memory_backend.h"

namespace pvm {

Task<bool> SptOnEptMemoryBackend::resolve_fault(Vcpu& vcpu, GuestProcess& proc,
                                                GuestKernel& kernel, const GuestAccess& access,
                                                const TwoDimWalk& walk) {
  if (walk.outcome == TwoDimWalk::Outcome::kEptViolation) {
    co_await l0_->ensure_backed(*l1_vm_, walk.violating_gpa);
    co_return true;
  }

  // Fault against SPT12: exits to L0, which forwards it to L1 (➀-➂).
  co_await l0_->nested_forward_exit_to_l1(*l1_vm_, vcpu.nested, ExitKind::kException);

  const WalkResult gpt_walk = proc.gpt().walk(access.gva, access.type, access.user_mode);
  co_await sim_->delay(static_cast<std::uint64_t>(gpt_walk.levels_walked) * costs_->walk_load);

  if (gpt_walk.present && gpt_walk.permission_ok) {
    // Second phase (➊-➐ of Fig. 3a): L1 repairs SPT12 and resumes L2
    // through L0, returning directly to L2 user.
    counters_->add(Counter::kShadowPageFault);
    {
      ScopedResource lock = co_await engine_->locks().mmu_lock().scoped();
      co_await sim_->delay(costs_->l0_ept_fill);
    }
    const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(access.gva),
                                                   !access.user_mode, gpt_walk.pte,
                                                   /*is_prefault=*/false);
    co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 8);
    co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
    if (!filled) {
      co_await kernel.oom_kill_process(vcpu, proc);
      co_return false;
    }
    co_return true;
  }

  // First phase (➀-➈): L1 injects the #PF into L2 (➃) and resumes it via
  // L0 (➄-➆); the L2 kernel repairs GPT2 (⑧, each store a trapped round
  // trip) and irets (➈).
  co_await sim_->delay(costs_->l0_exception_inject);
  co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 6);
  co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
  co_await kernel.handle_page_fault(vcpu, proc, access.fault(gpt_walk.present));
  co_await sim_->delay(costs_->ring_crossing);  // iret
  co_return true;
}

Task<void> SptOnEptMemoryBackend::sync_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                             GptStoreKind kind) {
  // L2's store to its write-protected GPT exits to L0, is forwarded to L1,
  // emulated there, and L2 resumes through another emulated entry: 2 exits
  // to L0 and 4 world switches per store.
  co_await l0_->nested_forward_exit_to_l1(*l1_vm_, vcpu.nested, ExitKind::kException);
  co_await engine_->emulate_gpt_store(proc.pid(), gva, kind, vcpu.tlb, vpid_,
                                      costs_->l0_ept_emulate_write);
  co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 6);
  co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
}

Task<void> SptOnEptMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                                   bool kernel_ring) {
  track(proc);
  // Trapped CR3 write, serviced by L1 through L0.
  co_await l0_->nested_forward_exit_to_l1(*l1_vm_, vcpu.nested, ExitKind::kCr3Write);
  vcpu.state.pcid = co_await engine_->activate(proc.pid(), kernel_ring, vcpu.tlb, vpid_);
  vcpu.state.cr3 = engine_->spt(proc.pid(), kernel_ring).root_frame();
  co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 6);
  co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
}

}  // namespace pvm
