#include "src/backends/kvm_spt_memory_backend.h"

namespace pvm {

Task<bool> KvmSptMemoryBackend::resolve_fault(Vcpu& vcpu, GuestProcess& proc,
                                              GuestKernel& kernel, const GuestAccess& access,
                                              const TwoDimWalk& /*walk*/) {
  // Every fault under shadow paging exits to the hypervisor, which
  // classifies it against the guest's own page table.
  const WalkResult gpt_walk = proc.gpt().walk(access.gva, access.type, access.user_mode);
  if (gpt_walk.present && gpt_walk.permission_ok) {
    // Shadow miss: L0 fills the SPT from the GPT and resumes the guest.
    counters_->add(Counter::kShadowPageFault);
    co_await l0_->begin_exit(*vm_);
    co_await sim_->delay(static_cast<std::uint64_t>(gpt_walk.levels_walked) *
                         costs_->walk_load);
    const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(access.gva),
                                                   !access.user_mode, gpt_walk.pte,
                                                   /*is_prefault=*/false);
    co_await l0_->finish_entry();
    if (!filled) {
      co_await kernel.oom_kill_process(vcpu, proc);
      co_return false;
    }
    co_return true;
  }

  // Genuine guest fault: exit, inject #PF, guest kernel repairs its GPT
  // (each store trapping via gpt_map), iret.
  co_await l0_->exit_roundtrip(*vm_, ExitKind::kException);
  co_await kernel.handle_page_fault(vcpu, proc, access.fault(gpt_walk.present));
  co_await sim_->delay(costs_->ring_crossing);  // iret
  co_return true;
}

Task<void> KvmSptMemoryBackend::sync_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                           GptStoreKind kind) {
  co_await l0_->begin_exit(*vm_);
  co_await engine_->emulate_gpt_store(proc.pid(), gva, kind, vcpu.tlb, vpid_,
                                      costs_->l0_ept_emulate_write);
  co_await l0_->finish_entry();
}

Task<void> KvmSptMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                                 bool kernel_ring) {
  track(proc);
  // CR3 write is privileged under shadow paging: trap, switch shadow root,
  // flush the guest's TLB footprint (no PCID awareness).
  co_await l0_->exit_roundtrip(*vm_, ExitKind::kCr3Write);
  vcpu.state.pcid = co_await engine_->activate(proc.pid(), kernel_ring, vcpu.tlb, vpid_);
  vcpu.state.cr3 = engine_->spt(proc.pid(), kernel_ring).root_frame();
}

}  // namespace pvm
