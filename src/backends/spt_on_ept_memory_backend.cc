#include "src/backends/spt_on_ept_memory_backend.h"

#include "src/obs/flight.h"
#include "src/obs/span.h"

namespace pvm {

SptOnEptMemoryBackend::SptOnEptMemoryBackend(HostHypervisor& l0, HostHypervisor::Vm& l1_vm,
                                             std::uint16_t l2_vpid,
                                             const std::string& container_name, bool kpti)
    : MemoryBackendBase(l0.sim(), l0.costs(), l0.counters(), "spt-on-ept:" + container_name,
                        l2_vpid),
      l0_(&l0),
      l1_vm_(&l1_vm),
      kpti_(kpti) {
  PvmMemoryEngine::Options options;
  options.prefault = false;
  options.pcid_mapping = false;
  options.fine_grained_locks = false;
  options.dual_spt = kpti;
  engine_ = std::make_unique<PvmMemoryEngine>(l0.sim(), l0.costs(), l0.counters(),
                                              l1_vm.gpa_frames(),
                                              "spt-on-ept:" + container_name, options);
}

void SptOnEptMemoryBackend::on_process_created(GuestProcess& proc) {
  engine_->create_process(proc.pid(), &proc.gpt());
}

Task<void> SptOnEptMemoryBackend::on_process_destroyed(Vcpu& vcpu, GuestProcess& proc) {
  engine_->destroy_process(proc.pid(), vcpu.tlb, vpid_);
  shadowed_.erase(proc.pid());
  co_return;
}

Task<void> SptOnEptMemoryBackend::access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                         std::uint64_t gva, AccessType access, bool user_mode) {
  const std::uint16_t pcid = 0;  // no PCID awareness
  obs::SpanScope op;
  for (int attempt = 0; attempt < 24; ++attempt) {
    if (proc.oom_killed()) {
      co_return;  // OOM-killed mid-access; the faulting task is abandoned
    }
    if (tlb_try(vcpu, pcid, gva, access, user_mode)) {
      co_await sim_->delay(costs_->tlb_hit);
      co_await dirty_note(vcpu, proc, gva, access);
      co_return;
    }

    // Hardware uses SPT12 (GVA_L2 -> GPA_L1) plus the warm EPT01.
    PageTable& spt = engine_->spt(proc.pid(), /*kernel_ring=*/!user_mode);
    const TwoDimWalk walk = walk_two_dimensional(spt, l1_vm_->ept(), gva, access, user_mode);
    co_await sim_->delay(static_cast<std::uint64_t>(walk.total_loads) * costs_->walk_load);

    if (walk.outcome == TwoDimWalk::Outcome::kOk) {
      vcpu.tlb.insert(vpid_, pcid, page_number(gva),
                      Pte::make(walk.host_frame, walk.guest.pte.flags()));
      co_await sim_->delay(costs_->tlb_fill);
      co_await dirty_note(vcpu, proc, gva, access);
      co_return;
    }
    if (attempt == 0) {
      op = obs::SpanScope(sim_->spans(), obs::Phase::kOpPageFault, gva);
      if (flight::FlightRecorder* flight = sim_->flight()) {
        flight->record(flight::EventKind::kGuestFault, gva,
                       static_cast<std::uint64_t>(proc.pid()));
      }
    }
    if (walk.outcome == TwoDimWalk::Outcome::kEptViolation) {
      co_await l0_->ensure_backed(*l1_vm_, walk.violating_gpa);
      continue;
    }

    // Fault against SPT12: exits to L0, which forwards it to L1 (➀-➂).
    co_await l0_->nested_forward_exit_to_l1(*l1_vm_, vcpu.nested, ExitKind::kException);

    const WalkResult gpt_walk = proc.gpt().walk(gva, access, user_mode);
    co_await sim_->delay(static_cast<std::uint64_t>(gpt_walk.levels_walked) *
                         costs_->walk_load);
    const bool guest_has_translation = gpt_walk.present && gpt_walk.permission_ok;

    if (guest_has_translation) {
      // Second phase (➊-➐ of Fig. 3a): L1 repairs SPT12 and resumes L2
      // through L0, returning directly to L2 user.
      counters_->add(Counter::kShadowPageFault);
      {
        ScopedResource lock = co_await engine_->locks().mmu_lock().scoped();
        co_await sim_->delay(costs_->l0_ept_fill);
      }
      const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(gva), !user_mode,
                                                     gpt_walk.pte, /*is_prefault=*/false);
      co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 8);
      co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
      if (!filled) {
        co_await kernel.oom_kill_process(vcpu, proc);
        co_return;
      }
      continue;
    }

    // First phase (➀-➈): L1 injects the #PF into L2 (➃) and resumes it via
    // L0 (➄-➆); the L2 kernel repairs GPT2 (⑧, each store a trapped round
    // trip) and irets (➈).
    co_await sim_->delay(costs_->l0_exception_inject);
    co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 6);
    co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
    const PageFaultInfo fault{gva, access, user_mode, gpt_walk.present};
    co_await kernel.handle_page_fault(vcpu, proc, fault);
    co_await guest_local_fault_return();
  }
  fault_loop_error(gva);
}

Task<void> SptOnEptMemoryBackend::trapped_store(Vcpu& vcpu, GuestProcess& proc,
                                                std::uint64_t gva, GptStoreKind kind) {
  // L2's store to its write-protected GPT exits to L0, is forwarded to L1,
  // emulated there, and L2 resumes through another emulated entry: 2 exits
  // to L0 and 4 world switches per store.
  co_await l0_->nested_forward_exit_to_l1(*l1_vm_, vcpu.nested, ExitKind::kException);
  co_await engine_->emulate_gpt_store(proc.pid(), gva, kind, vcpu.tlb, vpid_,
                                      costs_->l0_ept_emulate_write);
  co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 6);
  co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
}

Task<void> SptOnEptMemoryBackend::gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                          std::uint64_t gpa_frame, PteFlags flags) {
  const MapResult result = proc.gpt().map(gva, gpa_frame, flags);
  if (result.replaced) {
    tlb_drop_page(vcpu, proc, gva);
  }
  if (!shadowed(proc)) {
    co_await sim_->delay(static_cast<std::uint64_t>(result.entries_written) *
                         costs_->guest_pte_store);
    co_return;
  }
  for (int i = 0; i < result.entries_written; ++i) {
    const bool leaf = i == result.entries_written - 1;
    co_await trapped_store(vcpu, proc, gva,
                           leaf ? GptStoreKind::kInstall : GptStoreKind::kTableAlloc);
  }
}

Task<void> SptOnEptMemoryBackend::gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) {
  proc.gpt().unmap(gva);
  tlb_drop_page(vcpu, proc, gva);
  if (!shadowed(proc)) {
    co_await sim_->delay(costs_->guest_pte_store);
    co_return;
  }
  co_await trapped_store(vcpu, proc, gva, GptStoreKind::kClear);
}

Task<void> SptOnEptMemoryBackend::gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                              bool writable, bool mark_cow) {
  proc.gpt().update_pte(gva, [&](Pte& pte) {
    pte.set_writable(writable);
    pte.set_cow(mark_cow);
  });
  tlb_drop_page(vcpu, proc, gva);
  if (!shadowed(proc)) {
    co_await sim_->delay(costs_->guest_pte_store);
    co_return;
  }
  co_await trapped_store(vcpu, proc, gva,
                         writable ? GptStoreKind::kMakeWritable : GptStoreKind::kWriteProtect);
}

Task<void> SptOnEptMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                                   bool kernel_ring) {
  shadowed_.insert(proc.pid());
  // Trapped CR3 write, serviced by L1 through L0.
  co_await l0_->nested_forward_exit_to_l1(*l1_vm_, vcpu.nested, ExitKind::kCr3Write);
  vcpu.state.pcid = co_await engine_->activate(proc.pid(), kernel_ring, vcpu.tlb, vpid_);
  vcpu.state.cr3 = engine_->spt(proc.pid(), kernel_ring).root_frame();
  co_await l0_->l1_vmcs12_access(*l1_vm_, vcpu.nested, 6);
  co_await l0_->nested_resume_l2(*l1_vm_, vcpu.nested);
}

}  // namespace pvm
