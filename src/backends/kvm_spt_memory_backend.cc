#include "src/backends/kvm_spt_memory_backend.h"

#include "src/obs/flight.h"
#include "src/obs/span.h"

namespace pvm {

KvmSptMemoryBackend::KvmSptMemoryBackend(HostHypervisor& l0, HostHypervisor::Vm& vm, bool kpti)
    : MemoryBackendBase(l0.sim(), l0.costs(), l0.counters(), "kvm-spt:" + vm.name(), vm.vpid()),
      l0_(&l0),
      vm_(&vm),
      kpti_(kpti) {
  PvmMemoryEngine::Options options;
  options.prefault = false;
  options.pcid_mapping = false;
  options.fine_grained_locks = false;
  options.dual_spt = kpti;
  engine_ = std::make_unique<PvmMemoryEngine>(l0.sim(), l0.costs(), l0.counters(),
                                              l0.host_frames(), "kvm-spt:" + vm.name(), options);
}

void KvmSptMemoryBackend::on_process_created(GuestProcess& proc) {
  engine_->create_process(proc.pid(), &proc.gpt());
}

Task<void> KvmSptMemoryBackend::on_process_destroyed(Vcpu& vcpu, GuestProcess& proc) {
  engine_->destroy_process(proc.pid(), vcpu.tlb, vpid_);
  shadowed_.erase(proc.pid());
  co_return;
}

Task<void> KvmSptMemoryBackend::access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                       std::uint64_t gva, AccessType access, bool user_mode) {
  // Without PCID awareness every guest address space shares tag 0.
  const std::uint16_t pcid = 0;
  obs::SpanScope op;
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (proc.oom_killed()) {
      co_return;  // OOM-killed mid-access; the faulting task is abandoned
    }
    if (tlb_try(vcpu, pcid, gva, access, user_mode)) {
      co_await sim_->delay(costs_->tlb_hit);
      co_await dirty_note(vcpu, proc, gva, access);
      co_return;
    }

    PageTable& spt = engine_->spt(proc.pid(), /*kernel_ring=*/!user_mode);
    const TwoDimWalk walk = walk_one_dimensional(spt, gva, access, user_mode);
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

    // Every fault under shadow paging exits to the hypervisor, which
    // classifies it against the guest's own page table.
    const WalkResult gpt_walk = proc.gpt().walk(gva, access, user_mode);
    const bool guest_has_translation = gpt_walk.present && gpt_walk.permission_ok;

    if (guest_has_translation) {
      // Shadow miss: L0 fills the SPT from the GPT and resumes the guest.
      counters_->add(Counter::kShadowPageFault);
      co_await l0_->begin_exit(*vm_);
      co_await sim_->delay(static_cast<std::uint64_t>(gpt_walk.levels_walked) *
                           costs_->walk_load);
      const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(gva), !user_mode,
                                                     gpt_walk.pte, /*is_prefault=*/false);
      co_await l0_->finish_entry();
      if (!filled) {
        co_await kernel.oom_kill_process(vcpu, proc);
        co_return;
      }
      continue;
    }

    // Genuine guest fault: exit, inject #PF, guest kernel repairs its GPT
    // (each store trapping via gpt_map), iret.
    co_await l0_->exit_roundtrip(*vm_, ExitKind::kException);
    const PageFaultInfo fault{gva, access, user_mode, gpt_walk.present};
    co_await kernel.handle_page_fault(vcpu, proc, fault);
    co_await guest_local_fault_return();
  }
  fault_loop_error(gva);
}

Task<void> KvmSptMemoryBackend::trapped_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                              GptStoreKind kind) {
  co_await l0_->begin_exit(*vm_);
  co_await engine_->emulate_gpt_store(proc.pid(), gva, kind, vcpu.tlb, vpid_,
                                      costs_->l0_ept_emulate_write);
  co_await l0_->finish_entry();
}

Task<void> KvmSptMemoryBackend::gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
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

Task<void> KvmSptMemoryBackend::gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) {
  proc.gpt().unmap(gva);
  tlb_drop_page(vcpu, proc, gva);
  if (!shadowed(proc)) {
    co_await sim_->delay(costs_->guest_pte_store);
    co_return;
  }
  co_await trapped_store(vcpu, proc, gva, GptStoreKind::kClear);
}

Task<void> KvmSptMemoryBackend::gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
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

Task<void> KvmSptMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                                 bool kernel_ring) {
  shadowed_.insert(proc.pid());
  // CR3 write is privileged under shadow paging: trap, switch shadow root,
  // flush the guest's TLB footprint (no PCID awareness).
  co_await l0_->exit_roundtrip(*vm_, ExitKind::kCr3Write);
  vcpu.state.pcid = co_await engine_->activate(proc.pid(), kernel_ring, vcpu.tlb, vpid_);
  vcpu.state.cr3 = engine_->spt(proc.pid(), kernel_ring).root_frame();
}

}  // namespace pvm
