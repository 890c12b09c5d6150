#include "src/backends/pvm_direct_memory_backend.h"

#include "src/obs/flight.h"
#include "src/obs/span.h"

namespace pvm {

PvmDirectMemoryBackend::PvmDirectMemoryBackend(PvmHypervisor& hypervisor, HostHypervisor* l0,
                                               HostHypervisor::Vm* l1_vm, std::uint16_t vpid,
                                               const std::string& container_name)
    : MemoryBackendBase(hypervisor.sim(), hypervisor.costs(), hypervisor.counters(),
                        "pvm-direct:" + container_name, vpid),
      hypervisor_(&hypervisor),
      l0_(l0),
      l1_vm_(l1_vm) {}

Task<void> PvmDirectMemoryBackend::validate_store(Vcpu& vcpu, int stores) {
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

Task<void> PvmDirectMemoryBackend::access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                          std::uint64_t gva, AccessType access,
                                          bool user_mode) {
  Switcher& switcher = hypervisor_->switcher();
  const std::uint16_t pcid = guest_pcid(proc, user_mode, /*kpti=*/true);
  const VirtRing resume_ring = user_mode ? VirtRing::kVRing3 : VirtRing::kVRing0;

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

    // The guest table maps GVA straight to L1 frames; no shadow dimension.
    const TwoDimWalk walk =
        l1_vm_ != nullptr
            ? walk_two_dimensional(proc.gpt(), l1_vm_->ept(), gva, access, user_mode)
            : walk_one_dimensional(proc.gpt(), gva, access, user_mode);
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

    // Guest fault: delivered through the switcher into the guest kernel
    // (the de-privileged guest cannot take #PF natively), then straight
    // back — there is no shadow table to fill, so no prefault and no second
    // fault.
    co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kPageFault);
    co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_exception_inject);
    co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, VirtRing::kVRing0);

    const PageFaultInfo fault{gva, access, user_mode,
                              walk.outcome == TwoDimWalk::Outcome::kGuestProtection};
    co_await kernel.handle_page_fault(vcpu, proc, fault);

    counters_->add(Counter::kHypercall);  // iret hypercall
    co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kHypercall);
    co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_simple_handler);
    co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring);
  }
  fault_loop_error(gva);
}

Task<void> PvmDirectMemoryBackend::gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                           std::uint64_t gpa_frame, PteFlags flags) {
  const MapResult result = proc.gpt().map(gva, gpa_frame, flags);
  if (result.replaced) {
    tlb_drop_page(vcpu, proc, gva);
  }
  if (!validated(proc)) {
    co_await sim_->delay(static_cast<std::uint64_t>(result.entries_written) *
                         costs_->guest_pte_store);
    co_return;
  }
  // One validation hypercall covers the whole chain of stores (Xen batches
  // mmu_update entries the same way).
  co_await validate_store(vcpu, result.entries_written);
}

Task<void> PvmDirectMemoryBackend::gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) {
  proc.gpt().unmap(gva);
  tlb_drop_page(vcpu, proc, gva);
  if (!validated(proc)) {
    co_await sim_->delay(costs_->guest_pte_store);
    co_return;
  }
  co_await validate_store(vcpu, 1);
}

Task<void> PvmDirectMemoryBackend::gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                               bool writable, bool mark_cow) {
  proc.gpt().update_pte(gva, [&](Pte& pte) {
    pte.set_writable(writable);
    pte.set_cow(mark_cow);
  });
  tlb_drop_page(vcpu, proc, gva);
  if (!validated(proc)) {
    co_await sim_->delay(costs_->guest_pte_store);
    co_return;
  }
  co_await validate_store(vcpu, 1);
}

Task<void> PvmDirectMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                                    bool kernel_ring) {
  validated_.insert(proc.pid());
  // CR3 load is a hypercall: PVM validates (and pins) the new root.
  co_await hypervisor_->handle_privileged_op(vcpu.switcher_state, vcpu.state,
                                             PrivOp::kWriteCr3);
  vcpu.state.cr3 = proc.gpt().root_frame();
  vcpu.state.pcid = guest_pcid(proc, !kernel_ring, /*kpti=*/true);
}

}  // namespace pvm
