#include "src/backends/pvm_memory_backend.h"

#include "src/obs/span.h"

namespace pvm {

namespace {

VirtRing resume_ring(const GuestAccess& access) {
  return access.user_mode ? VirtRing::kVRing3 : VirtRing::kVRing0;
}

}  // namespace

Task<bool> PvmMemoryBackend::resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                           const GuestAccess& access, const TwoDimWalk& walk) {
  if (walk.outcome == TwoDimWalk::Outcome::kEptViolation) {
    // Rare by the warm-L1 assumption; handled by L0 without PVM knowing.
    co_await l0_->ensure_backed(*l1_vm_, walk.violating_gpa);
    co_return true;
  }
  Switcher& switcher = hypervisor_->switcher();

  // §5 extension: with switcher-side classification on, the switcher
  // itself walks GPT2; genuine guest faults are injected straight into
  // the L2 kernel without entering the PVM hypervisor at all.
  if (hypervisor_->options().switcher_pf_classify && access.user_mode) {
    const WalkResult classify = proc.gpt().walk(access.gva, access.type, access.user_mode);
    co_await sim_->delay(costs_->switcher_classify +
                         static_cast<std::uint64_t>(classify.levels_walked) * costs_->walk_load);
    if (!classify.present || !classify.permission_ok) {
      // Direct injection (one switch instead of exit+entry).
      co_await switcher.direct_switch_to_kernel(vcpu.switcher_state, vcpu.state);
      co_await kernel.handle_page_fault(vcpu, proc, access.fault(classify.present));
      co_return co_await iret_and_prefault(vcpu, proc, kernel, access);
    }
    // Shadow fault: fall through to the hypervisor path below.
  }

  // Fault against the shadow table: one switcher world switch into PVM
  // (Fig. 9 ①-②), which classifies it against GPT2.
  co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kPageFault);
  co_await sim_->delay(costs_->pvm_exit_dispatch);
  co_await drain_sync_ring(vcpu);  // piggybacked collaborative sync (free)

  const WalkResult gpt_walk = proc.gpt().walk(access.gva, access.type, access.user_mode);
  co_await sim_->delay(static_cast<std::uint64_t>(gpt_walk.levels_walked) * costs_->walk_load);

  if (gpt_walk.present && gpt_walk.permission_ok) {
    // Pure shadow miss (❶-❺): PVM fills SPT12 itself and returns straight
    // to the faulting context. If prefault did its job this path is rare.
    counters_->add(Counter::kShadowPageFault);
    const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(access.gva),
                                                   !access.user_mode, gpt_walk.pte,
                                                   /*is_prefault=*/false);
    if (!filled) {
      // Even the engine's reclaim pass found no backing: escalate to the
      // guest OOM killer rather than spin on an unserviceable fault.
      co_await kernel.oom_kill_process(vcpu, proc);
      co_return false;
    }
    co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring(access));
    co_return true;
  }

  // Genuine guest fault (①-⑩): inject the #PF into the guest kernel (③-⑤),
  // let it repair GPT2 (⑥, each store trapping via gpt_map), then the iret
  // hypercall, prefault and return (⑦-⑩).
  co_await sim_->delay(costs_->pvm_exception_inject);
  co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, VirtRing::kVRing0);
  co_await kernel.handle_page_fault(vcpu, proc, access.fault(gpt_walk.present));
  co_return co_await iret_and_prefault(vcpu, proc, kernel, access);
}

Task<bool> PvmMemoryBackend::iret_and_prefault(Vcpu& vcpu, GuestProcess& proc,
                                               GuestKernel& kernel, const GuestAccess& access) {
  Switcher& switcher = hypervisor_->switcher();
  counters_->add(Counter::kHypercall);  // iret hypercall
  co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kHypercall);
  co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_simple_handler);
  co_await drain_sync_ring(vcpu);  // piggybacked collaborative sync (free)
  if (engine_->options().prefault) {
    if (const Pte* leaf = proc.gpt().find_pte(page_base(access.gva));
        leaf != nullptr && leaf->present()) {
      const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(access.gva),
                                                     !access.user_mode, *leaf,
                                                     /*is_prefault=*/true);
      if (!filled) {
        co_await kernel.oom_kill_process(vcpu, proc);
        co_return false;
      }
      counters_->add(Counter::kPrefaultSavedFault);
    }
  }
  co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring(access));
  co_return true;
}

Task<void> PvmMemoryBackend::queue_sync(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                        GptStoreKind kind) {
  sync_ring_.push_back(PendingSync{proc.pid(), gva, kind});
  co_await sim_->delay(costs_->guest_pte_store);  // the (now untrapped) store
  if (sync_ring_.size() >= kSyncRingCapacity) {
    // Ring full: one dedicated round trip drains the whole batch — the
    // amortization that replaces per-store write-protect traps.
    obs::SpanScope op(sim_->spans(), obs::Phase::kOpGptStore, gva);
    Switcher& switcher = hypervisor_->switcher();
    const VirtRing resume_ring = vcpu.state.virt_ring;
    counters_->add(Counter::kHypercall);
    co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kHypercall);
    co_await sim_->delay(costs_->pvm_exit_dispatch);
    co_await drain_sync_ring(vcpu);
    co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring);
  }
}

Task<void> PvmMemoryBackend::drain_sync_ring(Vcpu& vcpu) {
  if (sync_ring_.empty()) {
    co_return;
  }
  std::vector<PendingSync> batch;
  batch.swap(sync_ring_);
  for (const PendingSync& record : batch) {
    // A record may outlive its process (fork child queued installs, then
    // exited): its shadow state is gone and there is nothing to synchronize.
    if (!tracked(record.pid)) {
      continue;
    }
    co_await engine_->emulate_gpt_store(record.pid, record.gva, record.kind, vcpu.tlb, vpid_,
                                        costs_->pvm_gpt_store_emulate / 2);
  }
}

Task<void> PvmMemoryBackend::sync_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                        GptStoreKind kind) {
  if (collaborative() && (kind == GptStoreKind::kInstall || kind == GptStoreKind::kTableAlloc ||
                          kind == GptStoreKind::kMakeWritable)) {
    // §5 extension: widening stores don't trap — they queue for batched
    // synchronization (a missing SPT entry only means a later, fillable
    // fault, so deferral is safe).
    co_await queue_sync(vcpu, proc, gva, kind);
    co_return;
  }
  obs::SpanScope op(sim_->spans(), obs::Phase::kOpGptStore, gva);
  Switcher& switcher = hypervisor_->switcher();
  const VirtRing resume_ring = vcpu.state.virt_ring;
  co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state,
                                  SwitchReason::kGptWriteProtect);
  co_await sim_->delay(costs_->pvm_exit_dispatch);
  // Ordering: queued widening stores must apply before this narrowing one.
  co_await drain_sync_ring(vcpu);
  co_await engine_->emulate_gpt_store(proc.pid(), gva, kind, vcpu.tlb, vpid_,
                                      costs_->pvm_gpt_store_emulate);
  co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring);
}

Task<void> PvmMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                              bool kernel_ring) {
  track(proc);
  // CR3 writes are paravirtualized: one hypercall round trip through the
  // switcher, then PVM switches the active shadow root.
  co_await hypervisor_->handle_privileged_op(vcpu.switcher_state, vcpu.state,
                                             PrivOp::kWriteCr3);
  vcpu.state.pcid = co_await engine_->activate(proc.pid(), kernel_ring, vcpu.tlb, vpid_);
  vcpu.state.cr3 = engine_->spt(proc.pid(), kernel_ring).root_frame();
}

}  // namespace pvm
