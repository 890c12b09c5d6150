#include "src/backends/pvm_memory_backend.h"

#include "src/obs/flight.h"
#include "src/obs/span.h"

namespace pvm {

PvmMemoryBackend::PvmMemoryBackend(PvmHypervisor& hypervisor, PvmMemoryEngine& engine,
                                   HostHypervisor* l0, HostHypervisor::Vm* l1_vm,
                                   std::uint16_t vpid, const std::string& container_name)
    : MemoryBackendBase(hypervisor.sim(), hypervisor.costs(), hypervisor.counters(),
                        "pvm:" + container_name, vpid),
      hypervisor_(&hypervisor),
      engine_(&engine),
      l0_(l0),
      l1_vm_(l1_vm) {}

void PvmMemoryBackend::on_process_created(GuestProcess& proc) {
  engine_->create_process(proc.pid(), &proc.gpt());
}

Task<void> PvmMemoryBackend::on_process_destroyed(Vcpu& vcpu, GuestProcess& proc) {
  engine_->destroy_process(proc.pid(), vcpu.tlb, vpid_);
  shadowed_.erase(proc.pid());
  co_return;
}

std::uint16_t PvmMemoryBackend::tag_pcid(GuestProcess& proc, bool user_mode) {
  if (!engine_->options().pcid_mapping) {
    return 0;
  }
  return engine_->pcid_mapper().map(proc.pid(), /*kernel_ring=*/!user_mode).hw_pcid;
}

Task<void> PvmMemoryBackend::access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                    std::uint64_t gva, AccessType access, bool user_mode) {
  Switcher& switcher = hypervisor_->switcher();
  const std::uint16_t pcid = tag_pcid(proc, user_mode);
  const VirtRing resume_ring = user_mode ? VirtRing::kVRing3 : VirtRing::kVRing0;

  // Operation span: opened at the first non-OK walk (a genuine fault) and
  // closed when the access finally succeeds, so the op covers the whole
  // resolution including the successful re-walk after the last retry.
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

    // Hardware walk: the active dual SPT, composed with the warm EPT01 when
    // nested (the L0 hypervisor sees an ordinary VM).
    PageTable& spt = engine_->spt(proc.pid(), /*kernel_ring=*/!user_mode);
    const TwoDimWalk walk =
        l1_vm_ != nullptr
            ? walk_two_dimensional(spt, l1_vm_->ept(), gva, access, user_mode)
            : walk_one_dimensional(spt, gva, access, user_mode);
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
      // Rare by the warm-L1 assumption; handled by L0 without PVM knowing.
      co_await l0_->ensure_backed(*l1_vm_, walk.violating_gpa);
      continue;
    }

    // §5 extension: with switcher-side classification on, the switcher
    // itself walks GPT2; genuine guest faults are injected straight into
    // the L2 kernel without entering the PVM hypervisor at all.
    if (hypervisor_->options().switcher_pf_classify && user_mode) {
      const WalkResult classify = proc.gpt().walk(gva, access, user_mode);
      co_await sim_->delay(costs_->switcher_classify +
                           static_cast<std::uint64_t>(classify.levels_walked) *
                               costs_->walk_load);
      if (!classify.present || !classify.permission_ok) {
        // Direct injection (one switch instead of exit+entry).
        co_await switcher.direct_switch_to_kernel(vcpu.switcher_state, vcpu.state);
        const PageFaultInfo fault{gva, access, user_mode, classify.present};
        co_await kernel.handle_page_fault(vcpu, proc, fault);

        // iret hypercall -> PVM (prefault) -> back to user, as in Fig. 9.
        counters_->add(Counter::kHypercall);
        co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state,
                                        SwitchReason::kHypercall);
        co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_simple_handler);
        co_await drain_sync_ring(vcpu);
        if (engine_->options().prefault) {
          if (const Pte* leaf = proc.gpt().find_pte(page_base(gva));
              leaf != nullptr && leaf->present()) {
            const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(gva),
                                                           !user_mode, *leaf,
                                                           /*is_prefault=*/true);
            if (!filled) {
              co_await kernel.oom_kill_process(vcpu, proc);
              co_return;
            }
            counters_->add(Counter::kPrefaultSavedFault);
          }
        }
        co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring);
        continue;
      }
      // Shadow fault: fall through to the hypervisor path below.
    }

    // Fault against the shadow table: one switcher world switch into PVM
    // (Fig. 9 ①-②), which classifies it against GPT2.
    co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kPageFault);
    co_await sim_->delay(costs_->pvm_exit_dispatch);
    co_await drain_sync_ring(vcpu);  // piggybacked collaborative sync (free)

    const WalkResult gpt_walk = proc.gpt().walk(gva, access, user_mode);
    co_await sim_->delay(static_cast<std::uint64_t>(gpt_walk.levels_walked) *
                         costs_->walk_load);

    if (gpt_walk.present && gpt_walk.permission_ok) {
      // Pure shadow miss (❶-❺): PVM fills SPT12 itself and returns straight
      // to the faulting context. If prefault did its job this path is rare.
      counters_->add(Counter::kShadowPageFault);
      const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(gva), !user_mode,
                                                     gpt_walk.pte, /*is_prefault=*/false);
      if (!filled) {
        // Even the engine's reclaim pass found no backing: escalate to the
        // guest OOM killer rather than spin on an unserviceable fault.
        co_await kernel.oom_kill_process(vcpu, proc);
        co_return;
      }
      co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring);
      continue;
    }

    // Genuine guest fault (①-⑩): inject the #PF into the guest kernel (③-⑤),
    // let it repair GPT2 (⑥, each store trapping via gpt_map), take the iret
    // hypercall (⑦), prefault SPT12 (⑧), and return to guest user (⑨-⑩).
    co_await sim_->delay(costs_->pvm_exception_inject);
    co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, VirtRing::kVRing0);

    const PageFaultInfo fault{gva, access, user_mode, gpt_walk.present};
    co_await kernel.handle_page_fault(vcpu, proc, fault);

    counters_->add(Counter::kHypercall);  // iret hypercall
    co_await switcher.to_hypervisor(vcpu.switcher_state, vcpu.state, SwitchReason::kHypercall);
    co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_simple_handler);
    co_await drain_sync_ring(vcpu);  // piggybacked collaborative sync (free)

    if (engine_->options().prefault) {
      if (const Pte* leaf = proc.gpt().find_pte(page_base(gva));
          leaf != nullptr && leaf->present()) {
        const bool filled = co_await engine_->fill_spt(proc.pid(), page_base(gva), !user_mode,
                                                       *leaf, /*is_prefault=*/true);
        if (!filled) {
          co_await kernel.oom_kill_process(vcpu, proc);
          co_return;
        }
        counters_->add(Counter::kPrefaultSavedFault);
      }
    }
    co_await switcher.enter_guest(vcpu.switcher_state, vcpu.state, resume_ring);
  }
  fault_loop_error(gva);
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
    if (shadowed_.count(record.pid) == 0) {
      continue;
    }
    co_await engine_->emulate_gpt_store(record.pid, record.gva, record.kind, vcpu.tlb, vpid_,
                                        costs_->pvm_gpt_store_emulate / 2);
  }
}

Task<void> PvmMemoryBackend::trapped_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                           GptStoreKind kind) {
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

Task<void> PvmMemoryBackend::gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
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
  if (collaborative()) {
    // §5 extension: widening stores don't trap — they queue for batched
    // synchronization (a missing SPT entry only means a later, fillable
    // fault, so deferral is safe).
    for (int i = 0; i < result.entries_written; ++i) {
      const bool leaf = i == result.entries_written - 1;
      co_await queue_sync(vcpu, proc, gva,
                          leaf ? GptStoreKind::kInstall : GptStoreKind::kTableAlloc);
    }
    co_return;
  }
  // GPT2 is read-only to the guest: every store needs PVM's assistance —
  // 2 world switches per touched level (the "2n" of §3.3.2).
  for (int i = 0; i < result.entries_written; ++i) {
    const bool leaf = i == result.entries_written - 1;
    co_await trapped_store(vcpu, proc, gva,
                           leaf ? GptStoreKind::kInstall : GptStoreKind::kTableAlloc);
  }
}

Task<void> PvmMemoryBackend::gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) {
  proc.gpt().unmap(gva);
  tlb_drop_page(vcpu, proc, gva);
  if (!shadowed(proc)) {
    co_await sim_->delay(costs_->guest_pte_store);
    co_return;
  }
  co_await trapped_store(vcpu, proc, gva, GptStoreKind::kClear);
}

Task<void> PvmMemoryBackend::gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
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
  if (collaborative() && writable) {
    // Widening: batched like installs.
    co_await queue_sync(vcpu, proc, gva, GptStoreKind::kMakeWritable);
    co_return;
  }
  co_await trapped_store(vcpu, proc, gva,
                         writable ? GptStoreKind::kMakeWritable : GptStoreKind::kWriteProtect);
}

Task<void> PvmMemoryBackend::activate_process(Vcpu& vcpu, GuestProcess& proc,
                                              bool kernel_ring) {
  shadowed_.insert(proc.pid());
  // CR3 writes are paravirtualized: one hypercall round trip through the
  // switcher, then PVM switches the active shadow root.
  co_await hypervisor_->handle_privileged_op(vcpu.switcher_state, vcpu.state,
                                             PrivOp::kWriteCr3);
  vcpu.state.pcid = co_await engine_->activate(proc.pid(), kernel_ring, vcpu.tlb, vpid_);
  vcpu.state.cr3 = engine_->spt(proc.pid(), kernel_ring).root_frame();
}

}  // namespace pvm
