#include "src/backends/memory_common.h"

#include <stdexcept>

#include "src/obs/flight.h"
#include "src/obs/span.h"

namespace pvm {

Task<void> MemoryBackendBase::access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                     std::uint64_t gva, AccessType access, bool user_mode) {
  const GuestAccess request{gva, access, user_mode};
  const std::uint16_t pcid = access_pcid(proc, user_mode);
  obs::SpanScope op;
  for (int attempt = 0;; ++attempt) {
    if (attempt == max_attempts_) {
      throw std::logic_error(label_ + ": access at gva " + std::to_string(gva) +
                             " did not converge (fault-handling bug)");
    }
    if (proc.oom_killed()) {
      co_return;  // OOM-killed mid-access; the faulting task is abandoned
    }
    if (tlb_try(vcpu, pcid, request)) {
      co_await sim_->delay(costs_->tlb_hit);
      break;
    }

    const TwoDimWalk walk = hardware_walk(proc, request);
    co_await sim_->delay(static_cast<std::uint64_t>(walk.total_loads) * costs_->walk_load);
    if (walk.outcome == TwoDimWalk::Outcome::kOk) {
      vcpu.tlb.insert(vpid_, pcid, page_number(gva),
                      Pte::make(walk.host_frame, walk.guest.pte.flags()));
      co_await sim_->delay(costs_->tlb_fill);
      break;
    }
    if (attempt == 0) {
      if (opens_fault_span_) {
        op = obs::SpanScope(sim_->spans(), obs::Phase::kOpPageFault, gva);
      }
      if (flight::FlightRecorder* flight = sim_->flight()) {
        flight->record(flight::EventKind::kGuestFault, gva,
                       static_cast<std::uint64_t>(proc.pid()));
      }
    }
    const bool alive = co_await resolve_fault(vcpu, proc, kernel, request, walk);
    if (!alive) {
      co_return;
    }
  }
  // The access retired. Reads, untracked writes and a disarmed tracker cost
  // this one branch, not a dirty_note coroutine frame.
  if (dirty_ != nullptr && access == AccessType::kWrite && dirty_->armed()) {
    co_await dirty_note(vcpu, proc, request);
  }
}

bool MemoryBackendBase::tlb_try(Vcpu& vcpu, std::uint16_t pcid, const GuestAccess& access) {
  const std::uint64_t vpn = page_number(access.gva);
  const auto hit = vcpu.tlb.lookup(vpid_, pcid, vpn);
  if (!hit.hit) {
    counters_->add(Counter::kTlbMiss);
    return false;
  }
  if ((access.type == AccessType::kWrite && !hit.writable) || (access.user_mode && !hit.user)) {
    vcpu.tlb.flush_page(vpid_, pcid, vpn);
    counters_->add(Counter::kTlbMiss);
    return false;
  }
  counters_->add(Counter::kTlbHit);
  return true;
}

Task<void> MemoryBackendBase::dirty_note(const Vcpu& vcpu, const GuestProcess& proc,
                                         const GuestAccess& access) {
  switch (dirty_->note_store(vcpu.id, dirty_page_key(proc.pid(), access.gva))) {
    case DirtyStoreOutcome::kClean:
      co_return;
    case DirtyStoreOutcome::kWpFault: {
      counters_->add(Counter::kDirtyWpFault);
      obs::SpanScope span(sim_->spans(), obs::Phase::kDirtyTrack, access.gva);
      co_await sim_->delay(dirty_exit_roundtrip_ns() + costs_->dirty_wp_unprotect);
      co_return;
    }
    case DirtyStoreOutcome::kPmlAppend: {
      counters_->add(Counter::kDirtyPmlLog);
      obs::SpanScope span(sim_->spans(), obs::Phase::kDirtyTrack, access.gva);
      co_await sim_->delay(costs_->pml_log_append);
      co_return;
    }
    case DirtyStoreOutcome::kPmlFlush: {
      counters_->add(Counter::kDirtyPmlLog);
      counters_->add(Counter::kDirtyPmlFlush);
      obs::SpanScope span(sim_->spans(), obs::Phase::kDirtyTrack, access.gva);
      co_await sim_->delay(dirty_exit_roundtrip_ns() + costs_->pml_flush_drain);
      co_return;
    }
  }
}

// ---- GuestPtBackend: the store is charged first, then TLB aliases drop ----

Task<void> GuestPtBackend::gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                   std::uint64_t gpa_frame, PteFlags flags) {
  const MapResult result = proc.gpt().map(gva, gpa_frame, flags);
  co_await sim_->delay(static_cast<std::uint64_t>(result.entries_written) *
                       costs_->guest_pte_store);
  if (result.replaced) {
    tlb_drop_page(vcpu, proc, gva);
  }
}

Task<void> GuestPtBackend::gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) {
  proc.gpt().unmap(gva);
  // invlpg after the clear.
  co_await sim_->delay(costs_->guest_pte_store + costs_->cr3_write / 2);
  tlb_drop_page(vcpu, proc, gva);
}

Task<void> GuestPtBackend::gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                       bool writable, bool mark_cow) {
  proc.gpt().update_pte(gva, [&](Pte& pte) {
    pte.set_writable(writable);
    pte.set_cow(mark_cow);
  });
  co_await sim_->delay(costs_->guest_pte_store + costs_->cr3_write / 2);
  tlb_drop_page(vcpu, proc, gva);
}

Task<void> GuestPtBackend::activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) {
  // CR3 write in non-root mode: no exit, PCID keeps the TLB warm.
  vcpu.state.cr3 = proc.gpt().root_frame();
  vcpu.state.pcid = guest_pcid(proc, !kernel_ring, kpti_);
  co_await sim_->delay(costs_->cr3_write);
}

Task<void> GuestPtBackend::guest_local_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                             const GuestAccess& access, const TwoDimWalk& walk) {
  co_await sim_->delay(costs_->ring_crossing + costs_->guest_exception_delivery);
  co_await kernel.handle_page_fault(
      vcpu, proc, access.fault(walk.outcome == TwoDimWalk::Outcome::kGuestProtection));
  co_await sim_->delay(costs_->ring_crossing);  // iret
}

// ---- TrackedPtBackend: TLB aliases drop first, then the store is charged ----

Task<void> TrackedPtBackend::gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                     std::uint64_t gpa_frame, PteFlags flags) {
  const MapResult result = proc.gpt().map(gva, gpa_frame, flags);
  if (result.replaced) {
    tlb_drop_page(vcpu, proc, gva);
  }
  if (!tracked(proc.pid())) {
    co_await sim_->delay(static_cast<std::uint64_t>(result.entries_written) *
                         costs_->guest_pte_store);
    co_return;
  }
  co_await sync_map(vcpu, proc, gva, result.entries_written);
}

Task<void> TrackedPtBackend::gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) {
  proc.gpt().unmap(gva);
  tlb_drop_page(vcpu, proc, gva);
  if (!tracked(proc.pid())) {
    co_await sim_->delay(costs_->guest_pte_store);
    co_return;
  }
  co_await sync_store(vcpu, proc, gva, GptStoreKind::kClear);
}

Task<void> TrackedPtBackend::gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                         bool writable, bool mark_cow) {
  proc.gpt().update_pte(gva, [&](Pte& pte) {
    pte.set_writable(writable);
    pte.set_cow(mark_cow);
  });
  tlb_drop_page(vcpu, proc, gva);
  if (!tracked(proc.pid())) {
    co_await sim_->delay(costs_->guest_pte_store);
    co_return;
  }
  co_await sync_store(vcpu, proc, gva,
                      writable ? GptStoreKind::kMakeWritable : GptStoreKind::kWriteProtect);
}

Task<void> TrackedPtBackend::sync_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                      int entries) {
  for (int i = 0; i < entries; ++i) {
    co_await sync_store(vcpu, proc, gva,
                        i == entries - 1 ? GptStoreKind::kInstall : GptStoreKind::kTableAlloc);
  }
}

}  // namespace pvm
