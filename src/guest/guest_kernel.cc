#include "src/guest/guest_kernel.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "src/obs/flight.h"
#include "src/obs/span.h"

namespace pvm {

GuestKernel::GuestKernel(Simulation& sim, const CostModel& costs, CounterSet& counters,
                         FrameAllocator& gpa_frames, MemoryBackend& mem, CpuBackend& cpu,
                         bool kpti)
    : sim_(&sim),
      costs_(&costs),
      counters_(&counters),
      gpa_frames_(&gpa_frames),
      mem_(&mem),
      cpu_(&cpu),
      kpti_(kpti),
      zone_lock_(sim, "guest.zone_lock") {}

GuestProcess* GuestKernel::process_by_pid(std::uint64_t pid) {
  for (const auto& proc : processes_) {
    if (proc && proc->pid() == pid) {
      return proc.get();
    }
  }
  return nullptr;
}

void GuestKernel::note_cow_share(std::uint64_t frame) {
  ++*cow_refs_.try_emplace(frame, 0).first;
}

int GuestKernel::cow_refs(std::uint64_t frame) const {
  const int* refs = cow_refs_.find(frame);
  return refs == nullptr ? 1 : *refs;
}

void GuestKernel::release_frame(std::uint64_t frame) {
  if (int* refs = cow_refs_.find(frame)) {
    if (--*refs > 0) {
      return;  // other owners remain
    }
    cow_refs_.erase(frame);
  }
  gpa_frames_->free(frame);
}

Task<GuestProcess*> GuestKernel::create_init_process(Vcpu& vcpu, int initial_pages) {
  auto proc = std::make_unique<GuestProcess>(next_pid_++, *gpa_frames_);
  GuestProcess* raw = proc.get();
  processes_.push_back(std::move(proc));

  // Standard layout: code, heap (grown by mmap), stack, and a kernel half
  // (kernel stacks / slab pages this process will fault in on demand).
  raw->vmas()[GuestProcess::kCodeBase] = Vma{GuestProcess::kCodeBase, 64ull << 20, true};
  raw->vmas()[GuestProcess::kStackBase] = Vma{GuestProcess::kStackBase, 16ull << 20, true};
  raw->vmas()[GuestProcess::kKernelBase] = Vma{GuestProcess::kKernelBase, 64ull << 20, true};

  mem_->on_process_created(*raw);
  co_await mem_->activate_process(vcpu, *raw, /*kernel_ring=*/false);

  // Fault in the resident footprint: code + stack pages.
  for (int i = 0; i < initial_pages; ++i) {
    const bool code = i % 2 == 0;
    const std::uint64_t base = code ? GuestProcess::kCodeBase : GuestProcess::kStackBase;
    co_await touch(vcpu, *raw, base + static_cast<std::uint64_t>(i / 2) * kPageSize, !code);
  }
  co_return raw;
}

Task<void> GuestKernel::touch(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, bool write) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  co_await mem_->access(vcpu, proc, *this, gva, write ? AccessType::kWrite : AccessType::kRead,
                        /*user_mode=*/true);
}

Task<void> GuestKernel::touch_kernel(Vcpu& vcpu, GuestProcess& proc, std::uint64_t offset) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  co_await mem_->access(vcpu, proc, *this, GuestProcess::kKernelBase + offset,
                        AccessType::kWrite, /*user_mode=*/false);
}

Task<void> GuestKernel::handle_page_fault(Vcpu& vcpu, GuestProcess& proc,
                                          const PageFaultInfo& fault) {
  if (proc.oom_killed()) {
    co_return;  // its VMAs are gone; the faulting access is abandoned
  }
  const Vma* vma = proc.find_vma(fault.gva);
  if (vma == nullptr) {
    throw std::logic_error("guest segfault at gva " + std::to_string(fault.gva) +
                           " (simulation bug: workload touched unmapped memory)");
  }
  counters_->add(Counter::kGuestPageFault);
  // Read the VMA before suspending: an OOM kill from another vCPU during the
  // handler delay tears the address space down and frees the node.
  const bool writable = vma->writable;
  co_await sim_->delay(costs_->guest_pf_handler);

  if (fault.protection) {
    co_await break_cow(vcpu, proc, fault.gva);
    co_return;
  }
  co_await populate_page(vcpu, proc, fault.gva, writable);
}

Task<std::optional<std::uint64_t>> GuestKernel::alloc_user_frame(Vcpu& vcpu,
                                                                 GuestProcess& proc) {
  for (;;) {
    // A short burst absorbs transient injected pressure; only sustained
    // refusal reaches the OOM killer.
    for (int i = 0; i < 3; ++i) {
      if (std::optional<std::uint64_t> frame = gpa_frames_->allocate()) {
        co_return frame;
      }
    }
    // Bound before the test: GCC 12 miscompiles `if (!co_await ...)`.
    const bool killed = co_await oom_kill_largest(vcpu);
    if (!killed) {
      // Nothing left worth killing; the requester itself is the last victim.
      co_await oom_kill_process(vcpu, proc);
      co_return std::nullopt;
    }
    if (proc.oom_killed()) {
      co_return std::nullopt;  // the requester was the largest resident
    }
  }
}

Task<void> GuestKernel::populate_page(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                      bool writable) {
  const std::uint64_t page = page_base(gva);
  const std::optional<std::uint64_t> frame = co_await alloc_user_frame(vcpu, proc);
  if (!frame.has_value()) {
    co_return;
  }
  co_await sim_->delay(costs_->page_zero);
  if (proc.oom_killed()) {
    // Killed while zeroing (another vCPU's OOM pass): its teardown already
    // swept data_frames, so this frame must go straight back.
    release_frame(*frame);
    co_return;
  }
  proc.note_data_frame(page, *frame);
  PteFlags flags = PteFlags::rw_user();
  flags.writable = writable;
  co_await mem_->gpt_map(vcpu, proc, page, *frame, flags);
}

Task<void> GuestKernel::break_cow(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) {
  const std::uint64_t page = page_base(gva);
  Pte* pte = proc.gpt().find_pte(page);
  if (pte == nullptr || !pte->present()) {
    // Raced with teardown; treat as fresh population.
    co_await populate_page(vcpu, proc, gva, true);
    co_return;
  }
  counters_->add(Counter::kCowBreak);
  const std::uint64_t old_frame = pte->frame_number();
  if (cow_refs(old_frame) > 1) {
    // Shared: copy into a private frame.
    const std::optional<std::uint64_t> new_frame = co_await alloc_user_frame(vcpu, proc);
    if (!new_frame.has_value()) {
      co_return;
    }
    co_await sim_->delay(costs_->page_copy);
    if (proc.oom_killed()) {
      release_frame(*new_frame);
      co_return;
    }
    release_frame(old_frame);
    proc.note_data_frame(page, *new_frame);
    co_await mem_->gpt_map(vcpu, proc, page, *new_frame, PteFlags::rw_user());
    co_return;
  }
  // Sole owner left: just restore write access in place.
  cow_refs_.erase(old_frame);
  co_await mem_->gpt_protect(vcpu, proc, page, /*writable=*/true, /*mark_cow=*/false);
}

Task<GuestProcess*> GuestKernel::sys_fork(Vcpu& vcpu, GuestProcess& parent) {
  if (parent.oom_killed()) {
    co_return nullptr;
  }
  ++vcpu.progress;
  co_await cpu_->syscall_enter(vcpu, parent);
  counters_->add(Counter::kProcessForked);
  co_await sim_->delay(costs_->fork_base);

  auto child_owner = std::make_unique<GuestProcess>(next_pid_++, *gpa_frames_);
  GuestProcess* child = child_owner.get();
  processes_.push_back(std::move(child_owner));
  child->vmas() = parent.vmas();
  mem_->on_process_created(*child);

  // COW pass: write-protect every present parent user page (a trapped GPT
  // store under shadow paging) and alias it read-only into the child. The
  // child's fresh page table is not yet registered with any shadow scheme,
  // so its stores are plain memory writes.
  //
  // Iterate a snapshot, not the live map: this loop suspends, and an OOM
  // kill of the parent meanwhile (from another vCPU) moves and clears
  // data_frames() in teardown_address_space, which would invalidate a live
  // iterator. The oom_killed check stops us before aliasing a frame the
  // teardown already returned to the allocator.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> parent_frames(
      parent.data_frames().begin(), parent.data_frames().end());
  for (const auto& [gva, frame] : parent_frames) {
    if (parent.oom_killed()) {
      break;  // teardown owns the remaining frames now
    }
    if (gva >= GuestProcess::kKernelBase) {
      continue;  // the kernel half is not inherited
    }
    Pte* pte = parent.gpt().find_pte(gva);
    if (pte == nullptr || !pte->present()) {
      continue;
    }
    ++*cow_refs_.try_emplace(frame, 1).first;  // the parent, then the child
    if (pte->writable()) {
      co_await mem_->gpt_protect(vcpu, parent, gva, /*writable=*/false, /*mark_cow=*/true);
    }
    PteFlags child_flags = PteFlags::ro_user();
    child_flags.cow = true;
    child->gpt().map(gva, frame, child_flags);
    child->note_data_frame(gva, frame);
    {
      // Page-reference bookkeeping goes through the zone lock.
      ScopedResource zone = co_await zone_lock_.scoped();
      co_await sim_->delay(costs_->guest_pte_store + 25);
    }
  }

  co_await cpu_->syscall_exit(vcpu, parent);
  co_return child;
}

Task<void> GuestKernel::teardown_address_space(Vcpu& vcpu, GuestProcess& proc) {
  // Take the frame map by value up front: this coroutine suspends repeatedly
  // below, and an OOM kill running meanwhile (from another vCPU) must not
  // walk or mutate the same map mid-iteration.
  const std::map<std::uint64_t, std::uint64_t> frames = std::move(proc.data_frames());
  proc.data_frames().clear();
  proc.vmas().clear();
  // Per-page unmap, paying whatever trap protocol the scheme imposes on
  // each store.
  for (const auto& [gva, frame] : frames) {
    co_await mem_->gpt_unmap(vcpu, proc, gva);
  }
  for (const auto& [gva, frame] : frames) {
    // Bulk frees return pages to the buddy allocator under the zone lock.
    ScopedResource zone = co_await zone_lock_.scoped();
    release_frame(frame);
    co_await sim_->delay(costs_->guest_pte_store + 25);
  }
}

Task<void> GuestKernel::oom_kill_process(Vcpu& vcpu, GuestProcess& victim) {
  if (victim.oom_killed()) {
    co_return;
  }
  victim.set_oom_killed();
  counters_->add(Counter::kGuestOomKill);
  if (flight::FlightRecorder* flight = sim_->flight()) {
    flight->record(flight::EventKind::kOomKill, victim.pid(), victim.data_frames().size());
  }
  sim_->add_diagnostic("guest OOM: killed pid " + std::to_string(victim.pid()) + " (" +
                       std::to_string(victim.data_frames().size()) + " data frames) at t=" +
                       std::to_string(sim_->now()));
  victim.kernel_allocs() = {};
  // The process object stays in processes_ — suspended coroutines still
  // reference it — but its frames go back and every entry point no-ops.
  co_await teardown_address_space(vcpu, victim);
}

Task<bool> GuestKernel::oom_kill_largest(Vcpu& vcpu) {
  GuestProcess* victim = nullptr;
  for (const auto& proc : processes_) {
    if (proc->oom_killed()) {
      continue;
    }
    if (victim == nullptr || proc->data_frames().size() > victim->data_frames().size()) {
      victim = proc.get();
    }
  }
  if (victim == nullptr || victim->data_frames().empty()) {
    co_return false;  // killing more would free nothing
  }
  co_await oom_kill_process(vcpu, *victim);
  co_return true;
}

Task<void> GuestKernel::sys_exec(Vcpu& vcpu, GuestProcess& proc, int fresh_pages) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  co_await cpu_->syscall_enter(vcpu, proc);
  counters_->add(Counter::kProcessExeced);
  co_await sim_->delay(costs_->exec_base);

  co_await teardown_address_space(vcpu, proc);
  proc.vmas()[GuestProcess::kCodeBase] = Vma{GuestProcess::kCodeBase, 64ull << 20, true};
  proc.vmas()[GuestProcess::kStackBase] = Vma{GuestProcess::kStackBase, 16ull << 20, true};
  proc.vmas()[GuestProcess::kKernelBase] = Vma{GuestProcess::kKernelBase, 64ull << 20, true};

  for (int i = 0; i < fresh_pages; ++i) {
    const bool code = i % 2 == 0;
    const std::uint64_t base = code ? GuestProcess::kCodeBase : GuestProcess::kStackBase;
    co_await touch(vcpu, proc, base + static_cast<std::uint64_t>(i / 2) * kPageSize, !code);
  }
  co_await cpu_->syscall_exit(vcpu, proc);
}

Task<void> GuestKernel::sys_exit(Vcpu& vcpu, GuestProcess& proc) {
  if (proc.oom_killed()) {
    co_return;  // already torn down; the object must outlive its references
  }
  ++vcpu.progress;
  co_await cpu_->syscall_enter(vcpu, proc);
  co_await teardown_address_space(vcpu, proc);
  co_await mem_->on_process_destroyed(vcpu, proc);
  const std::uint64_t pid = proc.pid();
  std::erase_if(processes_,
                [pid](const std::unique_ptr<GuestProcess>& p) { return p->pid() == pid; });
  // No syscall return: the process is gone; the scheduler switches away.
}

Task<std::uint64_t> GuestKernel::sys_mmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t bytes) {
  if (proc.oom_killed()) {
    co_return 0;
  }
  ++vcpu.progress;
  co_await cpu_->syscall_enter(vcpu, proc);
  counters_->add(Counter::kMmapCall);
  co_await sim_->delay(costs_->mmap_body);
  const std::uint64_t base = proc.add_vma(bytes, true);
  co_await cpu_->syscall_exit(vcpu, proc);
  co_return base;
}

Task<void> GuestKernel::sys_munmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t start) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  co_await cpu_->syscall_enter(vcpu, proc);
  counters_->add(Counter::kMunmapCall);
  co_await sim_->delay(costs_->munmap_body);

  if (proc.oom_killed()) {
    co_return;  // killed while entering: teardown already swept the VMAs
  }
  auto vma_it = proc.vmas().find(start);
  if (vma_it == proc.vmas().end()) {
    throw std::logic_error("munmap of unknown vma");
  }
  const Vma vma = vma_it->second;
  // Detach the region from the live map before the first suspension: an OOM
  // kill running meanwhile moves and clears data_frames(), which would
  // invalidate an iterator held across co_await. Once detached, these frames
  // are invisible to the teardown sweep and ours to release unconditionally.
  auto& frames = proc.data_frames();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> region;
  for (auto it = frames.lower_bound(vma.start); it != frames.end() && it->first < vma.end();) {
    region.push_back(*it);
    it = frames.erase(it);
  }
  proc.remove_vma(start);
  for (const auto& [gva, frame] : region) {
    co_await mem_->gpt_unmap(vcpu, proc, gva);
    release_frame(frame);
    co_await sim_->delay(costs_->guest_pte_store);
  }
  co_await cpu_->syscall_exit(vcpu, proc);
}

Task<void> GuestKernel::sys_getpid(Vcpu& vcpu, GuestProcess& proc) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  counters_->add(Counter::kSyscall);
  co_await cpu_->syscall_enter(vcpu, proc);
  co_await sim_->delay(costs_->guest_syscall_body_getpid);
  co_await cpu_->syscall_exit(vcpu, proc);
}

Task<void> GuestKernel::sys_simple(Vcpu& vcpu, GuestProcess& proc, std::uint64_t body_ns,
                                   int kernel_touches) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  counters_->add(Counter::kSyscall);
  co_await cpu_->syscall_enter(vcpu, proc);
  co_await sim_->delay(body_ns);
  for (int i = 0; i < kernel_touches; ++i) {
    co_await touch_kernel(vcpu, proc, static_cast<std::uint64_t>(i) * kPageSize);
  }
  co_await cpu_->syscall_exit(vcpu, proc);
}

Task<void> GuestKernel::sys_file_op(Vcpu& vcpu, GuestProcess& proc, std::uint64_t body_ns,
                                    int fresh_pages, int free_pages) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  counters_->add(Counter::kSyscall);
  co_await cpu_->syscall_enter(vcpu, proc);
  co_await sim_->delay(body_ns);
  Fifo<std::uint64_t>& allocs = proc.kernel_allocs();
  for (int i = 0; i < fresh_pages; ++i) {
    const std::uint64_t offset = proc.take_kernel_alloc_offset();
    co_await touch_kernel(vcpu, proc, offset);
    allocs.push_back(GuestProcess::kKernelBase + offset);
  }
  for (int i = 0; i < free_pages && !allocs.empty(); ++i) {
    const std::uint64_t gva = allocs.front();
    allocs.pop_front();
    if (!proc.data_frames().contains(gva)) {
      continue;
    }
    co_await mem_->gpt_unmap(vcpu, proc, gva);
    // Look again: an OOM kill during the unmap took the frame map and freed
    // the frame already.
    if (auto it = proc.data_frames().find(gva); it != proc.data_frames().end()) {
      release_frame(it->second);
      proc.data_frames().erase(it);
    }
  }
  co_await cpu_->syscall_exit(vcpu, proc);
}

Task<void> GuestKernel::deliver_signal(Vcpu& vcpu, GuestProcess& proc) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  // kill() syscall, then the kernel-to-user upcall and sigreturn — all
  // intra-guest transitions (signals never involve the hypervisor).
  co_await cpu_->syscall_enter(vcpu, proc);
  co_await sim_->delay(500);  // signal bookkeeping + frame setup
  co_await cpu_->syscall_exit(vcpu, proc);
  // Handler upcall + sigreturn.
  co_await cpu_->syscall_enter(vcpu, proc);
  co_await sim_->delay(150);
  co_await cpu_->syscall_exit(vcpu, proc);
}

Task<void> GuestKernel::do_io(Vcpu& vcpu, GuestProcess& proc, IoDevice& device,
                              std::uint64_t bytes) {
  if (proc.oom_killed()) {
    co_return;
  }
  ++vcpu.progress;
  obs::SpanScope span(sim_->spans(), obs::Phase::kIo, bytes);
  counters_->add(Counter::kIoRequest);
  co_await cpu_->syscall_enter(vcpu, proc);
  // Doorbell kick: a privileged exit to the hypervisor owning the device.
  co_await cpu_->privileged_op(vcpu, PrivOp::kIoKick);
  device.note_request();
  {
    ScopedResource slot = co_await device.queue().scoped();
    co_await sim_->delay(device.service_time(bytes));
  }
  // Completion interrupt.
  co_await cpu_->interrupt(vcpu);
  co_await cpu_->syscall_exit(vcpu, proc);
}

}  // namespace pvm
