// The paravirtualized guest kernel of one innermost VM.
//
// Implements the kernel-side semantics every workload exercises — demand
// paging, COW fork, exec, mmap/munmap, the syscall surface, and virtio I/O —
// in a deployment-agnostic way: every privileged operation and every page
// table mutation goes through the CpuBackend/MemoryBackend of the active
// scheme, which is where the schemes' world-switch protocols (and therefore
// their costs) live.

#ifndef PVM_SRC_GUEST_GUEST_KERNEL_H_
#define PVM_SRC_GUEST_GUEST_KERNEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/arch/cost_model.h"
#include "src/guest/backend_iface.h"
#include "src/guest/io_device.h"
#include "src/guest/process.h"
#include "src/guest/vcpu.h"
#include "src/metrics/counters.h"
#include "src/sim/flat_map.h"
#include "src/sim/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace pvm {

class GuestKernel {
 public:
  GuestKernel(Simulation& sim, const CostModel& costs, CounterSet& counters,
              FrameAllocator& gpa_frames, MemoryBackend& mem, CpuBackend& cpu, bool kpti);

  MemoryBackend& mem() { return *mem_; }
  CpuBackend& cpu() { return *cpu_; }
  bool kpti() const { return kpti_; }
  FrameAllocator& gpa_frames() { return *gpa_frames_; }

  // ---- Process lifecycle ----

  // Creates a process with the standard VMAs (code/heap/stack/kernel),
  // activates it on `vcpu`, and pre-touches `initial_pages` pages of code and
  // stack (its resident footprint).
  Task<GuestProcess*> create_init_process(Vcpu& vcpu, int initial_pages);

  // fork(): child address space built COW — every present parent user page
  // is write-protected in the parent (a trapped GPT store under shadow
  // paging) and aliased read-only into the child.
  Task<GuestProcess*> sys_fork(Vcpu& vcpu, GuestProcess& parent);

  // exec(): drop the whole user address space, build a fresh one, touch
  // `fresh_pages` of the new image.
  Task<void> sys_exec(Vcpu& vcpu, GuestProcess& proc, int fresh_pages);

  // exit(): tear down the address space and release all frames.
  Task<void> sys_exit(Vcpu& vcpu, GuestProcess& proc);

  // ---- Memory ----

  // One user-mode data access; demand-pages and breaks COW as needed.
  Task<void> touch(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, bool write);

  // One kernel-mode data access (kernel half of the address space).
  Task<void> touch_kernel(Vcpu& vcpu, GuestProcess& proc, std::uint64_t offset);

  // mmap(): syscall reserving `bytes` of lazily-populated address space;
  // returns the base address.
  Task<std::uint64_t> sys_mmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t bytes);

  // munmap(): syscall dropping the VMA at `start`, clearing PTEs and
  // releasing frames.
  Task<void> sys_munmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t start);

  // The guest page-fault handler — invoked *by the memory backends* once
  // their protocol has delivered the fault to the guest kernel.
  Task<void> handle_page_fault(Vcpu& vcpu, GuestProcess& proc, const PageFaultInfo& fault);

  // ---- Syscalls ----

  // getpid()-class null syscall (Table 2).
  Task<void> sys_getpid(Vcpu& vcpu, GuestProcess& proc);

  // Generic syscall with `body_ns` of kernel work and `kernel_touches`
  // kernel-memory accesses (stat, open/close, select, ...).
  Task<void> sys_simple(Vcpu& vcpu, GuestProcess& proc, std::uint64_t body_ns,
                        int kernel_touches);

  // File-system style syscall: `body_ns` of kernel work, `fresh_pages`
  // newly-allocated kernel pages (page cache / inode slabs — each one a
  // demand fault), and `free_pages` previously-allocated kernel pages
  // released back (unlink / eviction).
  Task<void> sys_file_op(Vcpu& vcpu, GuestProcess& proc, std::uint64_t body_ns, int fresh_pages,
                         int free_pages);

  // Signal delivery: kernel-to-user upcall plus sigreturn.
  Task<void> deliver_signal(Vcpu& vcpu, GuestProcess& proc);

  // ---- I/O ----
  Task<void> do_io(Vcpu& vcpu, GuestProcess& proc, IoDevice& device, std::uint64_t bytes);

  // ---- OOM handling ----

  // Marks `victim` killed, tears down its address space, and returns its
  // frames. Idempotent. Called on guest-internal allocation failure, by
  // backends on L1 backing exhaustion (fill_spt returning false), and by the
  // watchdog's kill escalation.
  Task<void> oom_kill_process(Vcpu& vcpu, GuestProcess& victim);

  // Linux-style victim selection: kills the not-yet-killed process with the
  // largest resident set. Returns false when no process holds any frame
  // (killing more would free nothing).
  Task<bool> oom_kill_largest(Vcpu& vcpu);

  // Frame release honouring COW sharing.
  void release_frame(std::uint64_t frame);
  void note_cow_share(std::uint64_t frame);
  int cow_refs(std::uint64_t frame) const;

  const std::vector<std::unique_ptr<GuestProcess>>& processes() const { return processes_; }
  GuestProcess* process_by_pid(std::uint64_t pid);

 private:
  Task<void> populate_page(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, bool writable);
  Task<void> break_cow(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva);
  Task<void> teardown_address_space(Vcpu& vcpu, GuestProcess& proc);

  // Allocates a user frame, absorbing transient (injected) allocator
  // pressure with a short retry burst and escalating to the OOM killer on
  // sustained exhaustion. nullopt means `proc` itself was killed.
  Task<std::optional<std::uint64_t>> alloc_user_frame(Vcpu& vcpu, GuestProcess& proc);

  Simulation* sim_;
  const CostModel* costs_;
  CounterSet* counters_;
  FrameAllocator* gpa_frames_;
  MemoryBackend* mem_;
  CpuBackend* cpu_;
  bool kpti_;

  // The guest kernel's buddy/zone lock: bulk page allocation and release
  // (fork's COW pass, exit/exec teardown, large munmaps) serialize here, as
  // in Linux. Single-page demand faults use per-CPU lists and skip it —
  // which is why Fig. 4/10's EPT line stays flat while Table 3's 32-process
  // fork does not.
  Resource zone_lock_;

  std::uint64_t next_pid_ = 1;
  std::vector<std::unique_ptr<GuestProcess>> processes_;
  // Owners of each COW-shared frame; a frame with no entry has one.
  FlatMap<std::uint64_t, int, IdentityHash> cow_refs_;
};

}  // namespace pvm

#endif  // PVM_SRC_GUEST_GUEST_KERNEL_H_
