// A process inside the innermost guest.
//
// Owns the guest page table (GPT2: GVA -> GPA_L2, with table pages allocated
// from the VM's guest-physical space) and a VMA list driving demand paging,
// COW fork, and exec. All GPT mutations flow through the deployment's
// MemoryBackend so shadow configurations see the write-protect traps.

#ifndef PVM_SRC_GUEST_PROCESS_H_
#define PVM_SRC_GUEST_PROCESS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/arch/page_table.h"
#include "src/arch/physical_memory.h"
#include "src/sim/fifo.h"

namespace pvm {

struct Vma {
  std::uint64_t start = 0;
  std::uint64_t length = 0;
  bool writable = true;

  std::uint64_t end() const { return start + length; }
  bool contains(std::uint64_t gva) const { return gva >= start && gva < end(); }
};

class GuestProcess {
 public:
  // User-half VA layout constants for synthetic address spaces.
  static constexpr std::uint64_t kCodeBase = 0x0000000000400000ull;
  static constexpr std::uint64_t kHeapBase = 0x0000100000000000ull;
  static constexpr std::uint64_t kStackBase = 0x00007f0000000000ull;
  static constexpr std::uint64_t kKernelBase = 0xffff800000000000ull;

  GuestProcess(std::uint64_t pid, FrameAllocator& gpa_frames)
      : pid_(pid),
        gpa_frames_(&gpa_frames),
        gpt_("gpt.pid" + std::to_string(pid), &gpa_frames) {}

  std::uint64_t pid() const { return pid_; }
  PageTable& gpt() { return gpt_; }
  const PageTable& gpt() const { return gpt_; }
  FrameAllocator& gpa_frames() { return *gpa_frames_; }

  std::map<std::uint64_t, Vma>& vmas() { return vmas_; }
  const std::map<std::uint64_t, Vma>& vmas() const { return vmas_; }

  // Finds the VMA covering `gva`, or nullptr (a fault outside every VMA is a
  // guest segfault — the workloads never trigger one, and tests assert it).
  const Vma* find_vma(std::uint64_t gva) const {
    auto it = vmas_.upper_bound(gva);
    if (it == vmas_.begin()) {
      return nullptr;
    }
    --it;
    return it->second.contains(gva) ? &it->second : nullptr;
  }

  // Reserves `length` bytes of address space at the next free heap address.
  std::uint64_t add_vma(std::uint64_t length, bool writable) {
    const std::uint64_t start = next_map_va_;
    next_map_va_ += (length + kPageMask) & ~kPageMask;
    vmas_[start] = Vma{start, length, writable};
    return start;
  }

  bool remove_vma(std::uint64_t start) { return vmas_.erase(start) > 0; }

  // Per-process PCIDs as a guest kernel would assign them (user/kernel halves
  // under KPTI).
  std::uint16_t user_pcid() const { return static_cast<std::uint16_t>((pid_ * 2 + 1) % 2048); }
  std::uint16_t kernel_pcid() const { return static_cast<std::uint16_t>((pid_ * 2) % 2048); }

  // Bookkeeping for frames the process owns (data pages), so exit/exec can
  // return them to the VM.
  void note_data_frame(std::uint64_t gva, std::uint64_t frame) { data_frames_[gva] = frame; }
  std::map<std::uint64_t, std::uint64_t>& data_frames() { return data_frames_; }

  // Set when the guest OOM killer (or the watchdog's kill escalation) chose
  // this process. The object stays alive — suspended coroutines may still
  // hold references — but every kernel entry point and backend access loop
  // no-ops from then on.
  bool oom_killed() const { return oom_killed_; }
  void set_oom_killed() { oom_killed_ = true; }

  // Bump pointer for fresh kernel-page allocations (page cache, inodes):
  // file-op workloads fault in previously-untouched kernel pages through it.
  std::uint64_t take_kernel_alloc_offset() {
    const std::uint64_t offset = kernel_alloc_offset_;
    kernel_alloc_offset_ += kPageSize;
    return offset;
  }

  // Fresh kernel pages (gvas) that file ops allocated and have not freed
  // yet, oldest first. The process owns the queue, so a file op suspended
  // across an OOM kill still holds a live reference to it.
  Fifo<std::uint64_t>& kernel_allocs() { return kernel_allocs_; }

 private:
  std::uint64_t pid_;
  FrameAllocator* gpa_frames_;
  PageTable gpt_;
  std::map<std::uint64_t, Vma> vmas_;
  std::map<std::uint64_t, std::uint64_t> data_frames_;
  std::uint64_t next_map_va_ = kHeapBase;
  std::uint64_t kernel_alloc_offset_ = 1ull << 20;  // above the fixed kernel touches
  Fifo<std::uint64_t> kernel_allocs_;
  bool oom_killed_ = false;
};

}  // namespace pvm

#endif  // PVM_SRC_GUEST_PROCESS_H_
