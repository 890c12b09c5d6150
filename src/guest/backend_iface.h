// Deployment-specific backend interfaces.
//
// A MemoryBackend implements one memory-virtualization scheme (kvm-ept,
// kvm-spt, EPT-on-EPT, SPT-on-EPT, PVM shadow paging on bare metal or on
// EPT, PVM direct paging); a CpuBackend implements the matching
// CPU-virtualization scheme (hardware VMX or PVM's switcher). The
// guest kernel is scheme-agnostic: it drives all address-space mutations and
// privileged operations through these interfaces, and the backends run the
// world-switch protocols of §2.2/§3.3.

#ifndef PVM_SRC_GUEST_BACKEND_IFACE_H_
#define PVM_SRC_GUEST_BACKEND_IFACE_H_

#include <cstdint>
#include <string_view>

#include "src/arch/page_table.h"
#include "src/arch/priv_op.h"
#include "src/guest/process.h"
#include "src/guest/vcpu.h"
#include "src/mmu/fault.h"
#include "src/sim/task.h"

namespace pvm {

class GuestKernel;

class MemoryBackend {
 public:
  virtual ~MemoryBackend() = default;

  virtual std::string_view name() const = 0;

  // Process lifecycle hooks (shadow state follows the process).
  virtual void on_process_created(GuestProcess& proc) = 0;
  virtual Task<void> on_process_destroyed(Vcpu& vcpu, GuestProcess& proc) = 0;

  // One data access (load/store/fetch) performed by guest code at `gva`.
  // Runs the full pipeline: TLB probe, hardware walk, and — on faults — the
  // deployment's complete fault-handling protocol, re-entering `kernel` for
  // guest-level handling (demand paging, COW). Returns once the access has
  // retired.
  virtual Task<void> access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                            std::uint64_t gva, AccessType access, bool user_mode) = 0;

  // GPT mutation channels used by the guest kernel. Implementations make
  // the store effective in the process's GPT *and* run whatever trap
  // protocol the scheme requires (write-protect traps under shadow paging;
  // nothing under EPT schemes).
  virtual Task<void> gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                             std::uint64_t gpa_frame, PteFlags flags) = 0;
  virtual Task<void> gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) = 0;
  // Changes the write permission of an existing leaf; `mark_cow` tags the
  // entry copy-on-write (fork's write-protect pass sets both).
  virtual Task<void> gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                 bool writable, bool mark_cow) = 0;

  // Installs `proc`'s address space on `vcpu` (CR3 write + TLB policy).
  virtual Task<void> activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) = 0;
};

class CpuBackend {
 public:
  virtual ~CpuBackend() = default;

  virtual std::string_view name() const = 0;

  // Syscall entry (guest user -> guest kernel) and return.
  virtual Task<void> syscall_enter(Vcpu& vcpu, GuestProcess& proc) = 0;
  virtual Task<void> syscall_exit(Vcpu& vcpu, GuestProcess& proc) = 0;

  // A privileged operation issued by the guest kernel; round trip back to
  // the guest (the Table 1 microbenchmark surface).
  virtual Task<void> privileged_op(Vcpu& vcpu, PrivOp op) = 0;

  // A (trapped) exception raised by guest user code, handled by the guest
  // kernel, returning to user (Table 1 "Exception").
  virtual Task<void> exception_roundtrip(Vcpu& vcpu) = 0;

  // An external interrupt arriving while this vCPU runs guest code.
  virtual Task<void> interrupt(Vcpu& vcpu) = 0;

  // HLT: the guest kernel idles until the next event (§4.3: PVM handles HALT
  // via hypercall without leaving the L1 VM).
  virtual Task<void> halt(Vcpu& vcpu) = 0;
};

}  // namespace pvm

#endif  // PVM_SRC_GUEST_BACKEND_IFACE_H_
