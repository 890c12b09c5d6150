// The PVM switcher (paper §3.2).
//
// A per-CPU region of code and data mapped at identical virtual addresses in
// the L1 hypervisor, L2 guest kernel, and L2 guest user address spaces. It
// performs world switches entirely inside the L1 VM:
//
//   - VM exit:  guest (h_ring3) --syscall/hypercall/interrupt--> switcher
//               (h_ring0) --to_hypervisor--> L1 hypervisor
//   - VM entry: L1 hypervisor --enter_guest--> guest (h_ring3)
//   - direct switch: guest user --syscall--> switcher --> guest kernel, and
//     back via the sysret hypercall, without ever entering the hypervisor.
//
// Every transition saves/restores the per-CPU switcher state (the software
// VMCS analogue) and clears general-purpose registers on exit to prevent
// speculative leaks between worlds. The switcher region is mapped global so
// its TLB entries survive all flushes.

#ifndef PVM_SRC_CORE_SWITCHER_H_
#define PVM_SRC_CORE_SWITCHER_H_

#include <cstdint>

#include "src/arch/apic.h"
#include "src/arch/cost_model.h"
#include "src/arch/cpu_state.h"
#include "src/metrics/counters.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace pvm {

// What pulled control out of the guest: the code of a switcher-exit flight
// event (flight::switch_reason_label names it).
enum class SwitchReason {
  kSyscall,
  kHypercall,
  kException,
  kInterrupt,
  kPageFault,
  kGptWriteProtect,
};

// The per-CPU switcher state block ("CPU Switcher State" in Fig. 6): the
// saved context of the world not currently running.
struct SwitcherState {
  VcpuState saved_guest;
  VcpuState saved_host;
  bool guest_running = false;
  // The shared 8-byte structure virtualizing RFLAGS.IF (§3.3.3): the guest
  // updates it without exits; the hypervisor reads it before injecting.
  bool guest_virtual_if = true;
  // A virtual interrupt that arrived while guest_virtual_if was clear,
  // waiting for the guest to re-enable interrupts.
  bool pending_interrupt = false;
  // The vCPU's virtual local APIC (the KVM APIC state PVM reuses, §3.3.3).
  VirtualApic apic;
};

class Switcher {
 public:
  Switcher(Simulation& sim, const CostModel& costs, CounterSet& counters)
      : sim_(&sim), costs_(&costs), counters_(&counters) {}

  // World switch: L2 guest (user or kernel) -> L1 hypervisor. One PVM world
  // switch (~0.179 us): ring crossing, guest state save, register clearing,
  // host state restore.
  Task<void> to_hypervisor(SwitcherState& state, VcpuState& vcpu, SwitchReason reason);

  // World switch: L1 hypervisor -> L2 guest, entering the given virtual ring.
  Task<void> enter_guest(SwitcherState& state, VcpuState& vcpu, VirtRing target_ring);

  // Direct switch (Fig. 8): guest user -> guest kernel on syscall. Stays in
  // the switcher: swap hardware CR3 to the kernel shadow table, switch
  // cpl/stack/gs, build the syscall frame. No hypervisor entry.
  Task<void> direct_switch_to_kernel(SwitcherState& state, VcpuState& vcpu);

  // Direct switch back: guest kernel issues the sysret hypercall; the
  // switcher returns straight to guest user.
  Task<void> direct_switch_to_user(SwitcherState& state, VcpuState& vcpu);

 private:
  Simulation* sim_;
  const CostModel* costs_;
  CounterSet* counters_;
};

}  // namespace pvm

#endif  // PVM_SRC_CORE_SWITCHER_H_
