// The PVM guest hypervisor (paper §3.3).
//
// CPU virtualization is pure software: the de-privileged L2 guest traps into
// PVM through the switcher, either via one of the 22 fast hypercalls or via a
// #GP-and-emulate path for unparavirtualized privileged instructions.
// Interrupt virtualization needs L0 exactly once per interrupt (the hardware
// exit); delivery into L2 then happens through PVM's customized IDT and the
// shared virtual RFLAGS.IF word, with no further L0 involvement.

#ifndef PVM_SRC_CORE_PVM_HYPERVISOR_H_
#define PVM_SRC_CORE_PVM_HYPERVISOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/arch/cost_model.h"
#include "src/arch/cpu_state.h"
#include "src/arch/physical_memory.h"
#include "src/arch/priv_op.h"
#include "src/core/instruction_emulator.h"
#include "src/core/memory_engine.h"
#include "src/core/switcher.h"
#include "src/metrics/counters.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace pvm {

class PvmHypervisor {
 public:
  struct Options {
    bool direct_switch = true;
    bool prefault = true;
    bool pcid_mapping = true;
    bool fine_grained_locks = true;
    bool dual_spt = true;
    // §5 future work, implemented as an extension: the switcher classifies
    // page faults and injects guest-table faults straight into the L2
    // kernel, saving the exit into the PVM hypervisor.
    bool switcher_pf_classify = false;
    // §5 future work, implemented as an extension: remove write protection
    // and let guest + hypervisor construct the page tables collaboratively —
    // GPT stores are queued in a shared ring and synchronized in batches at
    // the next natural world switch instead of trapping one by one.
    bool collaborative_pt = false;
  };

  PvmHypervisor(Simulation& sim, const CostModel& costs, CounterSet& counters,
                const Options& options)
      : sim_(&sim),
        costs_(&costs),
        counters_(&counters),
        options_(options),
        switcher_(sim, costs, counters),
        emulator_(costs) {}

  const Options& options() const { return options_; }
  Switcher& switcher() { return switcher_; }
  Simulation& sim() { return *sim_; }
  const CostModel& costs() const { return *costs_; }
  CounterSet& counters() { return *counters_; }

  // True if `op` is served by a fast hypercall (the paravirtualized path);
  // false means trap-and-emulate through the instruction simulator.
  static bool is_fast_hypercall(PrivOp op);

  // Full round trip for a privileged operation issued by the L2 guest
  // kernel: switcher exit -> dispatch/emulate -> switcher entry. This is the
  // pvm row of Table 1. The guest's virtual ring is restored on return.
  Task<void> handle_privileged_op(SwitcherState& state, VcpuState& vcpu, PrivOp op);

  // A #GP taken by the de-privileged guest kernel on `instruction`: the
  // switcher routes it to PVM, which decodes, emulates the architectural
  // effect on the vCPU state, and resumes the guest. Fast-hypercall
  // instructions pay the cheap path; paravirtualized-only instructions
  // (SGDT & friends) never fault and are rejected as a guest-kernel bug.
  Task<void> handle_gp_instruction(SwitcherState& state, VcpuState& vcpu,
                                   GuestInstruction instruction, std::uint64_t operand);

  const InstructionEmulator& instruction_emulator() const { return emulator_; }

  // Exception round trip (Table 1 "Exception"): the faulting guest traps to
  // PVM, which injects the exception back into the guest kernel; the guest
  // handler runs and returns via the iret hypercall.
  Task<void> handle_exception_roundtrip(SwitcherState& state, VcpuState& vcpu);

  // The guest writes the shared RFLAGS.IF word. Free of world switches —
  // that is the whole point of the shared structure (§3.3.3). Re-enabling
  // with an interrupt pending delivers it immediately.
  Task<void> guest_set_interrupt_flag(SwitcherState& state, VcpuState& vcpu, bool enabled);

  // Interrupt delivery inside L1 (after L0 injected it into the L1 VM):
  // the customized IDT pulls execution into PVM, which converts the
  // interrupt into a virtual one and delivers it to the guest kernel if the
  // shared RFLAGS.IF word allows; the guest acks and irets.
  Task<void> deliver_interrupt_to_guest(SwitcherState& state, VcpuState& vcpu,
                                        std::uint8_t vector = kTimerVector);

  static constexpr std::uint8_t kTimerVector = 0xEC;  // Linux LOCAL_TIMER_VECTOR

  // Builds a memory engine for one L2 VM, backed by `l1_frames`.
  std::unique_ptr<PvmMemoryEngine> create_memory_engine(FrameAllocator& l1_frames,
                                                        const std::string& name) const;

 private:
  std::uint64_t dispatch_cost(PrivOp op) const;

  Simulation* sim_;
  const CostModel* costs_;
  CounterSet* counters_;
  Options options_;
  Switcher switcher_;
  InstructionEmulator emulator_;
};

}  // namespace pvm

#endif  // PVM_SRC_CORE_PVM_HYPERVISOR_H_
