#include "src/core/pvm_hypervisor.h"

#include <stdexcept>

namespace pvm {

bool PvmHypervisor::is_fast_hypercall(PrivOp op) {
  // The paper lists 22 frequently-invoked privileged instructions served by
  // hypercalls (iret, MSR reads/writes, ...); everything else goes through
  // #GP trap-and-emulate.
  switch (op) {
    case PrivOp::kHypercallNop:
    case PrivOp::kIret:
    case PrivOp::kHalt:
    case PrivOp::kWriteCr3:
    case PrivOp::kInvlpg:
    case PrivOp::kCpuid:
    case PrivOp::kIoKick:
      return true;
    case PrivOp::kMsrRead:
    case PrivOp::kMsrWrite:
      // MSR access is in the hypercall table, but the benchmark MSR
      // (MSR_CORE_PERF_GLOBAL_CTRL) is a PMU register PVM routes through the
      // full emulation path; Table 1 reflects that extra cost.
      return false;
    case PrivOp::kException:
    case PrivOp::kPortIo:
      return false;
  }
  return false;
}

std::uint64_t PvmHypervisor::dispatch_cost(PrivOp op) const {
  switch (op) {
    case PrivOp::kHypercallNop:
    case PrivOp::kIret:
    case PrivOp::kWriteCr3:
    case PrivOp::kInvlpg:
    case PrivOp::kCpuid:
      return costs_->pvm_simple_handler;
    case PrivOp::kHalt:
      // Sleep/wakeup handled inside L1: a fraction of the KVM wake path.
      return costs_->pvm_simple_handler + costs_->halt_wakeup / 6;
    case PrivOp::kMsrRead:
    case PrivOp::kMsrWrite:
      // Decode + simulate + the real (slow) PMU register access.
      return costs_->pvm_msr_handler + costs_->pvm_instruction_emulate +
             costs_->msr_hardware_access;
    case PrivOp::kPortIo:
      return costs_->pvm_pio_handler + costs_->pvm_instruction_emulate;
    case PrivOp::kException:
      return costs_->pvm_exception_inject;
    case PrivOp::kIoKick:
      return costs_->io_kick_handler;
  }
  return costs_->pvm_simple_handler;
}

Task<void> PvmHypervisor::handle_privileged_op(SwitcherState& state, VcpuState& vcpu,
                                               PrivOp op) {
  const VirtRing resume_ring = vcpu.virt_ring;
  counters_->add(Counter::kPrivilegedInstructionTrap);
  if (op == PrivOp::kHypercallNop || is_fast_hypercall(op)) {
    counters_->add(Counter::kHypercall);
  }

  co_await switcher_.to_hypervisor(
      state, vcpu, is_fast_hypercall(op) ? SwitchReason::kHypercall : SwitchReason::kException);

  co_await sim_->delay(costs_->pvm_exit_dispatch);
  if (!is_fast_hypercall(op)) {
    counters_->add(Counter::kInstructionEmulated);
  }
  switch (op) {
    case PrivOp::kMsrRead:
    case PrivOp::kMsrWrite:
      counters_->add(Counter::kMsrAccess);
      break;
    case PrivOp::kCpuid:
      counters_->add(Counter::kCpuid);
      break;
    case PrivOp::kPortIo:
      counters_->add(Counter::kPortIo);
      break;
    case PrivOp::kHalt:
      counters_->add(Counter::kHalt);
      break;
    default:
      break;
  }
  co_await sim_->delay(dispatch_cost(op));

  co_await switcher_.enter_guest(state, vcpu, resume_ring);
}

Task<void> PvmHypervisor::handle_gp_instruction(SwitcherState& state, VcpuState& vcpu,
                                                GuestInstruction instruction,
                                                std::uint64_t operand) {
  const DecodedInstruction decoded = emulator_.decode(instruction);
  if (decoded.route == EmulationRoute::kParavirtualized) {
    // These execute silently at CPL 3; if one "trapped" the guest kernel was
    // not properly paravirtualized — a correctness bug, not a slow path.
    throw std::logic_error(std::string("unparavirtualized sensitive instruction: ") +
                           std::string(InstructionEmulator::name(instruction)));
  }
  const VirtRing resume_ring = vcpu.virt_ring;
  counters_->add(Counter::kPrivilegedInstructionTrap);
  if (decoded.route == EmulationRoute::kFastHypercall) {
    counters_->add(Counter::kHypercall);
    co_await switcher_.to_hypervisor(state, vcpu, SwitchReason::kHypercall);
  } else {
    counters_->add(Counter::kInstructionEmulated);
    co_await switcher_.to_hypervisor(state, vcpu, SwitchReason::kException);
  }
  co_await sim_->delay(costs_->pvm_exit_dispatch);
  // The emulation mutates the *saved guest context* (the switcher swapped
  // the live vCPU to the host's); enter_guest restores it with the effect
  // applied. cli/sti land in the shared virtual-IF word.
  co_await sim_->delay(emulator_.emulate(decoded, state.saved_guest, operand));
  if (instruction == GuestInstruction::kCli || instruction == GuestInstruction::kSti ||
      instruction == GuestInstruction::kPopf) {
    state.guest_virtual_if = state.saved_guest.rflags_if;
  }
  co_await switcher_.enter_guest(state, vcpu, resume_ring);
}

Task<void> PvmHypervisor::handle_exception_roundtrip(SwitcherState& state, VcpuState& vcpu) {
  // Guest (user) triggers an exception; the customized IDT routes it to PVM.
  co_await switcher_.to_hypervisor(state, vcpu, SwitchReason::kException);
  co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_exception_inject);

  // PVM injects the exception into the guest kernel.
  co_await switcher_.enter_guest(state, vcpu, VirtRing::kVRing0);
  // Guest kernel exception handler body.
  co_await sim_->delay(costs_->guest_syscall_body_getpid);

  // Guest kernel returns via the iret hypercall.
  counters_->add(Counter::kHypercall);
  co_await switcher_.to_hypervisor(state, vcpu, SwitchReason::kHypercall);
  co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_simple_handler);
  co_await switcher_.enter_guest(state, vcpu, VirtRing::kVRing3);
}

Task<void> PvmHypervisor::deliver_interrupt_to_guest(SwitcherState& state, VcpuState& vcpu,
                                                     std::uint8_t vector) {
  // The hardware interrupt arrived while the guest ran at h_ring3 with
  // RFLAGS.IF set; the customized IDT in the guest address space transfers
  // to PVM (equivalent to a VM exit).
  counters_->add(Counter::kInterruptWhileGuestRunning);
  co_await switcher_.to_hypervisor(state, vcpu, SwitchReason::kInterrupt);

  // Convert to a virtual interrupt via the reused KVM APIC virtualization.
  state.apic.raise(vector);
  co_await sim_->delay(costs_->apic_virtualization);

  // The shared 8-byte RFLAGS.IF word tells PVM whether the guest can take
  // the interrupt now; while masked it stays pending in the APIC's IRR
  // until the guest re-enables interrupts (guest_set_interrupt_flag).
  if (state.guest_virtual_if) {
    const auto accepted = state.apic.accept();
    if (accepted) {
      counters_->add(Counter::kVirtualInterruptDelivered);
      co_await switcher_.enter_guest(state, vcpu, VirtRing::kVRing0);
      co_await sim_->delay(costs_->guest_syscall_body_getpid);  // guest IRQ handler body
      state.apic.eoi();
      counters_->add(Counter::kHypercall);
      co_await switcher_.to_hypervisor(state, vcpu, SwitchReason::kHypercall);  // iret
      co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_simple_handler);
    }
  } else {
    counters_->add(Counter::kInterruptPended);
    state.pending_interrupt = true;
  }
  co_await switcher_.enter_guest(state, vcpu, VirtRing::kVRing3);
}

Task<void> PvmHypervisor::guest_set_interrupt_flag(SwitcherState& state, VcpuState& vcpu,
                                                   bool enabled) {
  // Just a store to the shared word: no trap, no world switch (§3.3.3).
  state.guest_virtual_if = enabled;
  vcpu.rflags_if = enabled;
  co_await sim_->delay(2);
  if (enabled && state.pending_interrupt) {
    state.pending_interrupt = false;
    // Drain every pended virtual interrupt in APIC priority order: the
    // remaining delivery is the in-L1 half of deliver_interrupt_to_guest
    // (no new L0 injection).
    while (true) {
      const auto vector = state.apic.accept();
      if (!vector) {
        break;
      }
      counters_->add(Counter::kVirtualInterruptDelivered);
      co_await switcher_.to_hypervisor(state, vcpu, SwitchReason::kInterrupt);
      co_await sim_->delay(costs_->apic_virtualization);
      co_await switcher_.enter_guest(state, vcpu, VirtRing::kVRing0);
      co_await sim_->delay(costs_->guest_syscall_body_getpid);
      state.apic.eoi();
      counters_->add(Counter::kHypercall);
      co_await switcher_.to_hypervisor(state, vcpu, SwitchReason::kHypercall);
      co_await sim_->delay(costs_->pvm_exit_dispatch + costs_->pvm_simple_handler);
      co_await switcher_.enter_guest(state, vcpu, VirtRing::kVRing3);
    }
  }
}

std::unique_ptr<PvmMemoryEngine> PvmHypervisor::create_memory_engine(
    FrameAllocator& l1_frames, const std::string& name) const {
  PvmMemoryEngine::Options options;
  options.prefault = options_.prefault;
  options.pcid_mapping = options_.pcid_mapping;
  options.fine_grained_locks = options_.fine_grained_locks;
  options.dual_spt = options_.dual_spt;
  return std::make_unique<PvmMemoryEngine>(*sim_, *costs_, *counters_, l1_frames, name,
                                           options);
}

}  // namespace pvm
