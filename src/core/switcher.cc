#include "src/core/switcher.h"

#include "src/obs/step.h"

namespace pvm {

Task<void> Switcher::to_hypervisor(SwitcherState& state, VcpuState& vcpu, SwitchReason reason) {
  obs::SpanScope span = obs::step(*sim_, *counters_, flight::EventKind::kSwitcherExit,
                                  static_cast<std::uint8_t>(reason));

  // The CPU enters h_ring0 through MSR_LSTAR / the customized IDT; the
  // to_hypervisor path saves guest state into the per-CPU switcher state,
  // clears general-purpose registers (except RSP/RAX), and restores the L1
  // host context.
  state.saved_guest = vcpu;
  vcpu = state.saved_host;
  vcpu.hw_ring = HwRing::kRing0;
  state.guest_running = false;

  co_await sim_->delay(costs_->ring_crossing + costs_->switcher_save_restore);
}

Task<void> Switcher::enter_guest(SwitcherState& state, VcpuState& vcpu, VirtRing target_ring) {
  obs::SpanScope span = obs::step(*sim_, *counters_, flight::EventKind::kSwitcherEntry,
                                  target_ring == VirtRing::kVRing0 ? 0 : 3);

  // enter_guest saves the host context and restores the guest's, arming
  // RFLAGS.IF in the iret frame so external interrupts stay deliverable
  // while the de-privileged guest runs at h_ring3 (§3.3.3).
  state.saved_host = vcpu;
  vcpu = state.saved_guest;
  vcpu.hw_ring = HwRing::kRing3;
  vcpu.virt_ring = target_ring;
  vcpu.rflags_if = true;
  state.guest_running = true;

  co_await sim_->delay(costs_->ring_crossing + costs_->switcher_save_restore);
}

Task<void> Switcher::direct_switch_to_kernel(SwitcherState& state, VcpuState& vcpu) {
  obs::SpanScope span = obs::step(*sim_, *counters_, flight::EventKind::kDirectSwitch, 0, 0,
                                  costs_->ring_crossing + costs_->direct_switch_work);

  // Emulate the syscall instruction: swap hardware CR3 to the kernel shadow
  // table, flip cpl/stack/gs, construct the syscall frame — all without
  // entering the hypervisor.
  vcpu.virt_ring = VirtRing::kVRing0;
  co_await sim_->delay(costs_->ring_crossing + costs_->direct_switch_work);
  (void)state;
}

Task<void> Switcher::direct_switch_to_user(SwitcherState& state, VcpuState& vcpu) {
  obs::SpanScope span = obs::step(*sim_, *counters_, flight::EventKind::kDirectSwitch, 1, 0,
                                  costs_->ring_crossing + costs_->direct_switch_work);

  vcpu.virt_ring = VirtRing::kVRing3;
  co_await sim_->delay(costs_->ring_crossing + costs_->direct_switch_work);
  (void)state;
}

}  // namespace pvm
