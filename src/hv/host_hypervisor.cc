#include "src/hv/host_hypervisor.h"

#include <stdexcept>

#include "src/fault/fault.h"
#include "src/obs/flight.h"
#include "src/obs/span.h"
#include "src/obs/step.h"

namespace pvm {

HostHypervisor::HostHypervisor(Simulation& sim, const CostModel& costs, CounterSet& counters,
                               std::uint64_t host_frame_count)
    : sim_(&sim),
      costs_(&costs),
      counters_(&counters),
      host_frames_("host.hpa", host_frame_count) {}

HostHypervisor::Vm& HostHypervisor::create_vm(const std::string& name,
                                              std::uint64_t gpa_frame_count, bool prewarm_ept) {
  vms_.push_back(std::make_unique<Vm>(*sim_, name, next_vpid_++, gpa_frame_count));
  Vm& vm = *vms_.back();
  // "Warm" models a long-running L1 instance whose EPT01 is established
  // (§4: "we assume that the L1 VM has been sufficiently warmed up and there
  // are very few EPT violations"). Leaves materialize lazily and free of
  // charge via ensure_backed() rather than being eagerly allocated.
  vm.set_warm(prewarm_ept);
  return vm;
}

std::uint64_t HostHypervisor::handler_cost(ExitKind kind) const {
  switch (kind) {
    case ExitKind::kHypercall:
    case ExitKind::kCpuid:
      return costs_->l0_simple_handler;
    case ExitKind::kHalt:
      return costs_->l0_simple_handler + costs_->halt_wakeup;
    case ExitKind::kException:
      return costs_->l0_exception_inject;
    case ExitKind::kMsrAccess:
      return costs_->l0_msr_handler;
    case ExitKind::kPortIo:
      return costs_->l0_pio_handler;
    case ExitKind::kIoKick:
      return costs_->io_kick_handler;
    case ExitKind::kInterrupt:
      return costs_->apic_virtualization;
    case ExitKind::kCr3Write:
      return costs_->l0_simple_handler;
    case ExitKind::kEptViolation:
      return costs_->l0_ept_fill;
  }
  return costs_->l0_simple_handler;
}

std::uint64_t HostHypervisor::injected_exit_spike(const Vm& vm) {
  fault::FaultInjector* faults = sim_->faults();
  if (faults == nullptr) {
    return 0;
  }
  const std::uint64_t spike = faults->exit_latency_spike(vm.name());
  if (spike > 0) {
    obs::fault_injected(*sim_, *counters_, fault::FaultKind::kExitLatencySpike, spike);
  }
  return spike;
}

Task<void> HostHypervisor::exit_roundtrip(Vm& vm, ExitKind kind) {
  co_await begin_exit(vm, static_cast<std::uint8_t>(kind));
  {
    obs::SpanScope span(sim_->spans(), obs::Phase::kL0Handler);
    co_await sim_->delay(handler_cost(kind));
  }
  co_await finish_entry();
}

HostHypervisor::TransitionHalf HostHypervisor::begin_exit(Vm& vm, std::uint8_t code,
                                                          std::uint64_t detail) {
  obs::SpanScope span = obs::step(*sim_, *counters_, flight::EventKind::kVmxExit, code, detail);
  return {std::move(span),
          sim_->delay(costs_->vmx_exit + costs_->l0_exit_dispatch + injected_exit_spike(vm))};
}

HostHypervisor::TransitionHalf HostHypervisor::finish_entry() {
  return {obs::step(*sim_, *counters_, flight::EventKind::kVmxEntry),
          sim_->delay(costs_->vmx_entry)};
}

Task<void> HostHypervisor::handle_ept_violation(Vm& vm, std::uint64_t gpa) {
  counters_->add(Counter::kEptViolation);
  co_await begin_exit(vm, static_cast<std::uint8_t>(ExitKind::kEptViolation), gpa);
  co_await fill_ept(vm, gpa);
  co_await finish_entry();
}

Task<void> HostHypervisor::fill_ept(Vm& vm, std::uint64_t gpa) {
  obs::SpanScope span(sim_->spans(), obs::Phase::kEptFill, gpa);
  ScopedResource lock = co_await vm.mmu_lock().scoped();
  // Re-check under the lock: another vCPU may have filled the leaf already.
  if (const Pte* existing = vm.ept().find_pte(gpa); existing != nullptr && existing->present()) {
    co_await sim_->delay(costs_->walk_load);
    co_return;
  }
  const std::uint64_t hpa = host_frames_.allocate_or_throw();
  vm.ept().map(page_base(gpa), hpa, PteFlags::rw_kernel());
  co_await sim_->delay(costs_->l0_ept_fill);
}

Task<void> HostHypervisor::ensure_backed(Vm& vm, std::uint64_t gpa) {
  if (const Pte* pte = vm.ept().find_pte(gpa); pte != nullptr && pte->present()) {
    co_return;
  }
  if (vm.warm()) {
    // The warm-L1 fiction: the mapping "already existed"; materialize it in
    // the sparse table without charging time or protocol.
    const std::uint64_t hpa = host_frames_.allocate_or_throw();
    vm.ept().map(page_base(gpa), hpa, PteFlags::rw_kernel());
    co_return;
  }
  co_await handle_ept_violation(vm, gpa);
}

Task<void> HostHypervisor::inject_interrupt(Vm& vm) {
  counters_->add(Counter::kInterruptInjected);
  co_await exit_roundtrip(vm, ExitKind::kInterrupt);
}

Task<void> HostHypervisor::nested_forward_exit_to_l1(Vm& l1_vm, NestedVcpu& vcpu,
                                                     ExitKind kind) {
  // Hardware exits from L2 land in L0 (the only root-mode software).
  co_await begin_exit(l1_vm, static_cast<std::uint8_t>(kind));

  // Reflect the exit: copy exit information from VMCS02 into VMCS12 so L1's
  // handler sees it, then restore L1's own context from VMCS01.
  {
    obs::SpanScope span(sim_->spans(), obs::Phase::kL0Handler);
    vcpu.vmcs12.write(VmcsField::kExitReason, vcpu.vmcs02.read(VmcsField::kExitReason));
    vcpu.vmcs12.write(VmcsField::kExitQualification,
                      vcpu.vmcs02.read(VmcsField::kExitQualification));
    vcpu.vmcs12.write(VmcsField::kGuestPhysicalAddress,
                      vcpu.vmcs02.read(VmcsField::kGuestPhysicalAddress));
    co_await sim_->delay(costs_->nested_forward_work + 6 * costs_->vmcs_field_access);
  }
  co_await finish_entry();
}

Task<void> HostHypervisor::nested_resume_l2(Vm& l1_vm, NestedVcpu& vcpu) {
  // L1's VMRESUME is privileged: it traps to L0.
  co_await begin_exit(l1_vm, flight::kExitCodeVmresumeTrap);

  // Merge VMCS01 + VMCS12 -> VMCS02 ("update & reload VMCS02") plus the
  // VMRESUME consistency checks and MSR-switch emulation.
  {
    obs::SpanScope span(sim_->spans(), obs::Phase::kVmcsSync);
    const std::uint32_t copies = merge_vmcs02(vcpu.vmcs12, vcpu.vmcs01, vcpu.vmcs02);
    counters_->add(Counter::kVmcsSync);
    co_await sim_->delay(costs_->vmcs_sync() + costs_->nested_resume_work +
                         static_cast<std::uint64_t>(copies) * costs_->vmcs_field_access);
  }

  // Transient VMRESUME failures (injected): the launch rolls back to root
  // mode and L0 re-runs the consistency checks before retrying. The injector
  // bounds each burst (fail_count), the loop cap is a hard backstop.
  if (fault::FaultInjector* faults = sim_->faults(); faults != nullptr) {
    for (int attempt = 0; attempt < 8 && faults->vmresume_fails(l1_vm.name(), attempt);
         ++attempt) {
      counters_->add(Counter::kVmresumeRetry);
      obs::fault_injected(*sim_, *counters_, fault::FaultKind::kVmresumeFail,
                          static_cast<std::uint64_t>(attempt));
      obs::SpanScope span(sim_->spans(), obs::Phase::kVmcsSync);
      co_await sim_->delay(costs_->vmx_entry + costs_->nested_resume_work);
    }
  }
  co_await finish_entry();
}

Task<void> HostHypervisor::l1_vmcs12_access(Vm& l1_vm, NestedVcpu& vcpu, int count) {
  if (vcpu.vmcs_shadowing) {
    // Shadow VMCS hardware satisfies the accesses without exits.
    co_await sim_->delay(static_cast<std::uint64_t>(count) * costs_->vmcs_field_access);
    co_return;
  }
  for (int i = 0; i < count; ++i) {
    vcpu.vmcs12.write(VmcsField::kGuestRip, vcpu.vmcs12.read(VmcsField::kGuestRip));
    co_await exit_roundtrip(l1_vm, ExitKind::kHypercall);
  }
}

Task<void> HostHypervisor::emulate_protected_store(Vm& l1_vm) {
  co_await begin_exit(l1_vm, flight::kExitCodeEpt12Store);
  {
    // kvm_mmu_pte_write runs under the L1 VM's L0 mmu_lock — shared by every
    // nested guest on the instance. This is a major serialization point.
    obs::SpanScope span(sim_->spans(), obs::Phase::kGptEmulate);
    ScopedResource lock = co_await l1_vm.mmu_lock().scoped();
    co_await sim_->delay(costs_->l0_ept_emulate_write);
  }
  co_await finish_entry();
}

}  // namespace pvm
