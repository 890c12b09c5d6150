// Unit tests for the L0 host hypervisor: VMCS merge semantics, exit/entry
// accounting, EPT management (cold vs warm), and the nested-VMX protocol
// pieces (forward, emulated resume, VMCS shadowing, protected-store
// emulation).

#include <gtest/gtest.h>

#include "src/hv/host_hypervisor.h"

namespace pvm {
namespace {

struct HvHarness {
  Simulation sim;
  CostModel costs;
  CounterSet counters;
  HostHypervisor l0{sim, costs, counters, 1u << 20};

  void run(Task<void> task) {
    sim.spawn(std::move(task));
    sim.run();
    ASSERT_TRUE(sim.all_tasks_done());
  }
};

TEST(VmcsTest, ReadWriteAndAccounting) {
  Vmcs vmcs;
  vmcs.write(VmcsField::kGuestRip, 0xdead);
  EXPECT_EQ(vmcs.read(VmcsField::kGuestRip), 0xdeadu);
  EXPECT_EQ(vmcs.writes(), 1u);
  EXPECT_EQ(vmcs.reads(), 1u);
  EXPECT_EQ(vmcs.peek(VmcsField::kGuestRip), 0xdeadu);
  EXPECT_EQ(vmcs.reads(), 1u);  // peek is not counted
}

TEST(VmcsTest, MergeTakesGuestStateFrom12AndHostStateFrom01) {
  Vmcs vmcs12;
  Vmcs vmcs01;
  Vmcs vmcs02;
  vmcs12.write(VmcsField::kGuestRip, 0x1111);
  vmcs12.write(VmcsField::kGuestCr3, 0x2222);
  vmcs12.write(VmcsField::kEntryIntrInfo, 0x80000e00);  // injected #PF
  vmcs01.write(VmcsField::kHostRip, 0x3333);
  vmcs01.write(VmcsField::kHostCr3, 0x4444);
  // Host fields of VMCS12 must NOT leak into VMCS02.
  vmcs12.write(VmcsField::kHostRip, 0x6666);

  const std::uint32_t copies = merge_vmcs02(vmcs12, vmcs01, vmcs02);
  EXPECT_EQ(copies, kVmcs12MergedFields.size() + kVmcs01HostFields.size());
  EXPECT_EQ(vmcs02.peek(VmcsField::kGuestRip), 0x1111u);
  EXPECT_EQ(vmcs02.peek(VmcsField::kGuestCr3), 0x2222u);
  EXPECT_EQ(vmcs02.peek(VmcsField::kEntryIntrInfo), 0x80000e00u);
  EXPECT_EQ(vmcs02.peek(VmcsField::kHostRip), 0x3333u);
  EXPECT_EQ(vmcs02.peek(VmcsField::kHostCr3), 0x4444u);
}

TEST(HostHypervisorTest, CreateVmAssignsDistinctVpids) {
  HvHarness h;
  auto& a = h.l0.create_vm("a", 1024, false);
  auto& b = h.l0.create_vm("b", 1024, false);
  EXPECT_NE(a.vpid(), b.vpid());
  EXPECT_EQ(h.l0.vm_count(), 2u);
}

TEST(HostHypervisorTest, ExitRoundtripCountsAndCharges) {
  HvHarness h;
  auto& vm = h.l0.create_vm("vm", 1024, false);
  h.run([](HvHarness& hh, HostHypervisor::Vm& v) -> Task<void> {
    co_await hh.l0.exit_roundtrip(v, ExitKind::kHypercall);
  }(h, vm));
  EXPECT_EQ(h.counters.get(Counter::kL0Exit), 1u);
  EXPECT_EQ(h.counters.get(Counter::kWorldSwitch), 2u);
  EXPECT_EQ(h.sim.now(), h.costs.vmx_exit + h.costs.l0_exit_dispatch +
                             h.costs.l0_simple_handler + h.costs.vmx_entry);
}

TEST(HostHypervisorTest, HandlerCostsOrdering) {
  // PIO must be the most expensive CPU-op handler, as in Table 1.
  HvHarness h;
  auto& vm = h.l0.create_vm("vm", 1024, false);
  auto measure = [&](ExitKind kind) {
    const SimTime start = h.sim.now();
    h.run([](HvHarness& hh, HostHypervisor::Vm& v, ExitKind k) -> Task<void> {
      co_await hh.l0.exit_roundtrip(v, k);
    }(h, vm, kind));
    return h.sim.now() - start;
  };
  const SimTime hypercall = measure(ExitKind::kHypercall);
  const SimTime exception = measure(ExitKind::kException);
  const SimTime pio = measure(ExitKind::kPortIo);
  EXPECT_LT(hypercall, exception);
  EXPECT_LT(exception, pio);
}

TEST(HostHypervisorTest, ColdEptViolationAllocatesAndCharges) {
  HvHarness h;
  auto& vm = h.l0.create_vm("vm", 1024, false);
  h.run([](HvHarness& hh, HostHypervisor::Vm& v) -> Task<void> {
    co_await hh.l0.ensure_backed(v, 0x5000);
  }(h, vm));
  EXPECT_EQ(h.counters.get(Counter::kEptViolation), 1u);
  EXPECT_EQ(h.counters.get(Counter::kL0Exit), 1u);
  const Pte* pte = vm.ept().find_pte(0x5000);
  ASSERT_NE(pte, nullptr);
  EXPECT_TRUE(pte->present());
  EXPECT_GT(h.sim.now(), 0u);
}

TEST(HostHypervisorTest, WarmEptFillIsSilentAndFree) {
  HvHarness h;
  auto& vm = h.l0.create_vm("vm", 1024, /*prewarm_ept=*/true);
  EXPECT_TRUE(vm.warm());
  h.run([](HvHarness& hh, HostHypervisor::Vm& v) -> Task<void> {
    co_await hh.l0.ensure_backed(v, 0x5000);
  }(h, vm));
  EXPECT_EQ(h.counters.get(Counter::kEptViolation), 0u);
  EXPECT_EQ(h.counters.get(Counter::kL0Exit), 0u);
  EXPECT_EQ(h.sim.now(), 0u);  // zero virtual time
  EXPECT_TRUE(vm.ept().find_pte(0x5000)->present());
}

TEST(HostHypervisorTest, EnsureBackedIsIdempotent) {
  HvHarness h;
  auto& vm = h.l0.create_vm("vm", 1024, false);
  h.run([](HvHarness& hh, HostHypervisor::Vm& v) -> Task<void> {
    co_await hh.l0.ensure_backed(v, 0x5000);
    co_await hh.l0.ensure_backed(v, 0x5000);
  }(h, vm));
  EXPECT_EQ(h.counters.get(Counter::kEptViolation), 1u);  // only the first
}

TEST(HostHypervisorTest, ConcurrentViolationsOnSameGpaFillOnce) {
  HvHarness h;
  auto& vm = h.l0.create_vm("vm", 1024, false);
  const std::uint64_t frames_before = h.l0.host_frames().allocated();
  for (int i = 0; i < 4; ++i) {
    h.sim.spawn([](HvHarness& hh, HostHypervisor::Vm& v) -> Task<void> {
      co_await hh.l0.handle_ept_violation(v, 0x9000);
    }(h, vm));
  }
  h.sim.run();
  // The double-check under mmu_lock prevents duplicate backing frames.
  EXPECT_EQ(h.l0.host_frames().allocated() - frames_before, 1u);
}

TEST(HostHypervisorTest, NestedForwardAndResumeCountTwoL0Exits) {
  HvHarness h;
  auto& l1 = h.l0.create_vm("l1", 1024, true);
  HostHypervisor::NestedVcpu vcpu;
  vcpu.vmcs02.write(VmcsField::kExitReason, 48);  // EPT violation
  vcpu.vmcs02.write(VmcsField::kGuestPhysicalAddress, 0xabc000);

  h.run([](HvHarness& hh, HostHypervisor::Vm& v, HostHypervisor::NestedVcpu& n) -> Task<void> {
    co_await hh.l0.nested_forward_exit_to_l1(v, n, ExitKind::kEptViolation);
    co_await hh.l0.nested_resume_l2(v, n);
  }(h, l1, vcpu));

  EXPECT_EQ(h.counters.get(Counter::kL0Exit), 2u);
  EXPECT_EQ(h.counters.get(Counter::kWorldSwitch), 4u);
  EXPECT_EQ(h.counters.get(Counter::kVmcsSync), 1u);
  // The forward reflected the exit info into VMCS12 for L1's handler.
  EXPECT_EQ(vcpu.vmcs12.peek(VmcsField::kExitReason), 48u);
  EXPECT_EQ(vcpu.vmcs12.peek(VmcsField::kGuestPhysicalAddress), 0xabc000u);
}

TEST(HostHypervisorTest, VmcsShadowingEliminatesAccessExits) {
  HvHarness h;
  auto& l1 = h.l0.create_vm("l1", 1024, true);
  HostHypervisor::NestedVcpu shadowed;
  shadowed.vmcs_shadowing = true;
  HostHypervisor::NestedVcpu unshadowed;
  unshadowed.vmcs_shadowing = false;

  h.run([](HvHarness& hh, HostHypervisor::Vm& v, HostHypervisor::NestedVcpu& n) -> Task<void> {
    co_await hh.l0.l1_vmcs12_access(v, n, 40);
  }(h, l1, shadowed));
  EXPECT_EQ(h.counters.get(Counter::kL0Exit), 0u);

  h.run([](HvHarness& hh, HostHypervisor::Vm& v, HostHypervisor::NestedVcpu& n) -> Task<void> {
    co_await hh.l0.l1_vmcs12_access(v, n, 40);
  }(h, l1, unshadowed));
  // Without shadowing, the "40-50 exits per switch" problem appears (§2.1).
  EXPECT_EQ(h.counters.get(Counter::kL0Exit), 40u);
}

TEST(HostHypervisorTest, ProtectedStoreEmulationSerializesOnL1Lock) {
  HvHarness h;
  auto& l1 = h.l0.create_vm("l1", 1024, true);
  for (int i = 0; i < 4; ++i) {
    h.sim.spawn([](HvHarness& hh, HostHypervisor::Vm& v) -> Task<void> {
      co_await hh.l0.emulate_protected_store(v);
    }(h, l1));
  }
  h.sim.run();
  EXPECT_EQ(l1.mmu_lock().lock_class().acquisitions(), 4u);
  EXPECT_GT(l1.mmu_lock().lock_class().total_wait_ns(), 0u);  // they overlapped and queued
  EXPECT_EQ(h.counters.get(Counter::kL0Exit), 4u);
}

TEST(HostHypervisorTest, InterruptInjectionIsOneExit) {
  HvHarness h;
  auto& vm = h.l0.create_vm("vm", 1024, false);
  h.run([](HvHarness& hh, HostHypervisor::Vm& v) -> Task<void> {
    co_await hh.l0.inject_interrupt(v);
  }(h, vm));
  EXPECT_EQ(h.counters.get(Counter::kInterruptInjected), 1u);
  EXPECT_EQ(h.counters.get(Counter::kL0Exit), 1u);
}

}  // namespace
}  // namespace pvm
