// Tests for the instruction decoder/emulator: routing (hypercall vs emulate
// vs paravirtualized), the Popek-Goldberg sensitive set, and register
// effects.

#include <gtest/gtest.h>

#include <set>

#include "src/core/instruction_emulator.h"
#include "src/core/pvm_hypervisor.h"

namespace pvm {
namespace {

class EmulatorHarness : public ::testing::Test {
 protected:
  CostModel costs;
  InstructionEmulator emulator{costs};
  VcpuState vcpu;
};

TEST_F(EmulatorHarness, HotInstructionsRouteToFastHypercalls) {
  for (GuestInstruction instruction :
       {GuestInstruction::kIret, GuestInstruction::kSysret, GuestInstruction::kHlt,
        GuestInstruction::kMovToCr3, GuestInstruction::kInvlpg, GuestInstruction::kWrmsr}) {
    SCOPED_TRACE(InstructionEmulator::name(instruction));
    const DecodedInstruction decoded = emulator.decode(instruction);
    EXPECT_EQ(decoded.route, EmulationRoute::kFastHypercall);
    EXPECT_TRUE(decoded.privileged);
    EXPECT_LE(decoded.emulate_ns, costs.pvm_simple_handler);
  }
}

TEST_F(EmulatorHarness, RarePrivilegedInstructionsTrapAndEmulate) {
  for (GuestInstruction instruction :
       {GuestInstruction::kLgdt, GuestInstruction::kLidt, GuestInstruction::kMovToCr0,
        GuestInstruction::kWbinvd, GuestInstruction::kOut}) {
    SCOPED_TRACE(InstructionEmulator::name(instruction));
    const DecodedInstruction decoded = emulator.decode(instruction);
    EXPECT_EQ(decoded.route, EmulationRoute::kTrapAndEmulate);
    EXPECT_TRUE(decoded.privileged);
    EXPECT_EQ(decoded.emulate_ns, costs.pvm_instruction_emulate);
  }
}

TEST_F(EmulatorHarness, SensitiveUnprivilegedSetIsParavirtualized) {
  // The x86 virtualization hole (§3.3.1 / Popek-Goldberg): these execute
  // silently at CPL 3, so they must never reach the hypervisor — the PV
  // kernel replaces them.
  for (GuestInstruction instruction :
       {GuestInstruction::kSgdt, GuestInstruction::kSidt, GuestInstruction::kSmsw,
        GuestInstruction::kStr, GuestInstruction::kPushf, GuestInstruction::kPopf}) {
    SCOPED_TRACE(InstructionEmulator::name(instruction));
    const DecodedInstruction decoded = emulator.decode(instruction);
    EXPECT_EQ(decoded.route, EmulationRoute::kParavirtualized);
    EXPECT_FALSE(decoded.privileged);
    EXPECT_LT(decoded.emulate_ns, 50u);  // a shared-memory access, not a trap
  }
}

TEST_F(EmulatorHarness, CliStiToggleVirtualIf) {
  vcpu.rflags_if = true;
  emulator.emulate(emulator.decode(GuestInstruction::kCli), vcpu, 0);
  EXPECT_FALSE(vcpu.rflags_if);
  emulator.emulate(emulator.decode(GuestInstruction::kSti), vcpu, 0);
  EXPECT_TRUE(vcpu.rflags_if);
}

TEST_F(EmulatorHarness, MovToCr3SplitsPcid) {
  emulator.emulate(emulator.decode(GuestInstruction::kMovToCr3), vcpu, 0xABCDE007);
  EXPECT_EQ(vcpu.cr3, 0xABCDE000u);
  EXPECT_EQ(vcpu.pcid, 7u);
}

TEST_F(EmulatorHarness, WrmsrStoresValue) {
  const std::uint64_t operand =
      (static_cast<std::uint64_t>(MsrIndex::kLstar) << 32) | 0x1234u;
  emulator.emulate(emulator.decode(GuestInstruction::kWrmsr), vcpu, operand);
  EXPECT_EQ(vcpu.read_msr(MsrIndex::kLstar), 0x1234u);
}

TEST_F(EmulatorHarness, IretReturnsToVRing3) {
  vcpu.virt_ring = VirtRing::kVRing0;
  emulator.emulate(emulator.decode(GuestInstruction::kIret), vcpu, 0);
  EXPECT_EQ(vcpu.virt_ring, VirtRing::kVRing3);
}

TEST_F(EmulatorHarness, EveryInstructionHasADistinctName) {
  std::set<std::string_view> names;
  for (int i = 0; i <= static_cast<int>(GuestInstruction::kPopf); ++i) {
    names.insert(InstructionEmulator::name(static_cast<GuestInstruction>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(GuestInstruction::kPopf) + 1);
}

// --- Integration with the PVM hypervisor's #GP path ---

struct GpHarness {
  Simulation sim;
  CostModel costs;
  CounterSet counters;
  PvmHypervisor hypervisor{sim, costs, counters, PvmHypervisor::Options{}};
  SwitcherState state;
  VcpuState vcpu;

  void run(Task<void> task) {
    sim.spawn(std::move(task));
    sim.run();
  }
};

TEST(GpInstructionTest, CliEmulationFlipsIfWithTwoSwitches) {
  GpHarness h;
  h.vcpu.rflags_if = true;
  h.vcpu.virt_ring = VirtRing::kVRing0;
  h.run([](GpHarness& hh) -> Task<void> {
    co_await hh.hypervisor.handle_gp_instruction(hh.state, hh.vcpu, GuestInstruction::kCli, 0);
  }(h));
  // The guest's *virtual* IF is cleared (the hardware IF stays armed at
  // h_ring3 so PVM keeps receiving interrupts, §3.3.3).
  EXPECT_FALSE(h.state.guest_virtual_if);
  EXPECT_EQ(h.counters.get(Counter::kWorldSwitch), 2u);
  EXPECT_EQ(h.counters.get(Counter::kInstructionEmulated), 1u);
  EXPECT_EQ(h.vcpu.virt_ring, VirtRing::kVRing0);  // resumed where it trapped
}

TEST(GpInstructionTest, Cr3LoadRoutesThroughFastHypercall) {
  GpHarness h;
  h.vcpu.virt_ring = VirtRing::kVRing0;
  h.run([](GpHarness& hh) -> Task<void> {
    co_await hh.hypervisor.handle_gp_instruction(hh.state, hh.vcpu,
                                                 GuestInstruction::kMovToCr3, 0x7777A003);
  }(h));
  EXPECT_EQ(h.vcpu.cr3, 0x7777A000u);
  EXPECT_EQ(h.vcpu.pcid, 3u);
  EXPECT_EQ(h.counters.get(Counter::kHypercall), 1u);
  EXPECT_EQ(h.counters.get(Counter::kInstructionEmulated), 0u);
}

TEST(GpInstructionTest, FastPathIsCheaperThanEmulation) {
  auto cost_of = [](GuestInstruction instruction) {
    GpHarness h;
    h.run([instruction](GpHarness& hh) -> Task<void> {
      co_await hh.hypervisor.handle_gp_instruction(hh.state, hh.vcpu, instruction, 0);
    }(h));
    return h.sim.now();
  };
  EXPECT_LT(cost_of(GuestInstruction::kMovToCr3), cost_of(GuestInstruction::kLgdt));
}

TEST(GpInstructionTest, UnparavirtualizedSensitiveInstructionIsABug) {
  GpHarness h;
  h.sim.spawn([](GpHarness& hh) -> Task<void> {
    co_await hh.hypervisor.handle_gp_instruction(hh.state, hh.vcpu, GuestInstruction::kSgdt,
                                                 0);
  }(h));
  EXPECT_THROW(h.sim.run(), std::logic_error);
}

}  // namespace
}  // namespace pvm
