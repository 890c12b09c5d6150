// Unit tests for the PVM switcher: state save/restore, ring transitions,
// register-clearing semantics (modelled as full state swap), direct switch,
// and cost/counter accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/switcher.h"
#include "src/obs/flight.h"

namespace pvm {
namespace {

struct SwitcherHarness {
  Simulation sim;
  CostModel costs;
  CounterSet counters;
  Switcher switcher{sim, costs, counters};
  SwitcherState state;
  VcpuState vcpu;

  void run(Task<void> task) {
    sim.spawn(std::move(task));
    sim.run();
  }
};

TEST(SwitcherTest, ExitSavesGuestAndEntersRing0) {
  SwitcherHarness h;
  h.vcpu.hw_ring = HwRing::kRing3;
  h.vcpu.cr3 = 0xAAA;
  h.state.saved_host.cr3 = 0xBBB;

  h.run([](SwitcherHarness& hh) -> Task<void> {
    co_await hh.switcher.to_hypervisor(hh.state, hh.vcpu, SwitchReason::kHypercall);
  }(h));

  EXPECT_EQ(h.vcpu.hw_ring, HwRing::kRing0);
  EXPECT_EQ(h.vcpu.cr3, 0xBBBu);               // host context restored
  EXPECT_EQ(h.state.saved_guest.cr3, 0xAAAu);  // guest context preserved
  EXPECT_FALSE(h.state.guest_running);
  EXPECT_EQ(h.counters.get(Counter::kWorldSwitch), 1u);
  EXPECT_EQ(h.counters.get(Counter::kL1Exit), 1u);
  EXPECT_EQ(h.sim.now(), h.costs.switcher_switch());
}

TEST(SwitcherTest, EntryRestoresGuestAtRequestedRing) {
  SwitcherHarness h;
  h.state.saved_guest.cr3 = 0xCCC;
  h.vcpu.hw_ring = HwRing::kRing0;

  h.run([](SwitcherHarness& hh) -> Task<void> {
    co_await hh.switcher.enter_guest(hh.state, hh.vcpu, VirtRing::kVRing0);
  }(h));

  EXPECT_EQ(h.vcpu.hw_ring, HwRing::kRing3);  // de-privileged guest kernel
  EXPECT_EQ(h.vcpu.virt_ring, VirtRing::kVRing0);
  EXPECT_EQ(h.vcpu.cr3, 0xCCCu);
  EXPECT_TRUE(h.vcpu.rflags_if);  // interrupts stay deliverable (§3.3.3)
  EXPECT_TRUE(h.state.guest_running);
  EXPECT_EQ(h.counters.get(Counter::kVmEntry), 1u);
}

TEST(SwitcherTest, ExitEntryRoundTripPreservesGuestState) {
  SwitcherHarness h;
  h.vcpu.cr3 = 0x123;
  h.vcpu.pcid = 42;
  h.vcpu.virt_ring = VirtRing::kVRing3;

  h.run([](SwitcherHarness& hh) -> Task<void> {
    co_await hh.switcher.to_hypervisor(hh.state, hh.vcpu, SwitchReason::kPageFault);
    co_await hh.switcher.enter_guest(hh.state, hh.vcpu, VirtRing::kVRing3);
  }(h));

  EXPECT_EQ(h.vcpu.cr3, 0x123u);
  EXPECT_EQ(h.vcpu.pcid, 42u);
  EXPECT_EQ(h.vcpu.virt_ring, VirtRing::kVRing3);
  EXPECT_EQ(h.counters.get(Counter::kWorldSwitch), 2u);
  EXPECT_EQ(h.sim.now(), 2 * h.costs.switcher_switch());
}

TEST(SwitcherTest, DirectSwitchSkipsHypervisorCounters) {
  SwitcherHarness h;
  h.vcpu.virt_ring = VirtRing::kVRing3;

  h.run([](SwitcherHarness& hh) -> Task<void> {
    co_await hh.switcher.direct_switch_to_kernel(hh.state, hh.vcpu);
    EXPECT_EQ(hh.vcpu.virt_ring, VirtRing::kVRing0);
    co_await hh.switcher.direct_switch_to_user(hh.state, hh.vcpu);
    EXPECT_EQ(hh.vcpu.virt_ring, VirtRing::kVRing3);
  }(h));

  EXPECT_EQ(h.counters.get(Counter::kDirectSwitch), 2u);
  EXPECT_EQ(h.counters.get(Counter::kL1Exit), 0u);
  EXPECT_EQ(h.counters.get(Counter::kVmEntry), 0u);
  // Direct switches are cheaper than full switcher switches + hypervisor.
  EXPECT_LT(h.sim.now(), 2 * h.costs.switcher_switch() + 100);
}

TEST(SwitcherTest, TraceRecordsReasons) {
  flight::FlightRecorder flight;
  SwitcherHarness h;
  h.sim.set_flight(&flight);
  h.run([](SwitcherHarness& hh) -> Task<void> {
    co_await hh.switcher.to_hypervisor(hh.state, hh.vcpu, SwitchReason::kGptWriteProtect);
    co_await hh.switcher.enter_guest(hh.state, hh.vcpu, VirtRing::kVRing0);
    co_await hh.switcher.to_hypervisor(hh.state, hh.vcpu, SwitchReason::kInterrupt);
  }(h));
  std::vector<std::string> steps;
  for (const flight::Event& event : flight.merged()) {
    steps.push_back(std::string(flight::event_kind_name(event.kind)) + " " +
                    flight::event_detail(flight, event));
  }
  EXPECT_EQ(steps, (std::vector<std::string>{"switcher-exit reason=gpt-write-protect",
                                             "switcher-entry ring=0",
                                             "switcher-exit reason=interrupt"}));
}

TEST(SwitcherTest, VirtualIfDefaultsEnabled) {
  SwitcherState state;
  EXPECT_TRUE(state.guest_virtual_if);
  EXPECT_FALSE(state.guest_running);
}

}  // namespace
}  // namespace pvm
