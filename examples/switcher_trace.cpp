// Protocol tracing: performs one fresh-page guest fault under PVM-on-EPT,
// EPT-on-EPT and SPT-on-EPT and prints each fault's flight timeline (world
// switches, L0 exits, SPT fills, lock traffic) in execution order — a live
// rendering of the paper's Figure 9 and Figure 3.

#include <cstdio>

#include "src/backends/platform.h"

using namespace pvm;

namespace {

void trace_one_fault(DeployMode mode, const char* title, const char* figure) {
  PlatformConfig config;
  config.mode = mode;
  VirtualPlatform platform(config);
  SecureContainer& container = platform.create_container("t");
  platform.sim().spawn(container.boot(16));
  platform.sim().run();

  GuestProcess& proc = *container.init_process();
  proc.vmas()[GuestProcess::kHeapBase] = Vma{GuestProcess::kHeapBase, 1ull << 20, true};

  // Warm the neighbouring page so table structure exists; the traced fault
  // then needs exactly one GPT store (the n=1 case of the formulas).
  platform.sim().spawn([](SecureContainer& c, GuestProcess& p) -> Task<void> {
    co_await c.kernel().touch(c.vcpu(0), p, GuestProcess::kHeapBase, true);
  }(container, proc));
  platform.sim().run();

  // Empty the flight rings and make them large enough to hold the whole
  // traced fault.
  platform.flight().clear();
  platform.flight().set_capacity(1 << 16);
  const CounterSet before = platform.counters();
  platform.sim().spawn([](SecureContainer& c, GuestProcess& p) -> Task<void> {
    co_await c.kernel().touch(c.vcpu(0), p, GuestProcess::kHeapBase + kPageSize, true);
  }(container, proc));
  platform.sim().run();
  const CounterSet delta = platform.counters().delta_since(before);

  std::printf("=== %s (%s) ===\n", title, figure);
  std::printf("%s",
              flight::render_flight_timeline(platform.flight(), &platform.sim()).c_str());
  std::printf("-> %llu world switches, %llu exits to L0\n\n",
              static_cast<unsigned long long>(delta.get(Counter::kWorldSwitch)),
              static_cast<unsigned long long>(delta.get(Counter::kL0Exit)));
}

}  // namespace

int main() {
  std::printf("One fresh-page guest fault, step by step, per scheme.\n\n");
  trace_one_fault(DeployMode::kPvmNst, "PVM-on-EPT", "paper Fig. 9: 2n+4 switches, no L0");
  trace_one_fault(DeployMode::kKvmEptNst, "EPT-on-EPT",
                  "paper Fig. 3(b): 2n+6 switches, n+3 L0 exits");
  trace_one_fault(DeployMode::kSptOnEptNst, "SPT-on-EPT",
                  "paper Fig. 3(a): 4n+8 switches, 2n+4 L0 exits");
  return 0;
}
