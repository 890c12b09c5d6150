// Protocol-sequence tests: the flight events of one fresh-page fault must
// follow the paper's figures in order (Fig. 9 for PVM-on-EPT, Fig. 3(b) for
// EPT-on-EPT, Fig. 3(a) for SPT-on-EPT), and the metrics report must expose
// the derived per-fault statistics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/backends/platform.h"
#include "src/metrics/report.h"

namespace pvm {
namespace {

struct TraceHarness {
  explicit TraceHarness(DeployMode mode) {
    PlatformConfig config;
    config.mode = mode;
    platform = std::make_unique<VirtualPlatform>(config);
    container = &platform->create_container("c0");
    platform->sim().spawn(container->boot(16));
    platform->sim().run();
    GuestProcess& proc = *container->init_process();
    proc.vmas()[GuestProcess::kHeapBase] = Vma{GuestProcess::kHeapBase, 1ull << 20, true};
    platform->sim().spawn([](SecureContainer& c, GuestProcess& p) -> Task<void> {
      co_await c.kernel().touch(c.vcpu(0), p, GuestProcess::kHeapBase, true);
    }(*container, proc));
    platform->sim().run();
  }

  // Touches the page next to the warmed one with the flight rings emptied
  // and unbounded, so they hold exactly that fault. Returns its counters.
  CounterSet traced_fresh_touch() {
    platform->flight().clear();
    platform->flight().set_capacity(1 << 16);
    const CounterSet before = platform->counters();
    platform->sim().spawn([](SecureContainer& c, GuestProcess& p) -> Task<void> {
      co_await c.kernel().touch(c.vcpu(0), p, GuestProcess::kHeapBase + kPageSize, true);
    }(*container, *container->init_process()));
    platform->sim().run();
    return platform->counters().delta_since(before);
  }

  // One "kind detail" line per flight event ("vmx-exit reason=exception").
  std::vector<std::string> steps() const {
    const flight::FlightRecorder& flight = platform->flight();
    std::vector<std::string> lines;
    for (const flight::Event& event : flight.merged()) {
      std::string line(flight::event_kind_name(event.kind));
      const std::string detail = flight::event_detail(flight, event);
      if (!detail.empty()) {
        line += " " + detail;
      }
      lines.push_back(std::move(line));
    }
    return lines;
  }

  std::string timeline() const {
    return flight::render_flight_timeline(platform->flight(), &platform->sim());
  }

  std::unique_ptr<VirtualPlatform> platform;
  SecureContainer* container;
};

bool contains_sequence(const std::vector<std::string>& lines,
                       const std::vector<std::string>& needle) {
  std::size_t matched = 0;
  for (const std::string& line : lines) {
    if (matched < needle.size() && line == needle[matched]) {
      ++matched;
    }
  }
  return matched == needle.size();
}

TEST(TraceProtocolTest, PvmOnEptFollowsFigure9) {
  TraceHarness h(DeployMode::kPvmNst);
  const CounterSet delta = h.traced_fresh_touch();
  // Fig. 9 order: #PF exit -> entry to v_ring0 (inject) -> WP trap for the
  // GPT store -> iret hypercall -> prefault -> entry to v_ring3.
  const std::vector<std::string> figure9 = {
      "switcher-exit reason=page-fault",
      "switcher-entry ring=0",
      "switcher-exit reason=gpt-write-protect",
      "switcher-entry ring=0",
      "switcher-exit reason=hypercall",
      "switcher-entry ring=3",
  };
  EXPECT_TRUE(contains_sequence(h.steps(), figure9)) << h.timeline();
  // The prefault happened between the iret hypercall (the last exit) and
  // the final entry, and L0 never took part.
  std::uint64_t iret = 0;
  std::uint64_t prefault = 0;
  std::uint64_t final_entry = 0;
  for (const flight::Event& event : h.platform->flight().merged()) {
    if (event.kind == flight::EventKind::kSwitcherExit) {
      iret = event.seq;
    } else if (event.kind == flight::EventKind::kSwitcherEntry) {
      final_entry = event.seq;
    } else if (event.kind == flight::EventKind::kSptFill && event.code == 1) {
      prefault = event.seq;
    }
    EXPECT_NE(event.kind, flight::EventKind::kVmxExit) << h.timeline();
    EXPECT_NE(event.kind, flight::EventKind::kVmxEntry) << h.timeline();
  }
  EXPECT_LT(iret, prefault) << h.timeline();
  EXPECT_LT(prefault, final_entry) << h.timeline();
  EXPECT_EQ(delta.get(Counter::kL0Exit), 0u);
}

TEST(TraceProtocolTest, EptOnEptFollowsFigure3b) {
  TraceHarness h(DeployMode::kKvmEptNst);
  const CounterSet delta = h.traced_fresh_touch();
  const std::vector<std::string> figure3b = {
      "vmx-exit reason=ept-violation",  // ➊-➌ L2 exit, forwarded to L1
      "vmx-exit reason=ept12-store",    // ➎-➐
      "vmx-exit reason=vmresume-trap",  // ➑-➒
      "vmx-entry",                      // ➓ real entry into L2
      "vmx-exit reason=exception",      // ⓫ second violation
      "vmx-entry",                      // ⓭
  };
  EXPECT_TRUE(contains_sequence(h.steps(), figure3b)) << h.timeline();
  EXPECT_EQ(delta.get(Counter::kL0Exit), 4u);
}

TEST(TraceProtocolTest, SptOnEptHasTwoPhases) {
  TraceHarness h(DeployMode::kSptOnEptNst);
  const CounterSet delta = h.traced_fresh_touch();
  // Phase 1 (guest fault, via L0 twice) ... phase 2 ends with the SPT fill:
  // 6 L0 exits as forward/resume pairs (2n+4 with n=1).
  int forwards = 0;
  int resumes = 0;
  int forwards_before_last_fill = -1;
  std::uint8_t last_fill_code = 0;
  for (const flight::Event& event : h.platform->flight().merged()) {
    if (event.kind == flight::EventKind::kVmxExit) {
      if (event.code == flight::kExitCodeVmresumeTrap) {
        ++resumes;
      } else {
        ++forwards;
      }
    }
    if (event.kind == flight::EventKind::kSptFill) {
      forwards_before_last_fill = forwards;
      last_fill_code = event.code;
    }
  }
  EXPECT_EQ(forwards, 3) << h.timeline();
  EXPECT_EQ(resumes, 3) << h.timeline();
  EXPECT_EQ(forwards_before_last_fill, 3) << h.timeline();
  EXPECT_EQ(last_fill_code, 0) << h.timeline();  // a plain fill, not a prefault
  EXPECT_EQ(delta.get(Counter::kL0Exit), 6u);
}

TEST(MetricsReportTest, RendersNonZeroCountersAndDerivedStats) {
  TraceHarness h(DeployMode::kPvmNst);
  h.traced_fresh_touch();
  // A repeated touch so the TLB records at least one hit.
  h.platform->sim().spawn([](SecureContainer& c, GuestProcess& p) -> Task<void> {
    co_await c.kernel().touch(c.vcpu(0), p, GuestProcess::kHeapBase + kPageSize, true);
  }(*h.container, *h.container->init_process()));
  h.platform->sim().run();
  const std::string report = render_counter_report(h.platform->counters());
  EXPECT_NE(report.find("world_switch"), std::string::npos);
  EXPECT_NE(report.find("guest_page_fault"), std::string::npos);
  EXPECT_EQ(report.find("ept_compressed"), std::string::npos);  // zero stays hidden

  const DerivedStats stats = derive_stats(h.platform->counters());
  EXPECT_GT(stats.switches_per_fault, 0.0);
  EXPECT_GT(stats.tlb_hit_rate, 0.0);
  EXPECT_LE(stats.tlb_hit_rate, 1.0);
  EXPECT_GT(stats.prefault_coverage, 0.0);
  EXPECT_NE(render_derived_stats(h.platform->counters()).find("switches/fault"),
            std::string::npos);
}

TEST(MetricsReportTest, EmptyCountersAreSafe) {
  CounterSet counters;
  EXPECT_TRUE(render_counter_report(counters).empty());
  const DerivedStats stats = derive_stats(counters);
  EXPECT_EQ(stats.switches_per_fault, 0.0);
  EXPECT_EQ(stats.tlb_hit_rate, 0.0);
}

}  // namespace
}  // namespace pvm
