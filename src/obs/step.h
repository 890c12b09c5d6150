// One instrumentation call per world-switch step (paper Fig. 3 and Fig. 9).
//
// A world-switch step feeds three sinks: two counters (the per-fault switch
// and exit counts the tests assert), one flight event (the timeline, the
// pvm-stat exit table and the ts histograms) and one span (the phase share).
// kSteps pairs them once, per flight kind, so the table doubles as the
// protocol's instrumentation contract; step() applies one row.
//
// Order rule. The ts collector stamps each histogram exemplar with the span
// path open when the flight event is recorded. Switcher steps open their
// span first, so a switch_exit_ns exemplar ends in switcher_entry and a
// direct_switch_ns exemplar in direct_switch. VMX steps record first, so a
// vmx_roundtrip_ns exemplar never ends in vmx_entry. Exit records feed no
// exemplar; their rows follow the same rule as their entries.
//
// Header-only and inline: it runs on every world switch.

#ifndef PVM_SRC_OBS_STEP_H_
#define PVM_SRC_OBS_STEP_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/metrics/counters.h"
#include "src/obs/flight.h"
#include "src/obs/phase.h"
#include "src/obs/span.h"
#include "src/sim/simulation.h"

namespace pvm::obs {

struct StepRow {
  flight::EventKind kind;
  Phase phase;
  Counter first;
  Counter second;
  bool span_first;  // open the span before recording the flight event
};

// Indexed by flight::EventKind: the five world-switch kinds come first.
inline constexpr std::array<StepRow, 5> kSteps = {{
    {flight::EventKind::kSwitcherExit, Phase::kSwitcherExit, Counter::kWorldSwitch,
     Counter::kL1Exit, true},
    {flight::EventKind::kSwitcherEntry, Phase::kSwitcherEntry, Counter::kWorldSwitch,
     Counter::kVmEntry, true},
    {flight::EventKind::kDirectSwitch, Phase::kDirectSwitch, Counter::kWorldSwitch,
     Counter::kDirectSwitch, true},
    {flight::EventKind::kVmxExit, Phase::kVmxExit, Counter::kL0Exit, Counter::kWorldSwitch,
     false},
    {flight::EventKind::kVmxEntry, Phase::kVmxEntry, Counter::kWorldSwitch, Counter::kVmEntry,
     false},
}};

constexpr bool steps_indexed_by_kind() {
  for (std::size_t i = 0; i < kSteps.size(); ++i) {
    if (static_cast<std::size_t>(kSteps[i].kind) != i) {
      return false;
    }
  }
  return true;
}
static_assert(steps_indexed_by_kind(), "kSteps row i must describe flight::EventKind i");

// Counts, records and opens one step. The caller holds the returned scope
// across the step's delay. `code`, `a` and `b` are the flight payload.
inline SpanScope step(Simulation& sim, CounterSet& counters, flight::EventKind kind,
                      std::uint8_t code = 0, std::uint64_t a = 0, std::uint64_t b = 0) {
  const StepRow& row = kSteps[static_cast<std::size_t>(kind)];
  counters.add(row.first);
  counters.add(row.second);
  SpanScope span;
  if (row.span_first) {
    span = SpanScope(sim.spans(), row.phase);
  }
  if (flight::FlightRecorder* flight = sim.flight()) {
    flight->record(kind, a, b, code);
  }
  if (!row.span_first) {
    span = SpanScope(sim.spans(), row.phase);
  }
  return span;
}

}  // namespace pvm::obs

#endif  // PVM_SRC_OBS_STEP_H_
