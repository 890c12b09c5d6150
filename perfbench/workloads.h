// The benchmark's workloads, as calls into the simulator's public API.
//
// A workload is a fixed list of cells; a cell is one platform run (one
// VirtualPlatform, or one fleet node). run_rep() runs every cell once and
// splits its host time into two regions:
//   set-up   VirtualPlatform construction, create_container, container boot
//            and process creation, and fleet arrival generation;
//   measured the workload's Simulation::run, ~VirtualPlatform, and every
//            export the workload renders. A fleet node is one
//            fleet::run_node call, its own set-up and pre-warm included.
// Each cell also yields a vt_digest: a hash of its virtual-time output only
// (sim_ns, events, counters, per-task times and the workload's headline
// values), so it must not change with host speed, tracing, or recorders.

#ifndef PVM_PERFBENCH_WORKLOADS_H_
#define PVM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/host_trace.h"

namespace perfbench {

// The inputs a seed generates. The simulator receives only these values.
struct Seeds {
  std::uint64_t memstress = 1;  // memstress jitter; also the apps' AppParams seed
  std::uint64_t schedule = 1;   // same-timestamp tie-break order (kRandom policy)
  std::uint64_t arrival = 1;    // fleet arrival stream
  std::uint64_t placement = 1;  // fleet launch -> node placement
};

// kFull is the measured size; kTiny exists for the self-tests.
enum class Size { kFull, kTiny };

// How cells run. The traced run repeats the cells under each variant.
struct Variant {
  bool flight = true;   // VirtualPlatform's always-on flight recorder attached
  bool observe = true;  // pagefault-observed only: spans, ts collector, exports
};

// One pass over a workload's cells.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  std::map<std::string, double> cell_wall_s;  // wall_s split by cell
  std::uint64_t events = 0;  // events processed in the measured region
  std::vector<std::pair<std::string, std::uint64_t>> digests;  // (cell, vt_digest)
  std::vector<std::string> failures;                           // "cell: reason"
  std::map<std::string, double> counts;  // per-layer counts over the cells
};

// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// Runs every cell of `workload` once. Throws std::invalid_argument for an
// unknown workload; a failing cell is recorded in Rep::failures instead.
Rep run_rep(const std::string& workload, Size size, const Seeds& seeds, const Variant& variant,
            HostTrace& trace);

// Direct-call probes of the arch/mmu walkers on a table populated to
// pagefault's resident footprint: host ns per call, keyed by metric name.
std::map<std::string, double> arch_probes(Size size);

}  // namespace perfbench

#endif  // PVM_PERFBENCH_WORKLOADS_H_
