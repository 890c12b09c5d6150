// Per-lock-class contention attribution.
//
// Snapshots the wait/hold statistics every live sim::LockClass records
// (always on, no span recorder required) into a sortable table: total and
// percentile wait/hold times, contended-acquisition counts, queue-depth
// high-water marks and instance counts. One row per class: a singleton lock
// or pool is its own class, and an SPT lock kind ("vm0.rmap_lock") sums its
// per-gfn or per-page instances. This is the Fig. 10/12 diagnosis surface —
// the global mmu_lock's wait share versus the fine-grained meta/pt/rmap
// trio.

#ifndef PVM_SRC_OBS_CONTENTION_H_
#define PVM_SRC_OBS_CONTENTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulation.h"

namespace pvm::obs {

struct ResourceStats {
  std::string name;  // the class name
  std::uint32_t capacity = 0;
  std::size_t instances = 0;
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  SimTime total_wait_ns = 0;
  SimTime total_hold_ns = 0;
  std::size_t peak_queue_depth = 0;
  SimTime wait_p50_ns = 0;
  SimTime wait_p95_ns = 0;
  SimTime wait_p99_ns = 0;
  SimTime hold_p50_ns = 0;
  SimTime hold_p95_ns = 0;
  SimTime hold_p99_ns = 0;
};

// Every live lock class that was acquired at least once, sorted by total
// wait descending, then name ascending (deterministic across identical
// runs).
std::vector<ResourceStats> collect_resource_stats(const Simulation& sim);

// "top resources by wait time" table, at most `top_n` rows.
std::string render_top_resources(const std::vector<ResourceStats>& stats,
                                 std::size_t top_n = 10);

}  // namespace pvm::obs

#endif  // PVM_SRC_OBS_CONTENTION_H_
