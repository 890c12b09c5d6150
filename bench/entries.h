// Run-as-library bench entry points.
//
// Every measurement body, here or in a table/figure binary, reaches its
// observer only through an explicit EntryHooks value, never process-global
// state. The binaries pass BenchIo::hooks() (bench/bench_common.h), which
// feeds their --json/--trace/--report/--faults flags; pvm-matrix passes hooks
// that capture into a local, per-cell BenchExport, so concurrent cells never
// share mutable state. The bodies defined here are the ones more than one
// caller runs.

#ifndef PVM_BENCH_ENTRIES_H_
#define PVM_BENCH_ENTRIES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/backends/config.h"
#include "src/hv/dirty_tracker.h"

namespace pvm {

class Simulation;
class VirtualPlatform;
class CounterSet;
struct MemStressParams;
enum class LmbenchOp;

namespace bench {

// Observation hooks threaded through an entry point. Both providers
// (BenchIo::hooks() and run_workload_cell) set all three members.
struct EntryHooks {
  // Called right after a raw Simulation (no platform) is constructed.
  std::function<void(Simulation&)> on_sim;
  // Called right after a VirtualPlatform is constructed, before any run.
  std::function<void(VirtualPlatform&)> on_platform;
  // Called once per completed run with the entry's headline values, while
  // the simulation is still alive.
  std::function<void(const std::string& label, Simulation& sim, CounterSet& counters,
                     std::vector<std::pair<std::string, double>> values)>
      record;
};

// ---- Table 0: world-switch unit costs (us per switch) ----
// Raw-simulation micro measurements; deployment mode does not apply.
double switch_single_level_us(const EntryHooks& hooks);
double switch_pvm_us(const EntryHooks& hooks);
double switch_nested_us(const EntryHooks& hooks);

// ---- Table 2: get_pid syscall latency (us) ----
double syscall_getpid_us(const std::string& label, const PlatformConfig& config,
                         const EntryHooks& hooks);

// ---- Fig. 2 / Table 4: one LMbench op on a freshly booted container ----
// Mean latency (ns) of `op` over `iterations` on the init process, after a
// boot with `boot_pages` resident pages; records "latency_us".
std::uint64_t lmbench_latency_ns(const std::string& label, const PlatformConfig& config,
                                 LmbenchOp op, int iterations, int boot_pages,
                                 const EntryHooks& hooks);

// ---- Fig. 4 / Fig. 10 memstress (mean seconds per process) ----
// `processes` concurrent memstress processes in one container; records
// "mean_seconds".
double pagefault_mean_seconds(const std::string& label, const PlatformConfig& config,
                              int processes, const MemStressParams& params,
                              const EntryHooks& hooks);

// ---- Fig. 12b-style boot storm (startup latency percentiles, ms) ----
struct BootStormStats {
  double p50_ms = 0;
  double p99_ms = 0;
  double worst_ms = 0;
};
BootStormStats boot_storm(const std::string& label, const PlatformConfig& config,
                          int containers, const EntryHooks& hooks);

// ---- §2.3 live-migration management metrics ----
// Boots one container, then migrates its hosting VM *while* a memstress
// process keeps dirtying pages, so the dirty-tracking protocol (write-protect
// or PML) does real work. Nested hardware modes (kvm-ept, spt-on-ept) refuse
// — succeeded stays 0 with pages_copied 0, the §2.3 pinning claim in numbers.
struct MigrationBenchStats {
  bool succeeded = false;
  bool fell_back_postcopy = false;
  double rounds = 0;
  double pages_copied = 0;
  double pages_dirtied = 0;
  double wp_faults = 0;
  double pml_appends = 0;
  double pml_flushes = 0;
  double remote_faults = 0;
  double downtime_us = 0;
  double total_ms = 0;
};
MigrationBenchStats migration_stats(const std::string& label, const PlatformConfig& config,
                                    DirtyProtocol protocol, const EntryHooks& hooks);

// ---- Matrix cells ----

// One pvm-matrix cell: which entry to run and under what scheduling /
// fault-injection coordinates.
struct CellConfig {
  DeployMode mode = DeployMode::kPvmNst;
  SchedulePolicy policy = SchedulePolicy::kFifo;
  std::uint64_t schedule_seed = 1;
  std::string fault_plan = "none";  // fault::FaultPlan::parse spec, or "none"
  // Collect a pvm.timeseries.v1 document for the cell. Metric names are
  // prefixed "<mode>/<workload>/" — deliberately without the seed/policy
  // coordinates, so documents from different seeds of the same (mode,
  // workload) aggregate when merged.
  bool timeseries = false;
  std::uint64_t ts_window_ns = 0;  // 0: ts::kDefaultWindowNs
  // Collect a pvm.profile.v1 document for the cell (critical-path fold of
  // every run's span tree). Op keys are prefixed
  // "<mode>/<workload>/<label>/" — the run label stays in the key so e.g.
  // the migration workload's WP and PML runs profile separately.
  bool profile = false;
};

struct CellOutcome {
  bool ok = false;
  std::string error;       // set when !ok (exception text)
  std::string bench_json;  // pvm.bench.v1 document for this cell when ok
  std::string ts_json;     // pvm.timeseries.v1 document (CellConfig::timeseries)
  std::string profile_json;  // pvm.profile.v1 document (CellConfig::profile)
  // Simulation events processed across the cell's recorded runs — the sweep
  // engine's throughput denominator (events/sec in pvm-matrix --timing).
  std::uint64_t events = 0;
};

// The workload names run_workload_cell accepts, in canonical order.
const std::vector<std::string>& matrix_workloads();

// Runs `workload` (one of matrix_workloads()) for one cell
// in a private Simulation/platform with a private BenchExport, and returns
// the cell's pvm.bench.v1 document. Thread-safe: no process-global state is
// touched, so sweep workers can run cells concurrently. "switch" is a
// raw-simulation micro bench: the cell's mode and fault plan do not apply
// (policy and seed still do). Unknown workloads return ok=false.
CellOutcome run_workload_cell(const std::string& workload, const CellConfig& cell);

}  // namespace bench
}  // namespace pvm

#endif  // PVM_BENCH_ENTRIES_H_
