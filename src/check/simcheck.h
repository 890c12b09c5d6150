// simcheck: systematic schedule exploration with the SPT coherence oracle.
//
// One simcheck case = one deployment mode + one (SchedulePolicy, seed) pair +
// one ablation of the PVM optimizations, running a multi-process memstress
// workload with fault-injection agents (chaos.h) and the coherence oracle
// armed. Because the discrete-event kernel breaks same-timestamp ties by
// policy+seed, every case deterministically executes a *different* legal
// interleaving of the same concurrent protocol — and replays bit-for-bit.
//
// A sweep walks seeds in ascending order per (mode, policy) combination, so
// the first failure it reports is the minimal failing seed; the report
// carries the oracle's violation list or, on deadlock, which root tasks are
// blocked in which Resource queues.

#ifndef PVM_SRC_CHECK_SIMCHECK_H_
#define PVM_SRC_CHECK_SIMCHECK_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/backends/config.h"
#include "src/check/chaos.h"
#include "src/metrics/counters.h"

namespace pvm {

struct SimcheckCase {
  DeployMode mode = DeployMode::kPvmNst;
  SchedulePolicy policy = SchedulePolicy::kFifo;
  std::uint64_t schedule_seed = 0;

  // PVM-optimization ablation under test (ignored by non-PVM modes except
  // where the backend shares the engine options).
  bool fine_grained_locks = true;
  bool prefault = true;
  bool pcid_mapping = true;

  bool chaos = true;
  std::uint64_t chaos_seed = 1;

  // faultstorm: arm a random bounded FaultPlan (chaos.h) platform-wide, so
  // every case also explores injected allocation pressure, handoff delays,
  // exit spikes, VMRESUME failures, and spurious invalidations.
  bool faults = true;
  std::uint64_t fault_seed = 1;

  int processes = 3;
  std::uint64_t memstress_bytes = 1ull << 20;  // per process

  // Flight-recorder ring capacity per track; 0 keeps the recorder's default
  // (256). Larger rings trade memory for longer postmortem timelines on
  // failure — capacity binds at a track's first event, so it must be set
  // before the case runs, not when it dies.
  std::uint64_t flight_capacity = 0;

  // Test hook (sweep determinism tests): when nonzero and schedule_seed >=
  // this value, one shadow leaf is corrupted at the final quiescent point so
  // the oracle deterministically reports a violation. Lets tests prove that
  // serial and parallel sweeps find the same minimal failing seed without
  // depending on a real protocol bug.
  std::uint64_t debug_corrupt_from_seed = 0;
};

// The exact `simcheck ...` invocation that replays this case bit-for-bit;
// printed in failure reports and embedded in postmortem dumps.
std::string simcheck_reproduce_line(const SimcheckCase& c);

struct SimcheckResult {
  bool ok = true;
  std::string failure;  // oracle violations, exception, or deadlock report
  std::string profile;  // on failure: counter table + top-contended resources

  // On failure: the flight-recorder dump at the moment of death — the
  // interleaved per-track timeline and the pvm.postmortem.v1 JSON (which
  // embeds the reproduce line). Empty on success.
  std::string postmortem_text;
  std::string postmortem_json;

  std::uint64_t events = 0;       // events the schedule executed
  std::uint64_t fills = 0;        // Counter::kSptEntryFilled
  std::uint64_t fill_races = 0;   // Counter::kSptFillRaced
  std::uint64_t shadow_frames = 0;  // final shadow table footprint
};

// Runs one case end to end: boot, processes, workload + chaos, drain, then a
// strict quiescent oracle check. Never throws; failures land in `failure`.
SimcheckResult run_simcheck_case(const SimcheckCase& c);

struct SweepOptions {
  std::vector<DeployMode> modes;
  std::vector<SchedulePolicy> policies;
  int seeds = 64;
  std::uint64_t first_seed = 1;
  bool chaos = true;
  bool faults = true;
  int processes = 3;
  std::uint64_t memstress_bytes = 1ull << 20;
  std::uint64_t flight_capacity = 0;  // per-track ring size; 0 = default
  bool verbose = false;

  // Worker threads for the sweep (pvm::sweep engine); 0 means one per
  // hardware thread. Each case runs a fully isolated Simulation on one
  // worker, and results are merged by case index — the report, exit code,
  // and postmortem files are byte-identical to a --jobs 1 run.
  int jobs = 1;

  // When non-empty, each failing case's postmortem is written to
  // <dir>/postmortem-<mode>-<policy>-<seed>.{json,txt} (CI uploads these).
  std::string postmortem_dir;

  // When non-empty, WAL-backed checkpoint-resume: finished cases append to
  // this file as they complete, and a rerun with the same options replays
  // them instead of recomputing — the report stays byte-identical to an
  // uninterrupted sweep. A torn tail (the sweep died mid-append) is
  // truncated on recovery and those cases rerun; a checkpoint written by a
  // different option set is ignored with a warning on stderr.
  std::string checkpoint_path;

  // Plumbed into every case's debug_corrupt_from_seed (test hook, above).
  std::uint64_t debug_corrupt_from_seed = 0;
};

// Sweeps seeds (ascending) x policies x modes, cycling the PVM lock /
// prefault / PCID ablations from the seed's low bits so the cross-product is
// covered. Reports each combination's minimal failing seed to `out`.
// Returns the number of failing (mode, policy) combinations.
//
// With options.jobs > 1 the cases run on a thread pool: workers claim cases
// from a shared cursor, and a combination's remaining seeds are skipped once
// a smaller seed of that combination has failed (so triage work stays close
// to the serial early-stop). Because seeds below a failure always run and
// the merge walks seeds in ascending order, the minimal failing seed — and
// every output byte — matches the serial sweep.
int run_simcheck_sweep(const SweepOptions& options, std::ostream& out);

}  // namespace pvm

#endif  // PVM_SRC_CHECK_SIMCHECK_H_
