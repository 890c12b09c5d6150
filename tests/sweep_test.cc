// pvm::sweep determinism: a parallel run of the scenario matrix must be
// byte-identical to the serial run — same simcheck report, same matrix JSON,
// same exit code, same minimal failing seed — because results merge by job
// index, never by completion order. Also covers the engine's primitives
// (run_indexed ordering, lowest-index exception selection) and the
// Simulation thread-confinement guard the engine relies on.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/check/simcheck.h"
#include "src/sim/simulation.h"
#include "src/sweep/matrix.h"
#include "src/sweep/sweep.h"

namespace pvm {
namespace {

// ---- The --modes / --policies lists every sweep tool parses ----

TEST(SweepFlagLists, ModesAllIsEveryModeInEnumOrder) {
  std::vector<DeployMode> modes;
  std::string bad;
  ASSERT_TRUE(parse_deploy_mode_list("all", &modes, &bad));
  EXPECT_EQ(modes, std::vector<DeployMode>(std::begin(kAllDeployModes), std::end(kAllDeployModes)));
  EXPECT_EQ(modes.size(), 7u);
}

TEST(SweepFlagLists, ModesKeepTheGivenOrder) {
  std::vector<DeployMode> modes = {DeployMode::kKvmEptBm};  // replaced, not appended to
  std::string bad;
  ASSERT_TRUE(parse_deploy_mode_list("pvm,kvm-spt", &modes, &bad));
  EXPECT_EQ(modes, (std::vector<DeployMode>{DeployMode::kPvmNst, DeployMode::kKvmSptBm}));
  ASSERT_TRUE(parse_deploy_mode_list("ept,pvm-direct,ept-bm", &modes, &bad));
  EXPECT_EQ(modes, (std::vector<DeployMode>{DeployMode::kKvmEptNst, DeployMode::kPvmDirectNst,
                                            DeployMode::kKvmEptBm}));
}

TEST(SweepFlagLists, UnknownOrEmptyTokenIsRejectedAndNamed) {
  std::vector<DeployMode> modes;
  std::string bad;
  EXPECT_FALSE(parse_deploy_mode_list("pvm,bogus,ept", &modes, &bad));
  EXPECT_EQ(bad, "bogus");
  bad = "unset";
  EXPECT_FALSE(parse_deploy_mode_list("pvm,", &modes, &bad));
  EXPECT_EQ(bad, "");
  bad = "unset";
  EXPECT_FALSE(parse_deploy_mode_list("", &modes, &bad));
  EXPECT_EQ(bad, "");
  EXPECT_FALSE(parse_deploy_mode_list("all,pvm", &modes, &bad));
  EXPECT_EQ(bad, "all");
  std::vector<SchedulePolicy> policies;
  EXPECT_FALSE(parse_schedule_policy_list("fifo,nope", &policies, &bad));
  EXPECT_EQ(bad, "nope");
  EXPECT_FALSE(parse_schedule_policy_list(",lifo", &policies, &bad));
  EXPECT_EQ(bad, "");
}

TEST(SweepFlagLists, PoliciesAllIsFifoRandomLifo) {
  std::vector<SchedulePolicy> policies;
  std::string bad;
  ASSERT_TRUE(parse_schedule_policy_list("all", &policies, &bad));
  EXPECT_EQ(policies, (std::vector<SchedulePolicy>{SchedulePolicy::kFifo, SchedulePolicy::kRandom,
                                                   SchedulePolicy::kLifo}));
  ASSERT_TRUE(parse_schedule_policy_list("lifo,fifo", &policies, &bad));
  EXPECT_EQ(policies, (std::vector<SchedulePolicy>{SchedulePolicy::kLifo, SchedulePolicy::kFifo}));
}

TEST(SweepEngine, EffectiveJobsClampsToAtLeastOne) {
  EXPECT_EQ(sweep::effective_jobs(0), 1);
  EXPECT_EQ(sweep::effective_jobs(-3), 1);
  EXPECT_EQ(sweep::effective_jobs(1), 1);
  EXPECT_EQ(sweep::effective_jobs(8), 8);
  EXPECT_GE(sweep::default_jobs(), 1);
}

TEST(SweepEngine, RunIndexedReturnsResultsInIndexOrder) {
  // Results land in index order for every worker count, including counts
  // far above the job count (workers claim from a shared cursor).
  for (const int jobs : {1, 2, 8}) {
    const std::vector<std::size_t> results = sweep::run_indexed<std::size_t>(
        100, jobs, [](std::size_t i) { return i * i; });
    ASSERT_EQ(results.size(), 100u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i);
    }
  }
}

TEST(SweepEngine, ParallelForRunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  sweep::parallel_for(hits.size(), 8,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

TEST(SweepEngine, LowestIndexedFailureWins) {
  // Multiple jobs throw; the rethrown exception must be the lowest-indexed
  // one no matter which worker hit its failure first.
  for (int attempt = 0; attempt < 4; ++attempt) {
    try {
      sweep::parallel_for(32, 8, [](std::size_t i) {
        if (i == 7 || i == 23) {
          throw std::runtime_error("job " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 7");
    }
  }
}

TEST(SimulationGuard, CrossThreadUseThrows) {
  Simulation sim;
  sim.spawn([]() -> Task<void> { co_return; }(), "bind");  // binds this thread
  std::atomic<bool> threw{false};
  std::thread other([&] {
    try {
      sim.run();
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw.load());
  sim.run();  // owner thread still fine
  EXPECT_TRUE(sim.all_tasks_done());
}

// ---- Matrix engine with a stub runner ----

sweep::MatrixSpec small_spec() {
  sweep::MatrixSpec spec;
  spec.modes = {DeployMode::kPvmNst, DeployMode::kKvmSptBm};
  spec.workloads = {"wl-a", "wl-b"};
  spec.fault_plans = {"none"};
  spec.policies = {SchedulePolicy::kFifo, SchedulePolicy::kRandom};
  spec.seeds = 2;
  return spec;
}

TEST(Matrix, EnumerationIsRowMajorAndDense) {
  const sweep::MatrixSpec spec = small_spec();
  const std::vector<sweep::MatrixCell> cells = sweep::enumerate_matrix(spec);
  ASSERT_EQ(cells.size(), spec.cell_count());
  ASSERT_EQ(cells.size(), 16u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  // Modes outermost, seeds innermost.
  EXPECT_EQ(cells[0].mode, DeployMode::kPvmNst);
  EXPECT_EQ(cells[0].seed, 1u);
  EXPECT_EQ(cells[1].seed, 2u);
  EXPECT_EQ(cells[1].workload, "wl-a");
  EXPECT_EQ(cells[2].workload, "wl-a");
  EXPECT_EQ(cells[2].policy, SchedulePolicy::kRandom);
  EXPECT_EQ(cells[4].workload, "wl-b");
  EXPECT_EQ(cells[8].mode, DeployMode::kKvmSptBm);
}

TEST(Matrix, ParallelDocumentIsByteIdenticalToSerial) {
  const sweep::MatrixSpec spec = small_spec();
  const auto runner = [](const sweep::MatrixCell& cell) {
    sweep::CellResult result;
    if (cell.workload == "wl-b" && cell.seed == 2) {
      result.ok = false;
      result.error = "stub failure";
      return result;
    }
    // Deterministic per-cell payload standing in for a pvm.bench.v1 export.
    result.bench_json = "{\"schema\":\"pvm.bench.v1\",\"cell\":" +
                        std::to_string(cell.index) + "}";
    return result;
  };
  const std::vector<sweep::CellResult> serial = sweep::run_matrix(spec, 1, runner);
  const std::string golden = sweep::render_matrix_json(spec, serial);
  for (const int jobs : {2, 8}) {
    const std::vector<sweep::CellResult> parallel = sweep::run_matrix(spec, jobs, runner);
    EXPECT_EQ(sweep::render_matrix_json(spec, parallel), golden) << "jobs=" << jobs;
  }
  // Failed cells keep their slots (ok=false + error), they don't shift
  // later cells' indices.
  EXPECT_NE(golden.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(golden.find("stub failure"), std::string::npos);
}

TEST(Matrix, TimingSectionIsOptIn) {
  sweep::MatrixSpec spec = small_spec();
  spec.seeds = 1;
  const auto runner = [](const sweep::MatrixCell&) { return sweep::CellResult{}; };
  sweep::SweepTiming timing;
  const std::vector<sweep::CellResult> cells = sweep::run_matrix(spec, 2, runner, &timing);
  EXPECT_EQ(timing.cells, spec.cell_count());
  EXPECT_EQ(sweep::render_matrix_json(spec, cells).find("\"timing\""), std::string::npos);
  EXPECT_NE(sweep::render_matrix_json(spec, cells, &timing).find("\"timing\""),
            std::string::npos);
}

// ---- simcheck sweeps through the engine ----

SweepOptions quick_options() {
  SweepOptions options;
  options.modes = {DeployMode::kPvmNst, DeployMode::kKvmSptBm};
  options.policies = {SchedulePolicy::kFifo, SchedulePolicy::kRandom,
                      SchedulePolicy::kLifo};
  options.seeds = 4;
  options.processes = 2;
  options.memstress_bytes = 256u << 10;
  return options;
}

TEST(SimcheckSweep, ParallelReportMatchesSerialWhenPassing) {
  SweepOptions options = quick_options();
  options.jobs = 1;
  std::ostringstream serial;
  const int serial_failures = run_simcheck_sweep(options, serial);
  EXPECT_EQ(serial_failures, 0);
  for (const int jobs : {2, 8}) {
    options.jobs = jobs;
    std::ostringstream parallel;
    const int parallel_failures = run_simcheck_sweep(options, parallel);
    EXPECT_EQ(parallel_failures, serial_failures) << "jobs=" << jobs;
    EXPECT_EQ(parallel.str(), serial.str()) << "jobs=" << jobs;
  }
}

TEST(SimcheckSweep, InjectedViolationYieldsSameMinimalSeedAtAnyJobCount) {
  SweepOptions options = quick_options();
  // Seeds 1..4 per combination; every seed >= 3 plants a deterministic
  // oracle violation, so the minimal failing seed must be exactly 3 — a
  // worker that raced ahead to seed 4 first must not win the triage.
  options.debug_corrupt_from_seed = 3;
  options.jobs = 1;
  std::ostringstream serial;
  const int serial_failures = run_simcheck_sweep(options, serial);
  EXPECT_EQ(serial_failures,
            static_cast<int>(options.modes.size() * options.policies.size()));
  EXPECT_NE(serial.str().find("minimal failing seed: 3"), std::string::npos);
  for (const int jobs : {2, 8}) {
    options.jobs = jobs;
    std::ostringstream parallel;
    const int parallel_failures = run_simcheck_sweep(options, parallel);
    EXPECT_EQ(parallel_failures, serial_failures) << "jobs=" << jobs;
    EXPECT_EQ(parallel.str(), serial.str()) << "jobs=" << jobs;
  }
}

TEST(SimcheckSweep, VerboseReportAlsoMatches) {
  SweepOptions options = quick_options();
  options.seeds = 2;
  options.verbose = true;
  options.jobs = 1;
  std::ostringstream serial;
  run_simcheck_sweep(options, serial);
  options.jobs = 8;
  std::ostringstream parallel;
  run_simcheck_sweep(options, parallel);
  EXPECT_EQ(parallel.str(), serial.str());
}

}  // namespace
}  // namespace pvm
