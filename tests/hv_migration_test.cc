// Tests for the §2.3 management-flexibility claim: hardware-assisted nesting
// pins the L1 instance to its host; PVM's L1 remains an ordinary, migratable
// VM. Plus the migration engine's v2 mechanics: real dirty-page tracking
// (write-protect and PML protocols), convergence control, post-copy
// degradation, and the WAL-backed dirty-log stream.

#include <gtest/gtest.h>

#include "src/backends/platform.h"
#include "src/hv/migration.h"
#include "src/wal/wal.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm {
namespace {

MigrationResult migrate_l1_after_workload(DeployMode mode) {
  PlatformConfig config;
  config.mode = mode;
  VirtualPlatform platform(config);
  // Run real L2 work first so the L1 instance has resident state.
  MemStressParams params;
  params.total_bytes = 4ull << 20;
  run_containers(platform, 2,
                 [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
                   return memstress_process(c, vcpu, proc, params);
                 });

  MigrationEngine engine(platform.l0());
  MigrationResult result;
  platform.sim().spawn([](MigrationEngine& e, HostHypervisor::Vm& vm,
                          MigrationResult* out) -> Task<void> {
    *out = co_await e.migrate(vm);
  }(engine, *platform.l1_vm(), &result));
  platform.sim().run();
  return result;
}

TEST(MigrationTest, PvmL1StaysMigratable) {
  const MigrationResult result = migrate_l1_after_workload(DeployMode::kPvmNst);
  EXPECT_TRUE(result.succeeded) << result.failure_reason;
  EXPECT_GT(result.pages_copied, 0u);
  EXPECT_GT(result.rounds, 1);
  EXPECT_GT(result.total_time, 0u);
  EXPECT_LT(result.downtime, result.total_time);
}

TEST(MigrationTest, HardwareNestedL1IsPinned) {
  for (DeployMode mode : {DeployMode::kKvmEptNst, DeployMode::kSptOnEptNst}) {
    SCOPED_TRACE(deploy_mode_name(mode));
    const MigrationResult result = migrate_l1_after_workload(mode);
    EXPECT_FALSE(result.succeeded);
    EXPECT_NE(result.failure_reason.find("nested-VMX"), std::string::npos);
    EXPECT_EQ(result.pages_copied, 0u);
  }
}

TEST(MigrationTest, PvmDirectL1StaysMigratableToo) {
  const MigrationResult result = migrate_l1_after_workload(DeployMode::kPvmDirectNst);
  EXPECT_TRUE(result.succeeded) << result.failure_reason;
}

// ---- Engine-level fixture: a VM with known resident state and a scripted
// guest dirtier driving the DirtyTracker directly (timing-neutral, so WP and
// PML runs execute identical schedules). ----

struct MigrationFixture {
  Simulation sim;
  CostModel costs;
  CounterSet counters;
  HostHypervisor l0{sim, costs, counters, 1u << 22};
  HostHypervisor::Vm* vm = nullptr;

  explicit MigrationFixture(std::uint64_t resident_pages,
                            SchedulePolicy policy = SchedulePolicy::kFifo,
                            std::uint64_t seed = 1) {
    sim.set_schedule_policy(policy, seed);
    vm = &l0.create_vm("vm", 1u << 20, false);
    for (std::uint64_t frame = 0; frame < resident_pages; ++frame) {
      vm->ept().map(frame << kPageShift, frame, PteFlags::rw_kernel());
    }
  }

  // Dirties the same `pages` distinct guest pages once per `period`, for
  // `bursts` periods. Pure tracker traffic — no simulated cost — so the
  // schedule is identical whichever protocol is armed.
  void spawn_dirtier(std::uint64_t pages, int bursts, SimTime period) {
    sim.spawn([](Simulation& s, HostHypervisor::Vm& v, std::uint64_t n, int b,
                 SimTime p) -> Task<void> {
      for (int burst = 0; burst < b; ++burst) {
        co_await s.delay(p);
        for (std::uint64_t page = 0; page < n; ++page) {
          v.dirty_tracker().note_store(0, dirty_page_key(1, page << kPageShift));
        }
      }
    }(sim, *vm, pages, bursts, period));
  }

  MigrationResult migrate(const MigrationParams& params) {
    MigrationEngine engine(l0);
    MigrationResult result;
    sim.spawn([](MigrationEngine& e, HostHypervisor::Vm& v, const MigrationParams& p,
                 MigrationResult* out) -> Task<void> {
      *out = co_await e.migrate(v, p);
    }(engine, *vm, params, &result));
    sim.run();
    return result;
  }
};

TEST(MigrationTest, CopyTimeCeilsWithOneNsFloor) {
  MigrationParams params;
  params.bandwidth_bytes_per_sec = 4096.0 * 1e9;  // exactly one page per ns
  EXPECT_EQ(MigrationEngine::copy_time(0, params), 0u);
  EXPECT_EQ(MigrationEngine::copy_time(1, params), 1u);
  EXPECT_EQ(MigrationEngine::copy_time(7, params), 7u);

  params.bandwidth_bytes_per_sec = 8192.0 * 1e9;  // half a ns per page
  EXPECT_EQ(MigrationEngine::copy_time(1, params), 1u);  // 0.5 ns rounds up
  EXPECT_EQ(MigrationEngine::copy_time(3, params), 2u);  // 1.5 ns rounds up

  // Sub-nanosecond transfers used to truncate to 0; they must floor at 1 ns.
  params.bandwidth_bytes_per_sec = 4.096e15;
  EXPECT_EQ(MigrationEngine::copy_time(1, params), 1u);
  EXPECT_EQ(MigrationEngine::copy_time(1000, params), 1u);
}

TEST(MigrationTest, QuiescentVmConvergesInOneRoundExactly) {
  MigrationFixture fx(/*resident_pages=*/1u << 16);
  const MigrationResult result = fx.migrate({});
  ASSERT_TRUE(result.succeeded) << result.failure_reason;
  // Nothing dirtied: one full-copy round plus stop-and-copy of zero pages.
  EXPECT_EQ(result.rounds, 2);
  EXPECT_EQ(result.pages_copied, 1u << 16);
  EXPECT_EQ(result.pages_dirtied, 0u);
  // Stop-and-copy ships only vCPU/device state (the fixed pause).
  EXPECT_EQ(result.downtime, 200 * kNsPerUs);
  // 256 MiB at 25 Gbit/s is ~86 ms.
  EXPECT_GT(result.total_time, 80 * kNsPerMs);
  EXPECT_LT(result.total_time, 100 * kNsPerMs);
}

TEST(MigrationTest, DirtyingGuestForcesExtraRoundsThenConverges) {
  MigrationFixture fx(/*resident_pages=*/8192);
  // 2000 pages per 1 ms while round 0 streams (~10.7 ms), stopping shortly
  // after: the engine needs extra rounds to drain the dirty set.
  fx.spawn_dirtier(2000, /*bursts=*/12, /*period=*/kNsPerMs);
  const MigrationResult result = fx.migrate({});
  ASSERT_TRUE(result.succeeded) << result.failure_reason;
  EXPECT_FALSE(result.fell_back_postcopy);
  EXPECT_GT(result.rounds, 2);
  EXPECT_GT(result.pages_dirtied, 0u);
  // Every dirtied page is copied exactly once (in a later round or at
  // stop-and-copy), on top of the resident set.
  EXPECT_EQ(result.pages_copied, 8192u + result.pages_dirtied);
  // Write-protect: one fault per first store per round.
  EXPECT_EQ(result.wp_faults, result.pages_dirtied);
  EXPECT_EQ(result.pml_appends, 0u);
}

TEST(MigrationTest, WpAndPmlAgreeAcrossTiePolicies) {
  for (SchedulePolicy policy :
       {SchedulePolicy::kFifo, SchedulePolicy::kRandom, SchedulePolicy::kLifo}) {
    SCOPED_TRACE(schedule_policy_name(policy));
    MigrationResult results[2];
    for (DirtyProtocol protocol : {DirtyProtocol::kWriteProtect, DirtyProtocol::kPml}) {
      MigrationFixture fx(/*resident_pages=*/8192, policy, /*seed=*/7);
      fx.spawn_dirtier(1800, /*bursts=*/12, /*period=*/kNsPerMs);
      MigrationParams params;
      params.protocol = protocol;
      results[protocol == DirtyProtocol::kPml ? 1 : 0] = fx.migrate(params);
      // The tracker drained: nothing left pending after migration.
      EXPECT_EQ(fx.vm->dirty_tracker().dirty_count(), 0u);
      // Resident set contents are untouched by migration.
      EXPECT_EQ(fx.vm->ept().present_leaf_count(), 8192u);
    }
    const MigrationResult& wp = results[0];
    const MigrationResult& pml = results[1];
    ASSERT_TRUE(wp.succeeded) << wp.failure_reason;
    ASSERT_TRUE(pml.succeeded) << pml.failure_reason;
    // The protocols discover the same dirty sets: identical copy totals,
    // round structure, and timing — they differ only in cost accounting.
    EXPECT_EQ(wp.pages_copied, pml.pages_copied);
    EXPECT_EQ(wp.pages_dirtied, pml.pages_dirtied);
    EXPECT_EQ(wp.rounds, pml.rounds);
    EXPECT_EQ(wp.total_time, pml.total_time);
    EXPECT_EQ(wp.pages_copied, 8192u + wp.pages_dirtied);
    EXPECT_GT(wp.wp_faults, 0u);
    EXPECT_EQ(wp.pml_appends, 0u);
    EXPECT_GT(pml.pml_appends, 0u);
    EXPECT_EQ(pml.wp_faults, 0u);
    EXPECT_GT(pml.pml_flushes, 0u);  // 1800 stores/round > the 512-entry log
  }
}

TEST(MigrationTest, WpAndPmlAgreeUnderRealGuestLoad) {
  // Platform-level differential: a memstress process keeps dirtying through
  // the backends' fault paths while the L1 instance migrates. The protocols
  // perturb guest timing differently, so dirty sets may differ — but the
  // resident set at migration start is fixed by the (identical) boot, so
  // pages_copied - pages_dirtied must match across protocols.
  for (SchedulePolicy policy :
       {SchedulePolicy::kFifo, SchedulePolicy::kRandom, SchedulePolicy::kLifo}) {
    SCOPED_TRACE(schedule_policy_name(policy));
    std::uint64_t resident[2] = {0, 0};
    for (DirtyProtocol protocol : {DirtyProtocol::kWriteProtect, DirtyProtocol::kPml}) {
      PlatformConfig config;
      config.mode = DeployMode::kPvmNst;
      config.schedule_policy = policy;
      config.schedule_seed = 7;
      VirtualPlatform platform(config);
      SecureContainer& c = platform.create_container("c0");
      platform.sim().spawn(c.boot(16));
      platform.sim().run();
      ASSERT_FALSE(c.boot_failed());

      MemStressParams params;
      params.total_bytes = 8ull << 20;
      MigrationEngine engine(platform.l0());
      MigrationParams mparams;
      mparams.protocol = protocol;
      MigrationResult result;
      platform.sim().spawn(memstress_process(c, c.vcpu(0), *c.init_process(), params));
      platform.sim().spawn([](MigrationEngine& e, HostHypervisor::Vm& v,
                              const MigrationParams& p, MigrationResult* out) -> Task<void> {
        *out = co_await e.migrate(v, p);
      }(engine, *platform.l1_vm(), mparams, &result));
      platform.sim().run();

      ASSERT_TRUE(result.succeeded) << result.failure_reason;
      ASSERT_GE(result.pages_copied, result.pages_dirtied);
      resident[protocol == DirtyProtocol::kPml ? 1 : 0] =
          result.pages_copied - result.pages_dirtied;
      if (protocol == DirtyProtocol::kWriteProtect) {
        EXPECT_GT(result.wp_faults, 0u);
        EXPECT_EQ(result.pml_appends, 0u);
      } else {
        EXPECT_GT(result.pml_appends, 0u);
        EXPECT_EQ(result.wp_faults, 0u);
      }
    }
    EXPECT_EQ(resident[0], resident[1]);
  }
}

TEST(MigrationTest, PostCopyModeShipsStateThenFetchesHotPagesRemotely) {
  MigrationFixture fx(/*resident_pages=*/4096);
  MigrationParams params;
  params.mode = MigrationMode::kPostCopy;
  const MigrationResult result = fx.migrate(params);
  ASSERT_TRUE(result.succeeded) << result.failure_reason;
  // Downtime is exactly the state-ship pause: the VM resumes remotely at
  // once and pays for its memory via demand fetches instead.
  EXPECT_EQ(result.downtime, 200 * kNsPerUs);
  EXPECT_EQ(result.pages_copied, 4096u);
  EXPECT_EQ(result.remote_faults, 1024u);  // the stop-copy budget's worth
  EXPECT_EQ(fx.counters.get(Counter::kMigrationRemoteFault), 1024u);
}

TEST(MigrationTest, AutoModeDegradesToPostCopyWhenPreCopyDiverges) {
  MigrationFixture fx(/*resident_pages=*/8192);
  // The guest dirties 2000 pages/ms indefinitely (on this migration's time
  // scale): the dirty set never shrinks below what each round just copied.
  fx.spawn_dirtier(2000, /*bursts=*/64, /*period=*/kNsPerMs);
  MigrationParams params;
  params.divergence_rounds = 2;
  const MigrationResult result = fx.migrate(params);
  ASSERT_TRUE(result.succeeded) << result.failure_reason;
  EXPECT_TRUE(result.fell_back_postcopy);
  EXPECT_GT(result.remote_faults, 0u);
  EXPECT_EQ(fx.counters.get(Counter::kMigrationFallback), 1u);
  // Post-copy's downtime: the fixed state-ship pause only.
  EXPECT_EQ(result.downtime, 200 * kNsPerUs);
}

TEST(MigrationTest, PreCopyModeFailsInsteadOfDegrading) {
  MigrationFixture fx(/*resident_pages=*/8192);
  fx.spawn_dirtier(2000, /*bursts=*/64, /*period=*/kNsPerMs);
  MigrationParams params;
  params.mode = MigrationMode::kPreCopy;
  params.divergence_rounds = 2;
  const MigrationResult result = fx.migrate(params);
  EXPECT_FALSE(result.succeeded);
  EXPECT_FALSE(result.fell_back_postcopy);
  EXPECT_NE(result.failure_reason.find("diverged"), std::string::npos)
      << result.failure_reason;
}

TEST(MigrationTest, DirtyLogStreamsToWalWithCheckpoint) {
  MigrationFixture fx(/*resident_pages=*/8192);
  // The dirtier finishes (8 ms) before round 0's copy does (~10.7 ms), so no
  // store lands between the last collect and stop-and-copy — every kDirtyPage
  // record in the WAL corresponds to a collected (counted) dirty page.
  fx.spawn_dirtier(500, /*bursts=*/8, /*period=*/kNsPerMs);
  wal::Log log("wal:migration:vm");
  MigrationParams params;
  params.wal = &log;
  const MigrationResult result = fx.migrate(params);
  ASSERT_TRUE(result.succeeded) << result.failure_reason;

  const wal::RecoveryResult r = wal::recover(log.bytes());
  EXPECT_FALSE(r.torn_tail);
  ASSERT_TRUE(r.last_checkpoint.has_value());
  std::uint64_t dirty_records = 0;
  std::uint64_t round_records = 0;
  for (const wal::Record& record : r.records) {
    dirty_records += record.type == wal::RecordType::kDirtyPage ? 1 : 0;
    round_records += record.type == wal::RecordType::kRoundBegin ? 1 : 0;
  }
  // One kDirtyPage record per first-touch, one kRoundBegin per collect.
  EXPECT_EQ(dirty_records, result.pages_dirtied);
  EXPECT_EQ(round_records, static_cast<std::uint64_t>(result.rounds) - 1);
}

TEST(MigrationTest, IdleVmMigratesWithMinimalState) {
  Simulation sim;
  CostModel costs;
  CounterSet counters;
  HostHypervisor l0(sim, costs, counters, 1u << 20);
  HostHypervisor::Vm& vm = l0.create_vm("idle", 1024, false);
  MigrationEngine engine(l0);
  MigrationResult result;
  sim.spawn([](MigrationEngine& e, HostHypervisor::Vm& v, MigrationResult* out) -> Task<void> {
    *out = co_await e.migrate(v);
  }(engine, vm, &result));
  sim.run();
  EXPECT_TRUE(result.succeeded);
  EXPECT_GE(result.pages_copied, 1u);
  EXPECT_LE(result.rounds, 2);
}

TEST(MigrationTest, PinningIsSetOnlyByHardwareNestedModes) {
  for (DeployMode mode : {DeployMode::kPvmNst, DeployMode::kPvmDirectNst}) {
    PlatformConfig config;
    config.mode = mode;
    VirtualPlatform platform(config);
    platform.create_container("c0");
    EXPECT_FALSE(platform.l1_vm()->nested_vmx_active()) << deploy_mode_name(mode);
  }
  for (DeployMode mode : {DeployMode::kKvmEptNst, DeployMode::kSptOnEptNst}) {
    PlatformConfig config;
    config.mode = mode;
    VirtualPlatform platform(config);
    platform.create_container("c0");
    EXPECT_TRUE(platform.l1_vm()->nested_vmx_active()) << deploy_mode_name(mode);
  }
}

}  // namespace
}  // namespace pvm
