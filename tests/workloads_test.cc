// Tests for the workload library: every LMbench op and app model runs to
// completion in every deployment mode, and key cross-mode orderings hold.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/workloads/apps.h"
#include "src/workloads/lmbench.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm {
namespace {

constexpr DeployMode kAllModes[] = {DeployMode::kKvmEptBm,  DeployMode::kKvmSptBm,
                                    DeployMode::kPvmBm,     DeployMode::kKvmEptNst,
                                    DeployMode::kPvmNst,    DeployMode::kSptOnEptNst};

std::unique_ptr<VirtualPlatform> make_platform(DeployMode mode) {
  PlatformConfig config;
  config.mode = mode;
  return std::make_unique<VirtualPlatform>(config);
}

std::uint64_t run_lmbench_once(DeployMode mode, LmbenchOp op, int iterations = 8,
                               int boot_pages = 64) {
  auto platform = make_platform(mode);
  SecureContainer& container = platform->create_container("c0");
  platform->sim().spawn(container.boot(boot_pages));
  platform->sim().run();

  std::uint64_t latency = 0;
  platform->sim().spawn(
      [](SecureContainer& c, LmbenchOp o, int iters, std::uint64_t* out) -> Task<void> {
        LmbenchParams params;
        params.resident_pages = 64;
        *out = co_await lmbench_run(c, c.vcpu(0), *c.init_process(), o, iters, params);
      }(container, op, iterations, &latency));
  platform->sim().run();
  EXPECT_TRUE(platform->sim().all_tasks_done());
  return latency;
}

class LmbenchAllOps : public ::testing::TestWithParam<LmbenchOp> {};

TEST_P(LmbenchAllOps, RunsInEveryMode) {
  for (DeployMode mode : kAllModes) {
    SCOPED_TRACE(deploy_mode_name(mode));
    const std::uint64_t latency = run_lmbench_once(mode, GetParam(), 4);
    EXPECT_GT(latency, 0u);
    EXPECT_LT(latency, 1000ull * kNsPerMs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, LmbenchAllOps,
    ::testing::Values(LmbenchOp::kNullIo, LmbenchOp::kStat, LmbenchOp::kOpenClose,
                      LmbenchOp::kSelectTcp, LmbenchOp::kSigInstall, LmbenchOp::kSigHandle,
                      LmbenchOp::kForkProc, LmbenchOp::kExecProc, LmbenchOp::kShProc,
                      LmbenchOp::kFileCreate0K, LmbenchOp::kFileCreate10K, LmbenchOp::kMmap,
                      LmbenchOp::kProtFault, LmbenchOp::kPageFault, LmbenchOp::kSelect100Fd,
                      LmbenchOp::kGetPid),
    [](const ::testing::TestParamInfo<LmbenchOp>& param_info) {
      std::string name(lmbench_op_name(param_info.param));
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(LmbenchOrderingTest, GetPidDirectSwitchBeatsNoDirectSwitch) {
  PlatformConfig with;
  with.mode = DeployMode::kPvmNst;
  PlatformConfig without = with;
  without.direct_switch = false;

  auto run_one = [](const PlatformConfig& config) {
    VirtualPlatform platform(config);
    SecureContainer& c = platform.create_container("c0");
    platform.sim().spawn(c.boot(32));
    platform.sim().run();
    std::uint64_t latency = 0;
    platform.sim().spawn([](SecureContainer& cc, std::uint64_t* out) -> Task<void> {
      *out = co_await lmbench_run(cc, cc.vcpu(0), *cc.init_process(), LmbenchOp::kGetPid, 64,
                                  LmbenchParams{});
    }(c, &latency));
    platform.sim().run();
    return latency;
  };
  const std::uint64_t fast = run_one(with);
  const std::uint64_t slow = run_one(without);
  EXPECT_LT(fast, slow);
  // The paper reports ~6x (0.30 vs 1.93 us); allow a broad band.
  EXPECT_GT(static_cast<double>(slow) / static_cast<double>(fast), 2.0);
}

TEST(LmbenchOrderingTest, SyscallCostKvmEptFastestPvmMiddleKvmSptSlowest) {
  const std::uint64_t ept = run_lmbench_once(DeployMode::kKvmEptBm, LmbenchOp::kGetPid, 64);
  const std::uint64_t pvm = run_lmbench_once(DeployMode::kPvmBm, LmbenchOp::kGetPid, 64);
  const std::uint64_t spt = run_lmbench_once(DeployMode::kKvmSptBm, LmbenchOp::kGetPid, 64);
  EXPECT_LT(ept, pvm);
  EXPECT_LT(pvm, spt);
}

TEST(LmbenchOrderingTest, ForkCheaperOnEptThanOnShadowSchemes) {
  // lmbench's parent process has a few hundred resident pages; the fork
  // child's exit tears all of them down, each clear trapping under shadow
  // paging — the paper's fork/exec/sh exception (§4.2).
  const std::uint64_t ept =
      run_lmbench_once(DeployMode::kKvmEptNst, LmbenchOp::kForkProc, 4, /*boot_pages=*/320);
  const std::uint64_t pvm =
      run_lmbench_once(DeployMode::kPvmNst, LmbenchOp::kForkProc, 4, /*boot_pages=*/320);
  EXPECT_LT(ept, pvm);
}

TEST(MemStressTest, RunsInAllModesAndPvmBeatsKvmNested) {
  MemStressParams params;
  params.total_bytes = 4ull << 20;  // small for the unit test

  std::map<DeployMode, double> seconds;
  for (DeployMode mode : kAllModes) {
    SCOPED_TRACE(deploy_mode_name(mode));
    auto platform = make_platform(mode);
    SecureContainer& container = platform->create_container("c0");
    platform->sim().spawn(container.boot(16));
    platform->sim().run();
    const ConcurrentResult result = run_processes_in_container(
        *platform, container, 2,
        [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
          return memstress_process(container, vcpu, proc, params);
        });
    EXPECT_EQ(result.task_times.size(), 2u);
    for (const SimTime t : result.task_times) {
      EXPECT_GT(t, 0u);
    }
    seconds[mode] = result.mean_seconds();
  }
  // Fig. 4 / Fig. 10 orderings at low concurrency.
  EXPECT_LT(seconds[DeployMode::kKvmEptBm], seconds[DeployMode::kPvmNst]);
  EXPECT_LT(seconds[DeployMode::kPvmNst], seconds[DeployMode::kKvmEptNst]);
  EXPECT_LT(seconds[DeployMode::kKvmEptNst], seconds[DeployMode::kSptOnEptNst]);
}

TEST(AppModelTest, AppsRunInEveryMode) {
  for (DeployMode mode : {DeployMode::kKvmEptBm, DeployMode::kKvmEptNst, DeployMode::kPvmNst}) {
    SCOPED_TRACE(deploy_mode_name(mode));
    auto platform = make_platform(mode);
    AppParams params;
    params.size = 0.1;

    const ContainersResult result = run_containers(
        *platform, 2,
        [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
          return app_kbuild(c, vcpu, proc, params);
        },
        32);
    EXPECT_EQ(result.task_times.size(), 2u);
    for (const SimTime t : result.task_times) {
      EXPECT_GT(t, 0u);
    }
    for (const SimTime boot : result.boot_latencies) {
      EXPECT_GT(boot, 0u);
    }
  }
}

TEST(AppModelTest, BlogbenchReturnsScore) {
  auto platform = make_platform(DeployMode::kPvmNst);
  SecureContainer& c = platform->create_container("c0");
  platform->sim().spawn(c.boot(32));
  platform->sim().run();
  double score = 0;
  AppParams params;
  params.size = 0.1;
  platform->sim().spawn([](SecureContainer& cc, AppParams p, double* out) -> Task<void> {
    *out = co_await app_blogbench(cc, cc.vcpu(0), *cc.init_process(), p);
  }(c, params, &score));
  platform->sim().run();
  EXPECT_GT(score, 0.0);
}

TEST(AppModelTest, BlogbenchStaysCoherentUnderTheArmedOracle) {
  // The armed SPT oracle re-checks every shadow leaf after each mutation,
  // kernel-half fills included, so this run fails on its first kernel fill
  // if a leaf's reported address disagrees with its backpointer.
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  config.coherence_oracle = true;
  VirtualPlatform platform(config);
  SecureContainer& c = platform.create_container("c0");
  platform.sim().spawn(c.boot(32));
  ASSERT_NO_THROW(platform.sim().run());
  double score = 0;
  AppParams params;
  params.size = 0.1;
  platform.sim().spawn([](SecureContainer& cc, AppParams p, double* out) -> Task<void> {
    *out = co_await app_blogbench(cc, cc.vcpu(0), *cc.init_process(), p);
  }(c, params, &score));
  ASSERT_NO_THROW(platform.sim().run());
  EXPECT_GT(score, 0.0);

  PvmMemoryEngine* engine = c.shadow_engine();
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(engine->coherence_oracle_enabled());
  EXPECT_EQ(engine->check_coherence(/*strict=*/true), std::vector<std::string>{});
  std::uint64_t kernel_half_leaves = 0;
  engine->spt(c.init_process()->pid(), /*kernel_ring=*/true)
      .for_each_leaf([&](std::uint64_t gva, const Pte&) {
        kernel_half_leaves += gva >= kGuestKernelHalfBase ? 1 : 0;
      });
  EXPECT_GT(kernel_half_leaves, 0u);
}

TEST(AppModelTest, SpecjbbReturnsThroughput) {
  auto platform = make_platform(DeployMode::kKvmEptBm);
  SecureContainer& c = platform->create_container("c0");
  platform->sim().spawn(c.boot(32));
  platform->sim().run();
  double kbops = 0;
  AppParams params;
  params.size = 0.05;
  platform->sim().spawn([](SecureContainer& cc, AppParams p, double* out) -> Task<void> {
    *out = co_await app_specjbb(cc, cc.vcpu(0), *cc.init_process(), p);
  }(c, params, &kbops));
  platform->sim().run();
  EXPECT_GT(kbops, 0.0);
}

TEST(AppModelTest, FluidanimateCompletesWithBarriers) {
  for (DeployMode mode : {DeployMode::kKvmEptNst, DeployMode::kPvmNst}) {
    SCOPED_TRACE(deploy_mode_name(mode));
    auto platform = make_platform(mode);
    SecureContainer& c = platform->create_container("c0");
    platform->sim().spawn(c.boot(16));
    platform->sim().run();
    AppParams params;
    platform->sim().spawn(app_fluidanimate(c, params, /*threads=*/3, /*frames=*/4));
    platform->sim().run();
    EXPECT_TRUE(platform->sim().all_tasks_done());
  }
}

TEST(AppModelTest, CloudSuiteKindsComplete) {
  auto platform = make_platform(DeployMode::kPvmNst);
  SecureContainer& c = platform->create_container("c0");
  platform->sim().spawn(c.boot(16));
  platform->sim().run();
  for (CloudSuiteKind kind : {CloudSuiteKind::kDataAnalytics, CloudSuiteKind::kGraphAnalytics,
                              CloudSuiteKind::kInMemoryAnalytics}) {
    AppParams params;
    params.size = 0.2;
    platform->sim().spawn(
        [](SecureContainer& cc, CloudSuiteKind k, AppParams p) -> Task<void> {
          return app_cloudsuite(cc, cc.vcpu(0), *cc.init_process(), k, p);
        }(c, kind, params));
    platform->sim().run();
    EXPECT_TRUE(platform->sim().all_tasks_done());
  }
}

TEST(RunnerTest, ConcurrentProcessesOverlapInTime) {
  auto platform = make_platform(DeployMode::kKvmEptBm);
  SecureContainer& container = platform->create_container("c0");
  platform->sim().spawn(container.boot(16));
  platform->sim().run();

  MemStressParams params;
  params.total_bytes = 2ull << 20;
  const ConcurrentResult result = run_processes_in_container(
      *platform, container, 4,
      [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return memstress_process(container, vcpu, proc, params);
      });
  // If the 4 processes truly overlap, the makespan is far less than the sum.
  SimTime sum = 0;
  for (const SimTime t : result.task_times) {
    sum += t;
  }
  EXPECT_LT(result.makespan, sum);
}

}  // namespace
}  // namespace pvm
