// Platform-level tests: host-CPU pool semantics (emergent oversubscription),
// container wiring per mode, vCPU accounting, and the ctx-switch workload's
// scheme sensitivity.

#include <gtest/gtest.h>

#include "src/backends/platform.h"
#include "src/workloads/lmbench.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm {
namespace {

TEST(HostCpuPoolTest, UncontendedComputeIsPlainDelay) {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  config.host_cpus = 4;
  VirtualPlatform platform(config);
  SecureContainer& c = platform.create_container("c0");
  const SimTime start = platform.sim().now();
  platform.sim().spawn([](SecureContainer& cc) -> Task<void> {
    co_await cc.compute(10 * kNsPerMs);
  }(c));
  platform.sim().run();
  EXPECT_EQ(platform.sim().now() - start, 10 * kNsPerMs);
}

TEST(HostCpuPoolTest, OversubscriptionStretchesComputeProportionally) {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  config.host_cpus = 2;
  VirtualPlatform platform(config);
  SecureContainer& c = platform.create_container("c0");
  // 6 tasks of 10 ms each on 2 CPUs: 30 ms of wall time, and timeslicing
  // means they finish together near the end rather than in 3 serial waves.
  std::vector<SimTime> done(6, 0);
  for (int i = 0; i < 6; ++i) {
    platform.sim().spawn([](SecureContainer& cc, SimTime* out) -> Task<void> {
      co_await cc.compute(10 * kNsPerMs);
      *out = cc.sim().now();
    }(c, &done[i]));
  }
  platform.sim().run();
  const SimTime makespan = platform.sim().now();
  EXPECT_EQ(makespan, 30 * kNsPerMs);
  // Round-robin fairness: nobody finishes before ~28 ms (all interleave).
  for (const SimTime t : done) {
    EXPECT_GE(t, 28 * kNsPerMs);
  }
}

TEST(HostCpuPoolTest, IdleVcpusDoNotOccupyCpus) {
  // A task blocked on I/O must not hold a CPU slot.
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  config.host_cpus = 1;
  VirtualPlatform platform(config);
  SecureContainer& c = platform.create_container("c0");
  platform.sim().spawn(c.boot(4));
  platform.sim().run();

  const SimTime start = platform.sim().now();
  // One I/O-bound task and one compute-bound task: the compute proceeds
  // while the I/O waits on the device, so the makespan is max, not sum.
  platform.sim().spawn([](SecureContainer& cc) -> Task<void> {
    co_await cc.kernel().do_io(cc.vcpu(0), *cc.init_process(), cc.io(), 1024 * 1024);
  }(c));
  platform.sim().spawn([](SecureContainer& cc) -> Task<void> {
    co_await cc.compute(5 * kNsPerMs);
  }(c));
  platform.sim().run();
  const SimTime elapsed = platform.sim().now() - start;
  EXPECT_LT(elapsed, 7 * kNsPerMs);  // far below the ~5ms + io-sum serial case
}

TEST(PlatformTest, VcpuAccountingAndOversubscriptionFactor) {
  PlatformConfig config;
  config.mode = DeployMode::kKvmEptBm;
  config.host_cpus = 4;
  VirtualPlatform platform(config);
  SecureContainer& a = platform.create_container("a");
  SecureContainer& b = platform.create_container("b");
  EXPECT_EQ(platform.total_vcpus(), 0u);
  a.add_vcpu();
  a.add_vcpu();
  b.add_vcpu();
  EXPECT_EQ(platform.total_vcpus(), 3u);
  EXPECT_DOUBLE_EQ(platform.oversubscription_factor(), 1.0);
  for (int i = 0; i < 9; ++i) {
    b.add_vcpu();
  }
  EXPECT_EQ(platform.total_vcpus(), 12u);
  EXPECT_DOUBLE_EQ(platform.oversubscription_factor(), 3.0);
}

TEST(PlatformTest, NestedModesShareOneL1Instance) {
  for (DeployMode mode : {DeployMode::kKvmEptNst, DeployMode::kPvmNst,
                          DeployMode::kSptOnEptNst, DeployMode::kPvmDirectNst}) {
    SCOPED_TRACE(deploy_mode_name(mode));
    PlatformConfig config;
    config.mode = mode;
    VirtualPlatform platform(config);
    ASSERT_NE(platform.l1_vm(), nullptr);
    EXPECT_TRUE(platform.l1_vm()->warm());
    platform.create_container("a");
    platform.create_container("b");
    EXPECT_EQ(platform.l0().vm_count(), 1u);  // one L1 instance, zero L0-visible L2s
  }
}

TEST(PlatformTest, BareMetalModesCreateOneVmPerContainer) {
  for (DeployMode mode : {DeployMode::kKvmEptBm, DeployMode::kKvmSptBm}) {
    SCOPED_TRACE(deploy_mode_name(mode));
    PlatformConfig config;
    config.mode = mode;
    VirtualPlatform platform(config);
    EXPECT_EQ(platform.l1_vm(), nullptr);
    platform.create_container("a");
    platform.create_container("b");
    EXPECT_EQ(platform.l0().vm_count(), 2u);
  }
}

TEST(CtxSwitchTest, ShadowSchemesPayForProcessSwitches) {
  auto measure = [](DeployMode mode) {
    PlatformConfig config;
    config.mode = mode;
    VirtualPlatform platform(config);
    SecureContainer& c = platform.create_container("c0");
    platform.sim().spawn(c.boot(16));
    platform.sim().run();
    std::uint64_t latency = 0;
    platform.sim().spawn([](SecureContainer& cc, std::uint64_t* out) -> Task<void> {
      *out = co_await lmbench_run(cc, cc.vcpu(0), *cc.init_process(), LmbenchOp::kCtxSwitch,
                                  32, LmbenchParams{});
    }(c, &latency));
    platform.sim().run();
    return latency;
  };
  const std::uint64_t ept = measure(DeployMode::kKvmEptBm);
  const std::uint64_t spt = measure(DeployMode::kKvmSptBm);
  const std::uint64_t pvm_nst = measure(DeployMode::kPvmNst);
  const std::uint64_t kvm_nst = measure(DeployMode::kKvmEptNst);
  // EPT switches CR3 untrapped; kvm-spt traps it and loses the TLB; PVM
  // traps it too but cheaply, and PCID mapping keeps the TLB warm.
  EXPECT_LT(ept, pvm_nst);
  EXPECT_LT(pvm_nst, spt);
  EXPECT_EQ(ept, kvm_nst);  // in-guest CR3 write in both
}

TEST(MultiL1Test, ContainersPlaceRoundRobin) {
  PlatformConfig config;
  config.mode = DeployMode::kKvmEptNst;
  config.l1_instances = 3;
  VirtualPlatform platform(config);
  ASSERT_EQ(platform.l1_vms().size(), 3u);
  EXPECT_EQ(platform.l0().vm_count(), 3u);
  for (int i = 0; i < 6; ++i) {
    platform.create_container("c" + std::to_string(i));
  }
  // All three instances became nVMX-active hosts.
  for (HostHypervisor::Vm* vm : platform.l1_vms()) {
    EXPECT_TRUE(vm->nested_vmx_active());
  }
}

TEST(MultiL1Test, ScaleOutSplitsTheL0LockDomain) {
  // The same 8 kvm-ept (NST) containers on 1 vs 4 L1 instances: the per-L1
  // L0 mmu_lock contention drops with scale-out (the real-world mitigation),
  // and total time improves.
  auto run_one = [](int instances) {
    PlatformConfig config;
    config.mode = DeployMode::kKvmEptNst;
    config.l1_instances = instances;
    VirtualPlatform platform(config);
    MemStressParams params;
    params.total_bytes = 4ull << 20;
    const ContainersResult result = run_containers(
        platform, 8,
        [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
          return memstress_process(c, vcpu, proc, params);
        });
    SimTime total_wait = 0;
    for (HostHypervisor::Vm* vm : platform.l1_vms()) {
      total_wait += vm->mmu_lock().lock_class().total_wait_ns();
    }
    return std::pair<double, SimTime>(result.mean_seconds(), total_wait);
  };
  const auto [time_one, wait_one] = run_one(1);
  const auto [time_four, wait_four] = run_one(4);
  EXPECT_LT(time_four, time_one);
  EXPECT_LT(wait_four, wait_one);
}

TEST(MultiL1Test, PvmIsInsensitiveToInstanceCount) {
  // PVM never serializes at L0, so splitting instances changes nothing.
  auto run_one = [](int instances) {
    PlatformConfig config;
    config.mode = DeployMode::kPvmNst;
    config.l1_instances = instances;
    VirtualPlatform platform(config);
    MemStressParams params;
    params.total_bytes = 4ull << 20;
    const ContainersResult result = run_containers(
        platform, 8,
        [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
          return memstress_process(c, vcpu, proc, params);
        });
    return result.mean_seconds();
  };
  const double one = run_one(1);
  const double four = run_one(4);
  // No L0 serialization either way; allow only sub-0.1% placement noise
  // (different warm-EPT01 table shapes alter a handful of walk loads).
  EXPECT_NEAR(four / one, 1.0, 1e-3);
}

}  // namespace
}  // namespace pvm
