// Nested-cloud comparison: deploy N secure containers on one leased L1
// instance under kvm-ept (EPT-on-EPT) and under PVM, run the same
// memory-heavy workload in each, and compare completion times plus the L0
// hypervisor's involvement — the paper's core deployment story in one run.
//
// Usage: nested_cloud [containers]   (default 8)

#include <cstdio>
#include <cstdlib>

#include "src/hv/migration.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

using namespace pvm;

namespace {

struct Outcome {
  double mean_seconds;
  unsigned long long l0_exits;
  unsigned long long world_switches;
  double l0_lock_wait_ms;
  MigrationResult migration;
};

Outcome run_mode(DeployMode mode, int containers) {
  PlatformConfig config;
  config.mode = mode;
  VirtualPlatform platform(config);

  MemStressParams params;
  params.total_bytes = 16ull << 20;  // 16 MiB per container

  const ContainersResult result = run_containers(
      platform, containers,
      [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return memstress_process(c, vcpu, proc, params);
      });

  Outcome outcome;
  outcome.mean_seconds = result.mean_seconds();
  outcome.l0_exits = platform.counters().get(Counter::kL0Exit);
  outcome.world_switches = platform.counters().get(Counter::kWorldSwitch);
  outcome.l0_lock_wait_ms =
      platform.l1_vm() != nullptr
          ? static_cast<double>(platform.l1_vm()->mmu_lock().lock_class().total_wait_ns()) / 1e6
          : 0.0;

  // §2.3's management story: can the cloud still live-migrate the L1
  // instance while the containers run on it?
  MigrationEngine engine(platform.l0());
  platform.sim().spawn([](MigrationEngine& e, HostHypervisor::Vm& vm,
                          MigrationResult* out) -> Task<void> {
    *out = co_await e.migrate(vm);
  }(engine, *platform.l1_vm(), &outcome.migration));
  platform.sim().run();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const int containers = argc > 1 ? std::atoi(argv[1]) : 8;

  std::printf("Deploying %d secure containers on one leased L1 instance,\n", containers);
  std::printf("16 MiB of fresh memory touched per container.\n\n");

  const Outcome kvm = run_mode(DeployMode::kKvmEptNst, containers);
  const Outcome pvm_result = run_mode(DeployMode::kPvmNst, containers);

  std::printf("%-22s %14s %14s\n", "", "kvm-ept (NST)", "pvm (NST)");
  std::printf("%-22s %14.4f %14.4f\n", "mean time (s)", kvm.mean_seconds,
              pvm_result.mean_seconds);
  std::printf("%-22s %14llu %14llu\n", "exits to L0", kvm.l0_exits, pvm_result.l0_exits);
  std::printf("%-22s %14llu %14llu\n", "world switches", kvm.world_switches,
              pvm_result.world_switches);
  std::printf("%-22s %14.2f %14.2f\n", "L0 mmu_lock wait (ms)", kvm.l0_lock_wait_ms,
              pvm_result.l0_lock_wait_ms);
  std::printf("%-22s %14s %14s\n", "L1 live migration",
              kvm.migration.succeeded ? "ok" : "REFUSED",
              pvm_result.migration.succeeded ? "ok" : "REFUSED");
  if (pvm_result.migration.succeeded) {
    std::printf("%-22s %14s %12.1f ms\n", "  (pvm downtime)", "",
                static_cast<double>(pvm_result.migration.downtime) / 1e6);
  }
  std::printf("\nspeedup from PVM: %.2fx, with %.0fx fewer L0 exits\n",
              kvm.mean_seconds / pvm_result.mean_seconds,
              pvm_result.l0_exits > 0
                  ? static_cast<double>(kvm.l0_exits) / static_cast<double>(pvm_result.l0_exits)
                  : 0.0);
  std::printf("PVM handles every L2 page fault inside the L1 instance; the only\n");
  std::printf("L0 exits left are interrupt injections and the I/O path.\n");
  return 0;
}
