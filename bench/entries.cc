#include "bench/entries.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "src/backends/platform.h"
#include "src/core/switcher.h"
#include "src/fault/fault.h"
#include "src/hv/host_hypervisor.h"
#include "src/hv/migration.h"
#include "src/obs/metrics_json.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/obs/ts.h"
#include "src/workloads/lmbench.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm::bench {

namespace {

constexpr int kSwitchIterations = 10000;

inline double to_us(SimTime ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

double switch_single_level_us(const EntryHooks& hooks) {
  Simulation sim;
  hooks.on_sim(sim);
  CostModel costs;
  CounterSet counters;
  HostHypervisor l0(sim, costs, counters, 1u << 20);
  HostHypervisor::Vm& vm = l0.create_vm("vm", 1u << 16, false);

  const SimTime start = sim.now();
  sim.spawn([](HostHypervisor& hv, HostHypervisor::Vm& v) -> Task<void> {
    for (int i = 0; i < kSwitchIterations; ++i) {
      co_await hv.exit_roundtrip(v, ExitKind::kHypercall);
    }
  }(l0, vm));
  sim.run();
  // A round trip is two world switches (exit + entry).
  const double us = to_us(sim.now() - start) / (2.0 * kSwitchIterations);
  hooks.record("single_level", sim, counters, {{"us_per_switch", us}});
  return us;
}

double switch_pvm_us(const EntryHooks& hooks) {
  Simulation sim;
  hooks.on_sim(sim);
  CostModel costs;
  CounterSet counters;
  Switcher switcher(sim, costs, counters);

  const SimTime start = sim.now();
  sim.spawn([](Switcher& s) -> Task<void> {
    SwitcherState state;
    VcpuState vcpu;
    for (int i = 0; i < kSwitchIterations; ++i) {
      co_await s.to_hypervisor(state, vcpu, SwitchReason::kHypercall);
      co_await s.enter_guest(state, vcpu, VirtRing::kVRing3);
    }
  }(switcher));
  sim.run();
  const double us = to_us(sim.now() - start) / (2.0 * kSwitchIterations);
  hooks.record("pvm_switcher", sim, counters, {{"us_per_switch", us}});
  return us;
}

double switch_nested_us(const EntryHooks& hooks) {
  Simulation sim;
  hooks.on_sim(sim);
  CostModel costs;
  CounterSet counters;
  HostHypervisor l0(sim, costs, counters, 1u << 20);
  HostHypervisor::Vm& l1 = l0.create_vm("l1", 1u << 16, true);

  const SimTime start = sim.now();
  sim.spawn([](HostHypervisor& hv, HostHypervisor::Vm& vm) -> Task<void> {
    HostHypervisor::NestedVcpu vcpu;
    for (int i = 0; i < kSwitchIterations; ++i) {
      // One L2-to-L1 transition (forward) + one L1-to-L2 (emulated resume).
      co_await hv.nested_forward_exit_to_l1(vm, vcpu, ExitKind::kHypercall);
      co_await hv.nested_resume_l2(vm, vcpu);
    }
  }(l0, l1));
  sim.run();
  const double us = to_us(sim.now() - start) / (2.0 * kSwitchIterations);
  hooks.record("nested_l2_l1", sim, counters, {{"us_per_switch", us}});
  return us;
}

double syscall_getpid_us(const std::string& label, const PlatformConfig& config,
                         const EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  SecureContainer& c = platform.create_container("c0");
  platform.sim().spawn(c.boot(8));
  platform.sim().run();

  std::uint64_t latency = 0;
  platform.sim().spawn([](SecureContainer& cc, std::uint64_t* out) -> Task<void> {
    *out = co_await lmbench_run(cc, cc.vcpu(0), *cc.init_process(), LmbenchOp::kGetPid, 4000,
                                LmbenchParams{});
  }(c, &latency));
  platform.sim().run();
  const double us = to_us(latency);
  hooks.record(label, platform.sim(), platform.counters(), {{"getpid_us", us}});
  return us;
}

std::uint64_t lmbench_latency_ns(const std::string& label, const PlatformConfig& config,
                                 LmbenchOp op, int iterations, int boot_pages,
                                 const EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  SecureContainer& c = platform.create_container("c0");
  platform.sim().spawn(c.boot(boot_pages));
  platform.sim().run();
  std::uint64_t latency = 0;
  platform.sim().spawn([](SecureContainer& cc, LmbenchOp o, int iters,
                          std::uint64_t* out) -> Task<void> {
    *out = co_await lmbench_run(cc, cc.vcpu(0), *cc.init_process(), o, iters, LmbenchParams{});
  }(c, op, iterations, &latency));
  platform.sim().run();
  hooks.record(label, platform.sim(), platform.counters(), {{"latency_us", to_us(latency)}});
  return latency;
}

double pagefault_mean_seconds(const std::string& label, const PlatformConfig& config,
                              int processes, const MemStressParams& params,
                              const EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot(16));
  platform.sim().run();

  const ConcurrentResult result = run_processes_in_container(
      platform, container, processes,
      [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return memstress_process(container, vcpu, proc, params);
      });
  hooks.record(label, platform.sim(), platform.counters(),
               {{"mean_seconds", result.mean_seconds()}});
  return result.mean_seconds();
}

BootStormStats boot_storm(const std::string& label, const PlatformConfig& config,
                          int containers, const EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  std::vector<SecureContainer*> all;
  for (int i = 0; i < containers; ++i) {
    all.push_back(&platform.create_container("c" + std::to_string(i)));
  }
  for (SecureContainer* container : all) {
    platform.sim().spawn(container->boot(96));
  }
  platform.sim().run();

  std::vector<SimTime> latencies;
  for (SecureContainer* container : all) {
    latencies.push_back(container->boot_latency());
  }
  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](double q) {
    return static_cast<double>(latencies[static_cast<std::size_t>(
               q * static_cast<double>(latencies.size() - 1))]) /
           1e6;
  };
  const BootStormStats stats{at(0.50), at(0.99), at(1.0)};
  hooks.record(label, platform.sim(), platform.counters(),
               {{"p50_ms", stats.p50_ms}, {"p99_ms", stats.p99_ms},
                {"worst_ms", stats.worst_ms}});
  return stats;
}

MigrationBenchStats migration_stats(const std::string& label, const PlatformConfig& config,
                                    DirtyProtocol protocol, const EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  SecureContainer& c = platform.create_container("c0");
  platform.sim().spawn(c.boot(16));
  platform.sim().run();

  // The migratable unit: the shared L1 instance in nested modes, the
  // container's own L0 VM in bare-metal modes. pvm (BM) runs under the PVM
  // hypervisor with no L0 VM at all — nothing for L0 to migrate.
  HostHypervisor::Vm* vm = platform.l1_vm();
  if (vm == nullptr) {
    vm = c.host_vm();
  }
  MigrationBenchStats stats;
  MigrationResult result;
  if (vm != nullptr && !c.boot_failed()) {
    // Keep the guest dirtying while the pre-copy rounds stream, so the
    // tracker protocol earns its keep (and its costs).
    MemStressParams params;
    params.total_bytes = 8ull << 20;
    MigrationEngine engine(platform.l0());
    MigrationParams mparams;
    mparams.protocol = protocol;
    platform.sim().spawn(memstress_process(c, c.vcpu(0), *c.init_process(), params));
    platform.sim().spawn([](MigrationEngine& e, HostHypervisor::Vm& v,
                            const MigrationParams& p, MigrationResult* out) -> Task<void> {
      *out = co_await e.migrate(v, p);
    }(engine, *vm, mparams, &result));
    platform.sim().run();
  }

  stats.succeeded = result.succeeded;
  stats.fell_back_postcopy = result.fell_back_postcopy;
  stats.rounds = static_cast<double>(result.rounds);
  stats.pages_copied = static_cast<double>(result.pages_copied);
  stats.pages_dirtied = static_cast<double>(result.pages_dirtied);
  stats.wp_faults = static_cast<double>(result.wp_faults);
  stats.pml_appends = static_cast<double>(result.pml_appends);
  stats.pml_flushes = static_cast<double>(result.pml_flushes);
  stats.remote_faults = static_cast<double>(result.remote_faults);
  stats.downtime_us = static_cast<double>(result.downtime) / 1e3;
  stats.total_ms = static_cast<double>(result.total_time) / 1e6;
  hooks.record(label, platform.sim(), platform.counters(),
               {{"succeeded", stats.succeeded ? 1.0 : 0.0},
                {"fell_back_postcopy", stats.fell_back_postcopy ? 1.0 : 0.0},
                {"rounds", stats.rounds},
                {"pages_copied", stats.pages_copied},
                {"pages_dirtied", stats.pages_dirtied},
                {"wp_faults", stats.wp_faults},
                {"pml_appends", stats.pml_appends},
                {"pml_flushes", stats.pml_flushes},
                {"remote_faults", stats.remote_faults},
                {"downtime_us", stats.downtime_us},
                {"total_ms", stats.total_ms}});
  return stats;
}

const std::vector<std::string>& matrix_workloads() {
  static const std::vector<std::string> kWorkloads = {"switch", "syscall", "pagefault",
                                                      "boot", "migration"};
  return kWorkloads;
}

CellOutcome run_workload_cell(const std::string& workload, const CellConfig& cell) {
  CellOutcome outcome;

  // Everything a cell touches is local to this call: its own export, its own
  // injector, its own platform. The injector is declared before the hooks so
  // it outlives any platform armed through them.
  obs::BenchExport cell_export("pvm-matrix/" + workload);
  fault::FaultInjector injector;
  ts::Collector collector;
  if (cell.timeseries && cell.ts_window_ns != 0) {
    collector.set_window(cell.ts_window_ns);
  }
  const bool want_faults = !cell.fault_plan.empty() && cell.fault_plan != "none";

  // Per-sim span recorders for --profile, all cell-local. The recorders must
  // outlive the workload body (sims fold at record time, while alive).
  prof::ProfDoc cell_profile;
  std::vector<std::unique_ptr<obs::SpanRecorder>> recorders;
  std::map<const Simulation*, obs::SpanRecorder*> recorder_by_sim;
  const auto attach_profile = [&](Simulation& sim) {
    if (!cell.profile) {
      return;
    }
    recorders.push_back(std::make_unique<obs::SpanRecorder>());
    recorders.back()->set_enabled(true);
    sim.set_spans(recorders.back().get());
    recorder_by_sim[&sim] = recorders.back().get();
  };

  EntryHooks hooks;
  hooks.record = [&](const std::string& label, Simulation& sim, CounterSet& counters,
                     std::vector<std::pair<std::string, double>> values) {
    // Every current workload records each simulation exactly once, so the
    // sum over record calls is the cell's total event count.
    outcome.events += sim.events_processed();
    cell_export.add_run(label, sim, counters, /*recorder=*/nullptr, std::move(values));
    if (const auto it = recorder_by_sim.find(&sim); it != recorder_by_sim.end()) {
      prof::merge_profile(&cell_profile,
                          prof::prefix_profile(prof::fold_profile(*it->second), label + "/"),
                          nullptr);
    }
  };
  hooks.on_sim = [&](Simulation& sim) {
    sim.set_schedule_policy(cell.policy, cell.schedule_seed);
    if (cell.timeseries) {
      sim.set_ts(&collector);
    }
    attach_profile(sim);
  };
  hooks.on_platform = [&](VirtualPlatform& platform) {
    if (cell.timeseries) {
      platform.sim().set_ts(&collector);
    }
    attach_profile(platform.sim());
    if (want_faults) {
      injector.arm(fault::FaultPlan::parse(cell.fault_plan));
      platform.arm_faults(&injector);
    }
  };

  PlatformConfig config;
  config.mode = cell.mode;
  config.schedule_policy = cell.policy;
  config.schedule_seed = cell.schedule_seed;

  try {
    if (workload == "switch") {
      switch_single_level_us(hooks);
      switch_pvm_us(hooks);
      switch_nested_us(hooks);
    } else if (workload == "syscall") {
      syscall_getpid_us("getpid", config, hooks);
    } else if (workload == "pagefault") {
      // Small fixed size: a matrix cell is a smoke-scale sample of the
      // fig10 workload, not a reproduction of its 32 MiB sweep.
      MemStressParams params;
      params.total_bytes = 4ull << 20;
      pagefault_mean_seconds("pagefault", config, /*processes=*/2, params, hooks);
    } else if (workload == "boot") {
      boot_storm("bootstorm", config, /*containers=*/8, hooks);
    } else if (workload == "migration") {
      // Both dirty-tracking protocols, so one matrix document carries the
      // WP-vs-PML cost comparison per mode (and benchdiff can gate on it).
      migration_stats("migration_wp", config, DirtyProtocol::kWriteProtect, hooks);
      migration_stats("migration_pml", config, DirtyProtocol::kPml, hooks);
    } else {
      outcome.error = "unknown workload '" + workload + "'";
      return outcome;
    }
  } catch (const std::exception& e) {
    outcome.error = e.what();
    return outcome;
  }
  outcome.ok = true;
  outcome.bench_json = cell_export.to_json();
  if (cell.timeseries) {
    outcome.ts_json = ts::render_timeseries_json(ts::prefix_timeseries(
        collector.drain(),
        std::string(deploy_mode_token(cell.mode)) + "/" + workload + "/"));
  }
  if (cell.profile) {
    outcome.profile_json = prof::render_profile_json(prof::prefix_profile(
        cell_profile, std::string(deploy_mode_token(cell.mode)) + "/" + workload + "/"));
  }
  return outcome;
}

}  // namespace pvm::bench
