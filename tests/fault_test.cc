// pvm::fault: deterministic injection plans, the recovery protocols they
// drive (reclaim, guest OOM kill, migration retry/backoff, VMRESUME retry,
// per-vCPU watchdog), and replay determinism of a faulted run.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "src/backends/platform.h"
#include "src/check/chaos.h"
#include "src/check/simcheck.h"
#include "src/core/memory_engine.h"
#include "src/fault/fault.h"
#include "src/fault/watchdog.h"
#include "src/guest/guest_kernel.h"
#include "src/hv/migration.h"
#include "src/obs/flight.h"
#include "src/obs/ts.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm {
namespace {

std::string plan_signature(const fault::FaultPlan& plan) {
  std::ostringstream sig;
  for (const fault::FaultSpec& spec : plan.specs) {
    sig << fault_kind_name(spec.kind) << ":" << spec.target << ":"
        << spec.trigger.probability << ":" << spec.delay_ns << ":" << spec.capacity_frames
        << ":" << spec.fail_count << ";";
  }
  return sig.str();
}

TEST(FaultPlanTest, PresetsParseAndCarrySeeds) {
  const fault::FaultPlan storm = fault::FaultPlan::parse("bootstorm:seed=7");
  EXPECT_EQ(storm.name, "bootstorm");
  EXPECT_EQ(storm.seed, 7u);
  EXPECT_FALSE(storm.empty());

  EXPECT_TRUE(fault::FaultPlan::parse("none").empty());
  EXPECT_THROW(fault::FaultPlan::parse("no-such-plan"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("bootstorm:sneed=7"), std::invalid_argument);

  for (const std::string_view name : fault::FaultPlan::preset_names()) {
    EXPECT_NO_THROW(fault::FaultPlan::preset(name));
  }
}

TEST(FaultPlanTest, MigrationStallSpellingsRoundTripToCanonicalForm) {
  // Historical drift: the preset was documented "migration-stall" but the
  // kind name prints "migration_stall", and callers used both. Both must
  // parse, and both must normalize to the one canonical plan.
  const fault::FaultPlan dash = fault::FaultPlan::parse("migration-stall");
  const fault::FaultPlan underscore = fault::FaultPlan::parse("migration_stall");
  EXPECT_EQ(dash.name, "migration-stall");
  EXPECT_EQ(underscore.name, "migration-stall");
  EXPECT_EQ(plan_signature(dash), plan_signature(underscore));
  ASSERT_FALSE(dash.specs.empty());
  EXPECT_EQ(dash.specs.front().kind, fault::FaultKind::kMigrationStall);
  // Round trip: the canonical name reparses to itself, seed and all.
  const fault::FaultPlan again = fault::FaultPlan::parse(dash.name + ":seed=9");
  EXPECT_EQ(again.name, "migration-stall");
  EXPECT_EQ(again.seed, 9u);
  EXPECT_EQ(plan_signature(again), plan_signature(dash));
}

TEST(FaultPlanTest, FaultstormPlansAreDeterministicPerSeed) {
  const fault::FaultPlan a = faultstorm_plan(5);
  const fault::FaultPlan b = faultstorm_plan(5);
  EXPECT_EQ(plan_signature(a), plan_signature(b));
  EXPECT_NE(plan_signature(a), plan_signature(faultstorm_plan(6)));
  // Every storm carries the pressure spec that drives the recovery paths,
  // and stays under the retry-loop-safe probability ceiling.
  ASSERT_FALSE(a.specs.empty());
  EXPECT_EQ(a.specs.front().kind, fault::FaultKind::kFramePressure);
  for (const fault::FaultSpec& spec : a.specs) {
    EXPECT_LE(spec.trigger.probability, 0.11);
  }
}

TEST(FaultInjectorTest, FramePressureBlocksAllocateButNotOrThrow) {
  FrameAllocator frames("test.pool", 16);
  fault::FaultInjector injector;
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kFramePressure;
  spec.trigger.probability = 1.0;
  plan.specs.push_back(spec);
  injector.arm(std::move(plan));

  frames.set_faults(&injector);
  EXPECT_FALSE(frames.allocate().has_value());
  // allocate_or_throw is reserved for configuration-bug paths and is
  // deliberately exempt from injection.
  EXPECT_NO_THROW(frames.allocate_or_throw());
  frames.set_faults(nullptr);
  EXPECT_TRUE(frames.allocate().has_value());
}

TEST(FaultInjectorTest, AtOpFiresOnExactlyThatOpportunity) {
  FrameAllocator frames("test.pool", 16);
  fault::FaultInjector injector;
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kFramePressure;
  spec.trigger.at_op = 3;
  plan.specs.push_back(spec);
  injector.arm(std::move(plan));
  frames.set_faults(&injector);

  EXPECT_TRUE(frames.allocate().has_value());
  EXPECT_TRUE(frames.allocate().has_value());
  EXPECT_FALSE(frames.allocate().has_value());  // opportunity 3
  EXPECT_TRUE(frames.allocate().has_value());
  EXPECT_EQ(injector.fired(fault::FaultKind::kFramePressure), 1u);
}

// --- Migration under injected stalls -----------------------------------

struct MigrationFixture {
  Simulation sim;
  CostModel costs;
  CounterSet counters;
  HostHypervisor l0{sim, costs, counters, 1u << 22};
  HostHypervisor::Vm* vm = nullptr;

  explicit MigrationFixture(std::uint64_t resident_pages) {
    vm = &l0.create_vm("vm", 1u << 20, false);
    for (std::uint64_t frame = 0; frame < resident_pages; ++frame) {
      vm->ept().map(frame << kPageShift, frame, PteFlags::rw_kernel());
    }
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

// Dirties `pages` distinct guest pages once per `period` for `bursts`
// periods, through the VM's DirtyTracker — the scripted guest the stall
// tests need to keep pre-copy honest.
Task<void> dirtier(Simulation& sim, HostHypervisor::Vm& vm, std::uint64_t pages, int bursts,
                   SimTime period) {
  for (int burst = 0; burst < bursts; ++burst) {
    co_await sim.delay(period);
    for (std::uint64_t page = 0; page < pages; ++page) {
      vm.dirty_tracker().note_store(0, dirty_page_key(1, page << kPageShift));
    }
  }
}

TEST(MigrationFaultTest, StalledDivergentPreCopyFallsBackToPostCopy) {
  MigrationFixture fx(/*resident_pages=*/8192);
  // The guest re-dirties the same 2000 pages every millisecond — exactly
  // what each round just copied — while every round also eats an injected
  // 1 ms stall. The dirty set never shrinks, convergence control trips
  // after two flat rounds, and kAuto degrades to post-copy: the 2000-page
  // live dirty set becomes remote demand fetches.
  fx.sim.spawn(dirtier(fx.sim, *fx.vm, 2000, /*bursts=*/40, /*period=*/kNsPerMs));
  fault::FaultInjector injector;
  fault::FaultPlan plan;
  fault::FaultSpec stall;
  stall.kind = fault::FaultKind::kMigrationStall;
  stall.trigger.until_ns = 30 * kNsPerMs;
  stall.delay_ns = kNsPerMs;
  plan.specs.push_back(stall);
  injector.arm(std::move(plan));
  fx.sim.set_faults(&injector);

  MigrationParams params;
  params.divergence_rounds = 2;
  const MigrationResult result = fx.migrate(params);

  EXPECT_TRUE(result.succeeded) << result.failure_reason;
  EXPECT_TRUE(result.fell_back_postcopy);
  EXPECT_EQ(result.remote_faults, 2000u);
  EXPECT_EQ(result.downtime, 200 * kNsPerUs);
  EXPECT_EQ(fx.counters.get(Counter::kMigrationFallback), 1u);
  EXPECT_GT(fx.counters.get(Counter::kFaultInjected), 0u);
}

TEST(MigrationFaultTest, InjectedStallsReachFlightRecorderAndTimeseries) {
  // Every stall that fires is counted, recorded as a kFaultInjected flight
  // event named migration_stall, and so reaches the faults_injected series.
  // Declared before the fixture, so they outlive its simulation.
  flight::FlightRecorder recorder;
  recorder.set_capacity(1 << 16);
  ts::Collector collector;
  MigrationFixture fx(/*resident_pages=*/8192);
  fx.sim.set_flight(&recorder);
  fx.sim.set_ts(&collector);
  fx.sim.spawn(dirtier(fx.sim, *fx.vm, 2000, /*bursts=*/40, /*period=*/kNsPerMs));
  fault::FaultInjector injector;
  fault::FaultPlan plan;
  fault::FaultSpec stall;
  stall.kind = fault::FaultKind::kMigrationStall;
  stall.trigger.until_ns = 30 * kNsPerMs;
  stall.delay_ns = kNsPerMs;
  plan.specs.push_back(stall);
  injector.arm(std::move(plan));
  fx.sim.set_faults(&injector);

  const std::uint64_t before = fx.counters.get(Counter::kFaultInjected);
  MigrationParams params;
  params.divergence_rounds = 2;
  fx.migrate(params);
  const std::uint64_t fired = fx.counters.get(Counter::kFaultInjected) - before;
  ASSERT_GT(fired, 0u);

  ASSERT_EQ(recorder.dropped_events(), 0u);
  std::uint64_t recorded = 0;
  for (const flight::Event& event : recorder.merged()) {
    if (event.kind == flight::EventKind::kFaultInjected &&
        recorder.name(event.a) == "migration_stall") {
      EXPECT_EQ(event.b, kNsPerMs);  // the stall's length
      ++recorded;
    }
  }
  EXPECT_EQ(recorded, fired);
  EXPECT_EQ(collector.drain().series.at("faults_injected").total,
            static_cast<std::int64_t>(fired));
}

TEST(MigrationFaultTest, CappedConvergentPreCopyRetriesWithBackoff) {
  MigrationFixture fx(/*resident_pages=*/8192);
  // A dirtying burst (800 pages/ms for 12 ms) small enough to converge
  // every attempt, but big enough that shipping it would blow the 1 ms
  // downtime cap. In kPreCopy mode the engine must back off and retry
  // until the burst has passed, then stop-and-copy inside the cap.
  fx.sim.spawn(dirtier(fx.sim, *fx.vm, 800, /*bursts=*/12, /*period=*/kNsPerMs));
  MigrationParams params;
  params.mode = MigrationMode::kPreCopy;
  params.max_downtime_ns = kNsPerMs;
  params.retry_backoff_ns = 2 * kNsPerMs;
  params.max_retries = 3;
  const MigrationResult result = fx.migrate(params);

  EXPECT_TRUE(result.succeeded) << result.failure_reason;
  EXPECT_FALSE(result.capped);
  EXPECT_FALSE(result.fell_back_postcopy);
  EXPECT_GE(result.retries, 1);
  EXPECT_EQ(fx.counters.get(Counter::kMigrationRetry),
            static_cast<std::uint64_t>(result.retries));
  EXPECT_LE(result.downtime, params.max_downtime_ns);
}

TEST(MigrationFaultTest, DowntimeCapAbortsAfterBoundedRetries) {
  MigrationFixture fx(/*resident_pages=*/8192);
  // Cap below the fixed state-ship pause: no attempt can ever fit, so the
  // engine must burn its bounded retries and abort rather than loop forever
  // (or pause the VM past its budget). kPreCopy — under kAuto a blown cap
  // degrades to post-copy instead of failing (tested elsewhere).
  MigrationParams params;
  params.mode = MigrationMode::kPreCopy;
  params.max_downtime_ns = 100 * kNsPerUs;
  params.retry_backoff_ns = kNsPerMs;
  params.max_retries = 2;
  const MigrationResult result = fx.migrate(params);

  EXPECT_FALSE(result.succeeded);
  EXPECT_TRUE(result.capped);
  EXPECT_EQ(result.retries, params.max_retries);
  EXPECT_EQ(result.downtime, 0u);  // the VM was never paused
  EXPECT_NE(result.failure_reason.find("exceeds cap"), std::string::npos);
}

// --- Watchdog ----------------------------------------------------------

TEST(WatchdogTest, EscalatesKickResetKillInOrderOnWedgedVcpu) {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot());
  platform.sim().run();
  ASSERT_FALSE(container.boot_failed());

  // Nothing runs after boot, so vCPU 0's progress counter never moves: to
  // the watchdog this is indistinguishable from a wedged vCPU, and it must
  // walk the full escalation ladder.
  fault::WatchdogParams params;
  params.check_interval_ns = kNsPerMs;
  fault::Watchdog watchdog(platform, container, params);
  platform.sim().spawn(watchdog.run());
  platform.sim().run();

  ASSERT_TRUE(platform.sim().all_tasks_done());
  EXPECT_TRUE(watchdog.killed());
  ASSERT_EQ(watchdog.events().size(), 3u);
  EXPECT_EQ(watchdog.events()[0].action, "kick");
  EXPECT_EQ(watchdog.events()[1].action, "reset");
  EXPECT_EQ(watchdog.events()[2].action, "kill");
  EXPECT_LT(watchdog.events()[0].when, watchdog.events()[1].when);
  EXPECT_LT(watchdog.events()[1].when, watchdog.events()[2].when);

  EXPECT_EQ(platform.counters().get(Counter::kWatchdogKick), 1u);
  EXPECT_EQ(platform.counters().get(Counter::kWatchdogReset), 1u);
  EXPECT_EQ(platform.counters().get(Counter::kWatchdogKill), 1u);
  ASSERT_TRUE(container.init_process() != nullptr);
  EXPECT_TRUE(container.init_process()->oom_killed());

  // The kill surfaces in the simulation diagnostics (and so in
  // blocked_report) for post-mortems. The OOM kills it triggers add their
  // own diagnostics first, so search the whole list.
  ASSERT_FALSE(platform.sim().diagnostics().empty());
  bool found_watchdog = false;
  for (const std::string& line : platform.sim().diagnostics()) {
    found_watchdog = found_watchdog || line.find("watchdog") != std::string::npos;
  }
  EXPECT_TRUE(found_watchdog);

  // The kill also renders a black-box postmortem from the flight recorder:
  // a human-readable timeline and a pvm.postmortem.v1 JSON document whose
  // tracks include the watchdog escalation events.
  EXPECT_NE(watchdog.postmortem_text().find("flight timeline"), std::string::npos);
  EXPECT_NE(watchdog.postmortem_json().find("\"pvm.postmortem.v1\""), std::string::npos);
  EXPECT_NE(watchdog.postmortem_json().find("\"watchdog\""), std::string::npos);
}

TEST(WatchdogTest, ProgressingVcpuIsNeverEscalated) {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot());
  platform.sim().run();
  ASSERT_FALSE(container.boot_failed());

  fault::WatchdogParams params;
  params.check_interval_ns = 100 * kNsPerUs;
  fault::Watchdog watchdog(platform, container, params);
  platform.sim().spawn(watchdog.run());

  MemStressParams stress;
  stress.total_bytes = 2ull << 20;
  platform.sim().spawn([](SecureContainer& c, fault::Watchdog& wd,
                          MemStressParams p) -> Task<void> {
    co_await memstress_process(c, c.vcpu(0), *c.init_process(), p);
    wd.stop();
  }(container, watchdog, stress));
  platform.sim().run();

  ASSERT_TRUE(platform.sim().all_tasks_done());
  EXPECT_FALSE(watchdog.killed());
  EXPECT_EQ(platform.counters().get(Counter::kWatchdogKill), 0u);
  EXPECT_FALSE(container.init_process()->oom_killed());
}

// --- Reclaim and guest OOM kill under pressure -------------------------

TEST(ReclaimTest, ReclaimUnderPressureKeepsShadowCoherent) {
  for (const bool fine : {true, false}) {
    SCOPED_TRACE(fine ? "fine-grained" : "coarse");
    fault::FaultInjector injector;  // outlives the platform (raw pointers)
    PlatformConfig config;
    config.mode = DeployMode::kPvmNst;
    config.fine_grained_locks = fine;
    config.coherence_oracle = true;
    VirtualPlatform platform(config);
    SecureContainer& container = platform.create_container("c0");
    platform.sim().spawn(container.boot());
    platform.sim().run();
    ASSERT_FALSE(container.boot_failed());

    // Arm pressure on the L1 instance's backing pool only after boot, so
    // there is always a colder shadow page to steal: every refused backing
    // allocation must be absorbed by the reclaim protocol, not an OOM kill.
    fault::FaultPlan plan;
    fault::FaultSpec pressure;
    pressure.kind = fault::FaultKind::kFramePressure;
    pressure.target = "l1-instance";
    pressure.trigger.probability = 0.5;
    plan.specs.push_back(pressure);
    injector.arm(std::move(plan));
    platform.arm_faults(&injector);

    MemStressParams stress;
    stress.total_bytes = 1ull << 20;
    run_processes_in_container(platform, container, 2,
                               [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
                                 return memstress_process(container, vcpu, proc, stress);
                               });

    ASSERT_TRUE(platform.sim().all_tasks_done());
    EXPECT_GT(platform.counters().get(Counter::kFrameReclaim), 0u);
    EXPECT_GT(platform.counters().get(Counter::kFramesReclaimed), 0u);
    // Quiescent point: zap-and-refault must have left shadow, rmap, and
    // guest tables agreeing exactly.
    PvmMemoryEngine* engine = container.shadow_engine();
    ASSERT_TRUE(engine != nullptr);
    EXPECT_NO_THROW(engine->verify_coherence(engine->coherence_oracle_strict()));
  }
}

TEST(ReclaimTest, ExhaustedContainerOomKillsButSimulationSurvives) {
  fault::FaultInjector injector;  // outlives the platform (raw pointers)
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);

  // Hard ceiling on the container's own allocator, low enough that the
  // workload cannot fit: the guest kernel must shed processes, not wedge.
  fault::FaultPlan plan;
  fault::FaultSpec ceiling;
  ceiling.kind = fault::FaultKind::kFrameExhaust;
  ceiling.target = "c0.gpa";
  ceiling.capacity_frames = 200;
  plan.specs.push_back(ceiling);
  injector.arm(std::move(plan));
  platform.arm_faults(&injector);

  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot());
  platform.sim().run();
  ASSERT_TRUE(platform.sim().all_tasks_done());
  ASSERT_FALSE(container.boot_failed());

  MemStressParams stress;
  stress.total_bytes = 4ull << 20;
  platform.sim().spawn(
      memstress_process(container, container.vcpu(0), *container.init_process(), stress));
  platform.sim().run();

  // The workload cannot complete in full, but nothing deadlocks and the
  // kernel's OOM killer fired instead of the allocator throwing.
  EXPECT_TRUE(platform.sim().all_tasks_done());
  EXPECT_GT(platform.counters().get(Counter::kGuestOomKill), 0u);
}

// --- VMRESUME retry ----------------------------------------------------

TEST(VmresumeFaultTest, TransientFailureBurstIsRetriedExactly) {
  fault::FaultInjector injector;  // outlives the platform (raw pointers)
  PlatformConfig config;
  config.mode = DeployMode::kKvmEptNst;
  VirtualPlatform platform(config);

  fault::FaultPlan plan;
  fault::FaultSpec resume;
  resume.kind = fault::FaultKind::kVmresumeFail;
  resume.trigger.at_op = 1;  // exactly the first VMRESUME...
  resume.fail_count = 3;     // ...fails three consecutive launches
  plan.specs.push_back(resume);
  injector.arm(std::move(plan));
  platform.arm_faults(&injector);

  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot());
  platform.sim().run();

  ASSERT_TRUE(platform.sim().all_tasks_done());
  EXPECT_FALSE(container.boot_failed());
  EXPECT_EQ(platform.counters().get(Counter::kVmresumeRetry), 3u);
}

// --- Whole-run determinism under a faultstorm --------------------------

TEST(FaultDeterminismTest, FaultstormCaseReplaysBitForBit) {
  SimcheckCase c;
  c.mode = DeployMode::kPvmNst;
  c.policy = SchedulePolicy::kRandom;
  c.schedule_seed = 7;
  c.chaos = true;
  c.chaos_seed = 24;
  c.faults = true;
  c.fault_seed = 30;

  const SimcheckResult a = run_simcheck_case(c);
  const SimcheckResult b = run_simcheck_case(c);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fills, b.fills);
  EXPECT_EQ(a.fill_races, b.fill_races);
  EXPECT_EQ(a.shadow_frames, b.shadow_frames);
  EXPECT_GT(a.events, 0u);
}

}  // namespace
}  // namespace pvm
