#include "src/check/simcheck.h"

#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/sweep/sweep.h"
#include "src/wal/wal.h"

#include "src/backends/platform.h"
#include "src/guest/guest_kernel.h"
#include "src/metrics/report.h"
#include "src/obs/contention.h"
#include "src/obs/flight.h"
#include "src/workloads/memstress.h"

namespace pvm {

namespace {

std::string case_label(const SimcheckCase& c) {
  std::ostringstream label;
  label << deploy_mode_name(c.mode) << " policy=" << schedule_policy_name(c.policy)
        << " seed=" << c.schedule_seed;
  if (deploy_mode_is_pvm(c.mode)) {
    label << " locks=" << (c.fine_grained_locks ? "fine" : "coarse")
          << " prefault=" << (c.prefault ? "on" : "off")
          << " pcid=" << (c.pcid_mapping ? "on" : "off");
  }
  if (c.faults) {
    label << " faultstorm-seed=" << c.fault_seed;
  }
  return label.str();
}

}  // namespace

std::string simcheck_reproduce_line(const SimcheckCase& c) {
  std::ostringstream line;
  line << "simcheck --modes " << deploy_mode_token(c.mode) << " --policies "
       << schedule_policy_name(c.policy) << " --seeds 1 --first-seed " << c.schedule_seed
       << (c.chaos ? "" : " --no-chaos") << (c.faults ? "" : " --no-faults");
  if (c.flight_capacity != 0) {
    // Only when overridden: the default spelling stays stable for the
    // golden reproduce-line checks.
    line << " --flight-capacity " << c.flight_capacity;
  }
  return line.str();
}

SimcheckResult run_simcheck_case(const SimcheckCase& c) {
  SimcheckResult result;
  // Failure diagnosis: the counter table says *what* the protocol did up to
  // the failure, the contention table says *where* tasks were queued — both
  // deterministic, so they describe the failing interleaving exactly. The
  // platform outlives the try so the catch blocks can capture too. The
  // injector is declared before the platform: platform members keep raw
  // pointers to it, so it must be destroyed after them.
  fault::FaultInjector injector;
  std::unique_ptr<VirtualPlatform> platform;
  const auto capture_profile = [&result, &platform, &c](std::string_view reason) {
    if (platform == nullptr) {
      return;
    }
    result.profile =
        render_counter_report(platform->counters()) + "\n" +
        obs::render_top_resources(obs::collect_resource_stats(platform->sim()), 8);
    // The black-box dump for this failing interleaving; the embedded
    // reproduce line replays it bit-for-bit, dump included.
    result.postmortem_text =
        flight::render_flight_timeline(platform->flight(), &platform->sim());
    result.postmortem_json = flight::render_postmortem_json(
        platform->flight(), &platform->sim(), reason, simcheck_reproduce_line(c));
  };
  try {
    PlatformConfig config;
    config.mode = c.mode;
    config.fine_grained_locks = c.fine_grained_locks;
    config.prefault = c.prefault;
    config.pcid_mapping = c.pcid_mapping;
    config.schedule_policy = c.policy;
    config.schedule_seed = c.schedule_seed;
    config.coherence_oracle = true;

    platform = std::make_unique<VirtualPlatform>(config);
    if (c.flight_capacity != 0) {
      // Before any track records: capacity binds at a track's first event.
      platform->flight().set_capacity(c.flight_capacity);
    }
    if (c.faults) {
      injector.arm(faultstorm_plan(c.fault_seed));
      platform->arm_faults(&injector);
    }
    Simulation& sim = platform->sim();
    SecureContainer& container = platform->create_container("simcheck");
    sim.spawn(container.boot(), "boot");
    sim.run();
    if (!sim.all_tasks_done()) {
      result.ok = false;
      result.failure = "deadlock during boot\n" + sim.blocked_report();
      capture_profile("deadlock during boot");
      return result;
    }

    // Stage 1: one worker process per vCPU (vCPU 0 boots the container and
    // keeps init; workers start at vCPU 1).
    std::vector<Vcpu*> vcpus;
    std::vector<GuestProcess*> procs(c.processes, nullptr);
    for (int i = 0; i < c.processes; ++i) {
      vcpus.push_back(&container.add_vcpu());
    }
    for (int i = 0; i < c.processes; ++i) {
      sim.spawn([](GuestKernel& kernel, Vcpu& vcpu, GuestProcess** out) -> Task<void> {
        *out = co_await kernel.create_init_process(vcpu, /*resident_pages=*/16);
      }(container.kernel(), *vcpus[i], &procs[i]),
                "create#" + std::to_string(i));
    }
    sim.run();
    if (!sim.all_tasks_done()) {
      result.ok = false;
      result.failure = "deadlock during process creation\n" + sim.blocked_report();
      capture_profile("deadlock during process creation");
      return result;
    }

    // Stage 2: concurrent memstress bodies plus the fault-injection agents.
    // The agents borrow the worker processes, so exits wait for stage 3.
    for (int i = 0; i < c.processes; ++i) {
      MemStressParams stress;
      stress.total_bytes = c.memstress_bytes;
      stress.chunk_bytes = 256ull << 10;
      stress.seed = c.schedule_seed * 1000003ull + static_cast<std::uint64_t>(i) + 1;
      sim.spawn(memstress_process(container, *vcpus[i], *procs[i], stress),
                "memstress#" + std::to_string(i));
      if (c.chaos) {
        // Dense storm: short intervals so zaps land inside fill windows (the
        // kSptFillRaced abort paths), long enough to overlap most of the run.
        ChaosParams agent;
        agent.seed = c.chaos_seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i);
        // Tuned so even the slowest backend's bounded fault-retry loop makes
        // progress between zaps of the same page (denser per-page zaps can
        // livelock spt-on-ept's 24-attempt loop — real behavior, but not the
        // protocol property under test); bulk zaps drive the fill races.
        agent.rounds = 60;
        agent.interval_ns = 4 * kNsPerUs;
        agent.zap_probability = 0.25;
        agent.bulk_zap_probability = 0.2;
        sim.spawn(chaos_zap_storm(container, *vcpus[i], *procs[i], agent),
                  "zapstorm#" + std::to_string(i));
        // The process's "second thread" on its own vCPU: its refaults after
        // storm zaps are the fills that can race a concurrent bulk zap.
        sim.spawn(chaos_retouch(container, container.add_vcpu(), *procs[i], agent),
                  "retouch#" + std::to_string(i));
      }
    }
    if (c.chaos) {
      ChaosParams churn;
      churn.seed = c.chaos_seed;
      sim.spawn(chaos_process_churn(container, container.vcpu(0), churn), "churn");
    }
    sim.run();
    if (!sim.all_tasks_done()) {
      result.ok = false;
      result.failure = "deadlock in workload/chaos stage\n" + sim.blocked_report();
      capture_profile("deadlock in workload/chaos stage");
      return result;
    }

    // Stage 3: concurrent worker exits — three address-space teardowns
    // contending on the engine's structural lock.
    for (int i = 0; i < c.processes; ++i) {
      sim.spawn(container.kernel().sys_exit(*vcpus[i], *procs[i]),
                "exit#" + std::to_string(i));
    }
    sim.run();
    if (!sim.all_tasks_done()) {
      result.ok = false;
      result.failure = "deadlock in teardown stage\n" + sim.blocked_report();
      capture_profile("deadlock in teardown stage");
      return result;
    }

    // Quiescent point: every task drained, so the strict guest-PT agreement
    // check is sound (unless the backend defers sync, which the platform
    // already encoded in the oracle's strictness).
    if (PvmMemoryEngine* engine = container.shadow_engine()) {
      if (c.debug_corrupt_from_seed != 0 && c.schedule_seed >= c.debug_corrupt_from_seed) {
        // Test hook: plant one deterministic violation for the oracle to
        // find, so sweep tests can compare serial and parallel triage on a
        // known-failing matrix.
        engine->debug_plant_violation();
      }
      engine->verify_coherence(engine->coherence_oracle_strict());
      result.shadow_frames = engine->shadow_table_frames();
    }

    result.events = sim.events_processed();
    result.fills = platform->counters().get(Counter::kSptEntryFilled);
    result.fill_races = platform->counters().get(Counter::kSptFillRaced);
  } catch (const SptCoherenceError& e) {
    result.ok = false;
    result.failure = std::string("coherence violation: ") + e.what();
    capture_profile("coherence violation");
  } catch (const std::exception& e) {
    result.ok = false;
    result.failure = std::string("exception: ") + e.what();
    capture_profile("exception");
  }
  return result;
}

namespace {

SimcheckCase sweep_case(const SweepOptions& options, DeployMode mode, SchedulePolicy policy,
                        int seed_index) {
  const std::uint64_t seed = options.first_seed + static_cast<std::uint64_t>(seed_index);
  SimcheckCase c;
  c.mode = mode;
  c.policy = policy;
  c.schedule_seed = seed;
  // Cycle the PVM ablations from the seed so a sweep covers the
  // lock-granularity x prefault x PCID cross-product without
  // multiplying the run count. Non-PVM engines read the same Options,
  // so the cycling exercises their configurations too.
  c.fine_grained_locks = (seed & 1) != 0;
  c.prefault = (seed & 2) != 0;
  c.pcid_mapping = (seed & 4) != 0;
  c.chaos = options.chaos;
  c.chaos_seed = seed + 17;
  c.faults = options.faults;
  c.fault_seed = seed + 23;
  c.processes = options.processes;
  c.memstress_bytes = options.memstress_bytes;
  c.flight_capacity = options.flight_capacity;
  c.debug_corrupt_from_seed = options.debug_corrupt_from_seed;
  return c;
}

// Everything that changes what a case computes, so a stale checkpoint from a
// different sweep never splices wrong results into the report.
std::string sweep_fingerprint(const SweepOptions& options) {
  std::string fp = "pvm.simcheck.v1;modes=";
  for (const DeployMode mode : options.modes) {
    fp += deploy_mode_name(mode);
    fp += ',';
  }
  fp += ";policies=";
  for (const SchedulePolicy policy : options.policies) {
    fp += schedule_policy_name(policy);
    fp += ',';
  }
  fp += ";seeds=" + std::to_string(options.seeds);
  fp += ";first_seed=" + std::to_string(options.first_seed);
  fp += ";chaos=" + std::string(options.chaos ? "1" : "0");
  fp += ";faults=" + std::string(options.faults ? "1" : "0");
  fp += ";processes=" + std::to_string(options.processes);
  fp += ";memstress=" + std::to_string(options.memstress_bytes);
  fp += ";flight=" + std::to_string(options.flight_capacity);
  fp += ";verbose=" + std::string(options.verbose ? "1" : "0");
  fp += ";corrupt_from=" + std::to_string(options.debug_corrupt_from_seed);
  return fp;
}

std::string encode_case_result(const SimcheckResult& r) {
  std::string payload;
  wal::put_u32(payload, r.ok ? 1 : 0);
  wal::put_string(payload, r.failure);
  wal::put_string(payload, r.profile);
  wal::put_string(payload, r.postmortem_text);
  wal::put_string(payload, r.postmortem_json);
  wal::put_u64(payload, r.events);
  wal::put_u64(payload, r.fills);
  wal::put_u64(payload, r.fill_races);
  wal::put_u64(payload, r.shadow_frames);
  return payload;
}

bool decode_case_result(std::string_view payload, SimcheckResult* r) {
  std::size_t cursor = 0;
  std::uint32_t ok = 0;
  if (!wal::get_u32(payload, &cursor, &ok) ||
      !wal::get_string(payload, &cursor, &r->failure) ||
      !wal::get_string(payload, &cursor, &r->profile) ||
      !wal::get_string(payload, &cursor, &r->postmortem_text) ||
      !wal::get_string(payload, &cursor, &r->postmortem_json) ||
      !wal::get_u64(payload, &cursor, &r->events) || !wal::get_u64(payload, &cursor, &r->fills) ||
      !wal::get_u64(payload, &cursor, &r->fill_races) ||
      !wal::get_u64(payload, &cursor, &r->shadow_frames)) {
    return false;
  }
  r->ok = ok != 0;
  return true;
}

}  // namespace

int run_simcheck_sweep(const SweepOptions& options, std::ostream& out) {
  struct Combo {
    DeployMode mode;
    SchedulePolicy policy;
  };
  std::vector<Combo> combos;
  for (const DeployMode mode : options.modes) {
    for (const SchedulePolicy policy : options.policies) {
      combos.push_back({mode, policy});
    }
  }
  const std::size_t seeds = static_cast<std::size_t>(options.seeds);
  const int jobs =
      options.jobs == 0 ? sweep::default_jobs() : sweep::effective_jobs(options.jobs);

  // Parallel phase: every (combo, seed) case is an isolated Simulation, so
  // workers claim them from a shared cursor and stash results per index.
  // Triage economy: once a seed of a combination has failed, the
  // combination's *larger* seeds are skipped (their results could never be
  // printed — the merge below stops at the minimal failing seed). Smaller
  // seeds always run, so the minimal failing seed is exact, not a race
  // winner.
  std::vector<std::vector<std::optional<SimcheckResult>>> results(
      combos.size(), std::vector<std::optional<SimcheckResult>>(seeds));

  // Checkpoint-resume: replay finished cases into their slots (a torn tail
  // costs only the cases it cut), then append each fresh case as it
  // completes. Because cases are deterministic and the report merges by
  // index, a resumed sweep prints byte-identically to an uninterrupted one.
  // An unreadable or stale file is not fatal: the sweep is the authority,
  // so it warns and starts fresh, overwriting the file at once.
  std::optional<wal::ResumeLog> checkpoint;
  if (!options.checkpoint_path.empty()) {
    const std::string& path = options.checkpoint_path;
    checkpoint.emplace("simcheck", "case", path, wal::RecordType::kCaseResult,
                       sweep_fingerprint(options), combos.size() * seeds);
    switch (checkpoint->load([&](std::size_t index, std::string_view payload) {
      SimcheckResult r;
      if (!decode_case_result(payload, &r)) {
        return false;
      }
      results[index / seeds][index % seeds] = std::move(r);
      return true;
    })) {
      case wal::ResumeLog::Status::kUnreadable:
        std::cerr << "simcheck: cannot read checkpoint " << path << ": " << checkpoint->error()
                  << "; starting fresh\n";
        break;
      case wal::ResumeLog::Status::kStale:
        std::cerr << "simcheck: checkpoint " << path
                  << " was written by a different sweep; ignoring it\n";
        break;
      case wal::ResumeLog::Status::kOk:
        if (checkpoint->replayed() > 0) {
          std::cerr << "simcheck: replayed " << checkpoint->replayed() << " case(s) from " << path
                    << "\n";
        }
        break;
    }
    checkpoint->save();
  }
  const auto record_case = [&checkpoint](std::size_t index, const SimcheckResult& r) {
    if (checkpoint) {
      checkpoint->append(index, encode_case_result(r));
    }
  };

  if (jobs > 1 && !combos.empty() && seeds > 0) {
    std::vector<std::atomic<std::size_t>> min_failed(combos.size());
    for (auto& m : min_failed) {
      m.store(seeds, std::memory_order_relaxed);
    }
    // Replayed checkpoint failures seed the early-stop cursor, so a resumed
    // sweep skips the same doomed seeds the original would have.
    for (std::size_t combo = 0; combo < combos.size(); ++combo) {
      for (std::size_t i = 0; i < seeds; ++i) {
        if (results[combo][i].has_value() && !results[combo][i]->ok) {
          min_failed[combo].store(i, std::memory_order_relaxed);
          break;
        }
      }
    }
    sweep::parallel_for(combos.size() * seeds, jobs, [&](std::size_t job) {
      const std::size_t combo = job / seeds;
      const std::size_t seed_index = job % seeds;
      if (min_failed[combo].load(std::memory_order_relaxed) < seed_index) {
        return;  // a smaller seed of this combination already failed
      }
      if (results[combo][seed_index].has_value()) {
        return;  // replayed from the checkpoint
      }
      SimcheckResult r = run_simcheck_case(
          sweep_case(options, combos[combo].mode, combos[combo].policy,
                     static_cast<int>(seed_index)));
      record_case(combo * seeds + seed_index, r);
      if (!r.ok) {
        std::size_t expected = min_failed[combo].load(std::memory_order_relaxed);
        while (seed_index < expected &&
               !min_failed[combo].compare_exchange_weak(expected, seed_index,
                                                        std::memory_order_relaxed)) {
        }
      }
      results[combo][seed_index] = std::move(r);
    });
  }

  // Deterministic merge: walk combinations x seeds in the serial order and
  // print exactly what the serial sweep prints, reading parallel results by
  // index (or running the case inline when --jobs 1 left the slot empty —
  // which also preserves the serial sweep's early-stop laziness).
  int failing_combinations = 0;
  std::vector<std::size_t> merged(combos.size(), 0);  // seeds read per combination
  for (std::size_t combo = 0; combo < combos.size(); ++combo) {
    const DeployMode mode = combos[combo].mode;
    const SchedulePolicy policy = combos[combo].policy;
    int passed = 0;
    bool failed = false;
    for (std::size_t i = 0; i < seeds; ++i) {
      const SimcheckCase c = sweep_case(options, mode, policy, static_cast<int>(i));
      if (!results[combo][i].has_value()) {
        results[combo][i] = run_simcheck_case(c);
        record_case(combo * seeds + i, *results[combo][i]);
      }
      const SimcheckResult& r = *results[combo][i];
      ++merged[combo];
      if (options.verbose) {
        out << (r.ok ? "ok   " : "FAIL ") << case_label(c) << ": events=" << r.events
            << " fills=" << r.fills << " races=" << r.fill_races << "\n";
      }
      if (!r.ok) {
        // Seeds are merged ascending, so the first failure is the minimal
        // failing seed for this (mode, policy) combination.
        out << "FAIL " << case_label(c) << "\n"
            << "     minimal failing seed: " << c.schedule_seed << "\n"
            << "     reproduce: " << simcheck_reproduce_line(c) << "\n"
            << r.failure << "\n";
        if (!r.profile.empty()) {
          out << r.profile << "\n";
        }
        if (!options.postmortem_dir.empty() && !r.postmortem_json.empty()) {
          std::error_code ec;  // best effort; the writes below report nothing either
          std::filesystem::create_directories(options.postmortem_dir, ec);
          const std::string stem = options.postmortem_dir + "/postmortem-" +
                                   std::string(deploy_mode_token(mode)) + "-" +
                                   std::string(schedule_policy_name(policy)) + "-" +
                                   std::to_string(c.schedule_seed);
          std::ofstream(stem + ".json") << r.postmortem_json;
          std::ofstream(stem + ".txt") << r.postmortem_text;
          out << "     postmortem: " << stem << ".{json,txt}\n";
        } else if (!r.postmortem_text.empty()) {
          out << r.postmortem_text;
        }
        failed = true;
        ++failing_combinations;
        break;
      }
      ++passed;
    }
    if (!failed) {
      out << "ok   " << deploy_mode_name(mode) << " x " << schedule_policy_name(policy)
          << ": " << passed << " seeds\n";
    }
  }
  // The completed file holds exactly the cases the merge read, in index
  // order, so it is the same at any --jobs and after any resume; cases a
  // parallel sweep ran past a combination's first failure are left out.
  if (checkpoint) {
    checkpoint->complete([&](std::size_t index) -> std::optional<std::string> {
      if (index % seeds >= merged[index / seeds]) {
        return std::nullopt;
      }
      return encode_case_result(*results[index / seeds][index % seeds]);
    });
  }
  return failing_combinations;
}

}  // namespace pvm
