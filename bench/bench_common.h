// Shared helpers for the per-table/per-figure benchmark binaries.
//
// Every binary prints the rows/series of one table or figure from the paper,
// regenerated on the simulated platform, alongside the paper's published
// values where useful. Absolute values need not match (the substrate is a
// simulator, not the authors' testbed); the *shape* — who wins, by roughly
// what factor, where crossovers fall — is the reproduction target.

#ifndef PVM_BENCH_BENCH_COMMON_H_
#define PVM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/entries.h"
#include "src/backends/platform.h"
#include "src/fault/fault.h"
#include "src/metrics/table.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics_json.h"
#include "src/obs/obs_report.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/obs/ts.h"
#include "src/workloads/runner.h"

namespace pvm {

struct Scenario {
  std::string label;
  PlatformConfig config;
};

// The paper's five deployment scenarios (§4).
inline std::vector<Scenario> five_scenarios() {
  std::vector<Scenario> scenarios;
  for (DeployMode mode : {DeployMode::kKvmEptBm, DeployMode::kKvmSptBm, DeployMode::kPvmBm,
                          DeployMode::kKvmEptNst, DeployMode::kPvmNst}) {
    PlatformConfig config;
    config.mode = mode;
    scenarios.push_back({std::string(deploy_mode_name(mode)), config});
  }
  return scenarios;
}

// Workload size multiplier, settable via the PVM_BENCH_SCALE environment
// variable (e.g. 0.1 for a quick smoke run). Benches already run at a
// documented scale-down versus the paper's sizes; this stacks on top.
inline double bench_scale() {
  const char* env = std::getenv("PVM_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double value = std::atof(env);
  return value > 0 ? value : 1.0;
}

inline double to_us(SimTime ns) { return static_cast<double>(ns) / 1e3; }
inline double to_seconds(SimTime ns) { return static_cast<double>(ns) / 1e9; }

inline void print_header(const char* experiment, const char* paper_ref, const char* notes) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  if (notes != nullptr && notes[0] != '\0') {
    std::printf("%s\n", notes);
  }
  std::printf("==============================================================\n\n");
}

// Shared machine-readable output for the bench binaries:
//
//   --json <path>    export every recorded run in the versioned metrics
//                    schema (obs::kBenchSchemaVersion)
//   --trace <path>   export a Chrome trace-event file (load in Perfetto /
//                    chrome://tracing) of the last recorded run
//   --report         print the pvm-report text summary (top contended
//                    resources, phase breakdown, op latencies) per run
//   --faults <plan>  arm a deterministic fault plan ("<preset>[:seed=N]",
//                    see fault::FaultPlan::parse) on every platform the
//                    bench builds; "none" disables, including a bench's own
//                    default plan. A plan that does not parse exits 2.
//   --alloc-stats    add the `alloc` section (event-queue calendar shape,
//                    slab live/high-water accounting, shadow-engine node
//                    slabs) to each exported run; off by default so the
//                    default --json output stays byte-identical
//   --timeseries <path>  export a pvm.timeseries.v1 document: windowed
//                    counters/gauges and mergeable latency histograms on
//                    the virtual clock, one metric namespace per recorded
//                    run ("<label>/<metric>"). Render with pvm-top.
//   --ts-window <ns> tumbling-window width in virtual ns (default 1ms)
//   --slo <spec>     evaluate an SLO against the timeseries export
//                    ("<name>:<metric>:<quantile><=<threshold>[:window]",
//                    e.g. "boot:boot_latency_ns:p99<=15ms"); repeatable.
//                    Verdicts embed in the document; gate with
//                    `benchdiff --slo-check`.
//   --flight-capacity <n>  per-track flight-recorder ring capacity on every
//                    observed platform (default 256)
//   --profile <path> export a pvm.profile.v1 document: the critical-path
//                    fold of every recorded run's span tree (per-op phase
//                    paths with exclusive virtual ns, tail cohort at the
//                    fold-time p99, worst-instance anchors), one namespace
//                    per run ("<label>/<op>"). Render with pvm-profile.
//
// Any other argument, or a value flag without its value, exits 2 before any
// output. Measurement bodies reach a BenchIo only through hooks(). With none
// of the export flags given, recording is a no-op and no span recorder is
// attached to any platform, so simulations run exactly as before (the
// instrumented sites see a null recorder — one pointer check).
class BenchIo {
 public:
  // Parses the flags above; anything else exits 2.
  BenchIo(int argc, char** argv, std::string bench_name) : export_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&] {
        if (i + 1 == argc) {
          std::fprintf(stderr, "[bench] %s needs a value\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--json") {
        json_path_ = value();
      } else if (arg == "--trace") {
        trace_path_ = value();
      } else if (arg == "--report") {
        report_ = true;
      } else if (arg == "--faults") {
        fault_plan_ = value();
        try {
          fault::FaultPlan::parse(fault_plan_);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[bench] bad --faults plan '%s': %s\n", argv[i], e.what());
          std::exit(2);
        }
      } else if (arg == "--alloc-stats") {
        alloc_stats_ = true;
      } else if (arg == "--timeseries") {
        timeseries_path_ = value();
      } else if (arg == "--ts-window") {
        ts_window_ns_ = std::strtoull(value(), nullptr, 10);
      } else if (arg == "--slo") {
        ts::SloSpec spec;
        std::string error;
        if (!ts::parse_slo_spec(value(), &spec, &error)) {
          std::fprintf(stderr, "[bench] bad --slo spec '%s': %s\n", argv[i],
                       error.c_str());
          std::exit(2);
        }
        slo_specs_.push_back(std::move(spec));
      } else if (arg == "--flight-capacity") {
        flight_capacity_ = std::strtoull(value(), nullptr, 10);
      } else if (arg == "--profile") {
        profile_path_ = value();
      } else {
        std::fprintf(stderr, "[bench] unknown flag '%s'\n", arg.c_str());
        std::exit(2);
      }
    }
  }

  BenchIo(const BenchIo&) = delete;
  BenchIo& operator=(const BenchIo&) = delete;

  ~BenchIo() { finish(); }

  // The hooks every measurement body takes: on_sim and on_platform observe
  // the new simulation (on_platform also arms the fault plan), and record
  // captures one run. They point at this BenchIo, which must outlive them.
  bench::EntryHooks hooks() {
    bench::EntryHooks hooks;
    hooks.on_sim = [this](Simulation& sim) { observe(sim); };
    hooks.on_platform = [this](VirtualPlatform& platform) {
      observe(platform);
      arm_faults(platform);
    };
    hooks.record = [this](const std::string& label, Simulation& sim, CounterSet& counters,
                          std::vector<std::pair<std::string, double>> values) {
      record_run(label, sim, counters, std::move(values));
    };
    return hooks;
  }

  // A bench that models faults by default (fig12's boot storm) declares its
  // plan here; an explicit --faults (including "none") wins.
  void set_default_fault_plan(const std::string& plan) {
    if (fault_plan_.empty()) {
      fault_plan_ = plan;
    }
  }
  const std::string& fault_plan() const { return fault_plan_; }

  // A values-only row (derived numbers with no backing platform).
  void record_values(const std::string& label,
                     std::vector<std::pair<std::string, double>> values) {
    if (json_path_.empty()) {
      return;
    }
    export_.add_values(label, std::move(values));
  }

  void finish() {
    if (finished_) {
      return;
    }
    finished_ = true;
    if (!json_path_.empty()) {
      write_file(json_path_, export_.to_json());
      std::printf("[bench] wrote %zu run(s) to %s\n", export_.run_count(), json_path_.c_str());
    }
    if (!trace_path_.empty()) {
      std::printf("[bench] wrote Chrome trace to %s\n", trace_path_.c_str());
    }
    if (!timeseries_path_.empty()) {
      ts::evaluate_slos(&ts_doc_, slo_specs_);
      write_file(timeseries_path_, ts::render_timeseries_json(ts_doc_));
      std::size_t failed = 0;
      for (const ts::SloResult& slo : ts_doc_.slos) {
        if (!slo.pass) {
          ++failed;
        }
      }
      std::printf("[bench] wrote timeseries (%zu series, %zu hists, %zu SLO(s), %zu failed) to %s\n",
                  ts_doc_.series.size(), ts_doc_.hists.size(), ts_doc_.slos.size(),
                  failed, timeseries_path_.c_str());
    }
    if (!profile_path_.empty()) {
      write_file(profile_path_, prof::render_profile_json(prof_doc_));
      std::printf("[bench] wrote profile (%zu op(s)) to %s\n", prof_doc_.ops.size(),
                  profile_path_.c_str());
    }
  }

 private:
  bool active() const {
    return !json_path_.empty() || !trace_path_.empty() || report_ ||
           !timeseries_path_.empty() || !profile_path_.empty();
  }

  // Arms the configured fault plan on a platform (no-op for ""/"none").
  // The injector lives in the BenchIo so it outlives the platform's runs;
  // each call gets a fresh injector so every run replays the same plan from
  // the same seed regardless of run order.
  void arm_faults(VirtualPlatform& platform) {
    if (fault_plan_.empty() || fault_plan_ == "none") {
      return;
    }
    injectors_.push_back(std::make_unique<fault::FaultInjector>());
    injectors_.back()->arm(fault::FaultPlan::parse(fault_plan_));
    platform.arm_faults(injectors_.back().get());
  }

  // Attach a fresh span recorder to a simulation. Call between constructing
  // the simulation/platform and running work on it.
  void observe(Simulation& sim) {
    if (!active()) {
      return;
    }
    recorders_.push_back(std::make_unique<obs::SpanRecorder>());
    obs::SpanRecorder* recorder = recorders_.back().get();
    recorder->set_enabled(true);
    sim.set_spans(recorder);
    by_sim_[&sim] = recorder;
    if (!timeseries_path_.empty()) {
      collectors_.push_back(std::make_unique<ts::Collector>());
      ts::Collector* collector = collectors_.back().get();
      if (ts_window_ns_ != 0) {
        collector->set_window(ts_window_ns_);
      }
      sim.set_ts(collector);
      collector_by_sim_[&sim] = collector;
    }
  }

  void observe(VirtualPlatform& platform) {
    // Ring capacity is orthogonal to the export flags: it reshapes the
    // always-on recorder, so apply it before the active() early-out.
    if (flight_capacity_ != 0) {
      platform.flight().set_capacity(flight_capacity_);
    }
    observe(platform.sim());
    if (active()) {
      // Remembered so record_run can reach the platform's shadow-engine
      // slabs for --alloc-stats.
      platform_by_sim_[&platform.sim()] = &platform;
    }
  }

  // Capture one completed run while its simulation is still alive. `values`
  // are the bench's own headline numbers for this run.
  void record_run(const std::string& label, Simulation& sim, CounterSet& counters,
                  std::vector<std::pair<std::string, double>> values) {
    if (!active()) {
      return;
    }
    obs::SpanRecorder* recorder = nullptr;
    if (const auto it = by_sim_.find(&sim); it != by_sim_.end()) {
      recorder = it->second;
    }
    std::string alloc_json;
    if (alloc_stats_) {
      // Engine slabs are only reachable through the platform observe()
      // registered; a raw simulation has none.
      SlabStats engines;
      const auto it = platform_by_sim_.find(&sim);
      const bool has_platform = it != platform_by_sim_.end();
      if (has_platform) {
        engines = it->second->engine_alloc_stats();
      }
      alloc_json =
          obs::render_alloc_json(sim.event_queue_stats(), has_platform ? &engines : nullptr);
    }
    export_.add_run(label, sim, counters, recorder, std::move(values),
                    std::move(alloc_json));
    if (const auto ts_it = collector_by_sim_.find(&sim);
        ts_it != collector_by_sim_.end()) {
      // Namespace this run's metrics under its label and fold them into the
      // document, leaving the collector empty for the sim's next run.
      std::string merge_error;
      if (!ts::merge_timeseries(
              &ts_doc_, ts::prefix_timeseries(ts_it->second->drain(), label + "/"),
              &merge_error)) {
        std::fprintf(stderr, "[bench] timeseries merge failed: %s\n",
                     merge_error.c_str());
      }
    }
    if (!profile_path_.empty() && recorder != nullptr) {
      // Fold only this run's increment of the recorder's raw-span stream (a
      // sim recorded more than once must not double-count earlier runs).
      FoldCursor& cursor = fold_cursor_[recorder];
      prof::ProfDoc run_doc = prof::fold_profile(*recorder, cursor.spans);
      run_doc.dropped_spans = recorder->dropped_spans() - cursor.dropped;
      cursor.spans = recorder->spans().size();
      cursor.dropped = recorder->dropped_spans();
      std::string merge_error;
      prof::merge_profile(&prof_doc_, prof::prefix_profile(run_doc, label + "/"),
                          &merge_error);
    }
    if (!trace_path_.empty() && recorder != nullptr) {
      // Written per run while the simulation is alive; the last run wins.
      // The flight overlay marks injected faults / watchdog / OOM events.
      write_file(trace_path_, export_chrome_trace(*recorder, sim, sim.flight()));
    }
    if (report_) {
      std::printf("--- pvm-report: %s ---\n%s\n", label.c_str(),
                  obs::render_obs_report(sim, recorder).c_str());
    }
  }

  static void write_file(const std::string& path, const std::string& content) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "[bench] cannot open %s for writing\n", path.c_str());
      return;
    }
    std::fwrite(content.data(), 1, content.size(), file);
    std::fclose(file);
  }

  obs::BenchExport export_;
  std::string json_path_;
  std::string trace_path_;
  std::string fault_plan_;
  std::string timeseries_path_;
  std::uint64_t ts_window_ns_ = 0;
  std::uint64_t flight_capacity_ = 0;
  std::vector<ts::SloSpec> slo_specs_;
  ts::TsDoc ts_doc_;
  std::string profile_path_;
  prof::ProfDoc prof_doc_;
  // Per-recorder fold position: raw spans and dropped count already folded.
  struct FoldCursor {
    std::size_t spans = 0;
    std::uint64_t dropped = 0;
  };
  std::map<const obs::SpanRecorder*, FoldCursor> fold_cursor_;
  bool report_ = false;
  bool alloc_stats_ = false;
  bool finished_ = false;
  std::vector<std::unique_ptr<obs::SpanRecorder>> recorders_;
  std::map<const Simulation*, obs::SpanRecorder*> by_sim_;
  std::map<const Simulation*, VirtualPlatform*> platform_by_sim_;
  std::vector<std::unique_ptr<ts::Collector>> collectors_;
  std::map<const Simulation*, ts::Collector*> collector_by_sim_;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors_;
};

}  // namespace pvm

#endif  // PVM_BENCH_BENCH_COMMON_H_
