#include "src/obs/metrics_json.h"

#include "src/metrics/report.h"
#include "src/obs/contention.h"
#include "src/obs/json.h"
#include "src/obs/span.h"

namespace pvm::obs {

namespace {

// Lock-class contention table as a JSON array, one row per class (rendered
// at capture time — the platform that owns the classes is usually destroyed
// before to_json()).
std::string render_resources_json(const Simulation& sim) {
  const std::vector<ResourceStats> stats = collect_resource_stats(sim);
  JsonWriter json;
  json.begin_array();
  for (const ResourceStats& s : stats) {
    json.begin_object()
        .key("name").value(s.name)
        .key("capacity").value(static_cast<std::uint64_t>(s.capacity))
        .key("instances").value(static_cast<std::uint64_t>(s.instances))
        .key("acquisitions").value(s.acquisitions)
        .key("contended").value(s.contended)
        .key("wait_total_ns").value(s.total_wait_ns)
        .key("wait_p50_ns").value(s.wait_p50_ns)
        .key("wait_p95_ns").value(s.wait_p95_ns)
        .key("wait_p99_ns").value(s.wait_p99_ns)
        .key("hold_total_ns").value(s.total_hold_ns)
        .key("hold_p50_ns").value(s.hold_p50_ns)
        .key("hold_p95_ns").value(s.hold_p95_ns)
        .key("hold_p99_ns").value(s.hold_p99_ns)
        .key("peak_queue_depth").value(static_cast<std::uint64_t>(s.peak_queue_depth))
        .end_object();
  }
  json.end_array();
  return json.str();
}

std::string render_spans_json(const SpanRecorder& recorder) {
  JsonWriter json;
  json.begin_object();
  json.key("phases").begin_array();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    const SpanRecorder::PhaseStat& stat = recorder.phase_stat(phase);
    if (stat.count == 0) {
      continue;
    }
    json.begin_object()
        .key("phase").value(phase_name(phase))
        .key("count").value(stat.count)
        .key("exclusive_ns").value(stat.exclusive_ns)
        .end_object();
  }
  json.end_array();
  json.key("ops").begin_array();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto op = static_cast<Phase>(i);
    if (!phase_is_op(op)) {
      continue;
    }
    const MergeableHistogram& hist = recorder.op_latency(op);
    if (hist.count() == 0) {
      continue;
    }
    json.begin_object()
        .key("op").value(phase_name(op))
        .key("count").value(hist.count())
        .key("total_ns").value(hist.sum())
        .key("mean_ns").value(hist.mean())
        .key("p50_ns").value(hist.quantile(0.50))
        .key("p95_ns").value(hist.quantile(0.95))
        .key("p99_ns").value(hist.quantile(0.99))
        .key("max_ns").value(hist.max());
    json.key("by_phase").begin_array();
    for (std::size_t j = 0; j < kPhaseCount; ++j) {
      const auto phase = static_cast<Phase>(j);
      const TimeNs exclusive = recorder.op_phase_ns(op, phase);
      if (exclusive == 0) {
        continue;
      }
      json.begin_object()
          .key("phase").value(phase_name(phase))
          .key("exclusive_ns").value(exclusive)
          .end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("dropped_spans").value(recorder.dropped_spans());
  json.end_object();
  return json.str();
}

}  // namespace

void BenchExport::add_run(const std::string& label, const Simulation& sim,
                          const CounterSet& counters, const SpanRecorder* recorder,
                          std::vector<std::pair<std::string, double>> values,
                          std::string alloc_json, bool include_resources) {
  Run run;
  run.label = label;
  run.values = std::move(values);
  run.has_platform = true;
  run.sim_ns = sim.now();
  run.events = sim.events_processed();
  run.counters = counters;
  run.resources_json = include_resources ? render_resources_json(sim) : "[]";
  if (recorder != nullptr && recorder->enabled()) {
    run.spans_json = render_spans_json(*recorder);
  }
  run.alloc_json = std::move(alloc_json);
  runs_.push_back(std::move(run));
}

void BenchExport::add_values(const std::string& label,
                             std::vector<std::pair<std::string, double>> values) {
  Run run;
  run.label = label;
  run.values = std::move(values);
  runs_.push_back(std::move(run));
}

std::string render_alloc_json(const EventQueueStats& queue, const SlabStats* engines) {
  JsonWriter json;
  json.begin_object();
  const auto emit_slab = [&json](const char* key, const SlabStats& stats) {
    json.key(key).begin_object()
        .key("acquired").value(stats.acquired)
        .key("released").value(stats.released)
        .key("live").value(stats.live)
        .key("live_high_water").value(stats.live_high_water)
        .key("slabs").value(stats.slabs)
        .key("bytes_reserved").value(stats.bytes_reserved)
        .end_object();
  };
  emit_slab("event_slots", queue.slab);
  json.key("event_queue").begin_object()
      .key("buckets").value(queue.buckets)
      .key("resizes").value(queue.resizes)
      .key("day_jumps").value(queue.day_jumps)
      .key("heap_buckets").value(queue.heap_buckets)
      .end_object();
  if (engines != nullptr) {
    emit_slab("engine_nodes", *engines);
  }
  json.end_object();
  return json.str();
}

std::string BenchExport::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value(kBenchSchemaVersion);
  json.key("bench").value(bench_name_);
  json.key("runs").begin_array();
  for (const Run& run : runs_) {
    json.begin_object();
    json.key("label").value(run.label);
    json.key("values").begin_object();
    for (const auto& [name, value] : run.values) {
      json.key(name).value(value);
    }
    json.end_object();
    if (run.has_platform) {
      json.key("sim_ns").value(run.sim_ns);
      json.key("events").value(run.events);
      json.key("counters").begin_object();
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        const auto counter = static_cast<Counter>(i);
        const std::uint64_t value = run.counters.get(counter);
        if (value != 0) {
          json.key(counter_name(counter)).value(value);
        }
      }
      json.end_object();
      const DerivedStats derived = derive_stats(run.counters);
      json.key("derived").begin_object()
          .key("switches_per_fault").value(derived.switches_per_fault)
          .key("l0_exits_per_fault").value(derived.l0_exits_per_fault)
          .key("tlb_hit_rate").value(derived.tlb_hit_rate)
          .key("prefault_coverage").value(derived.prefault_coverage)
          .end_object();
      // Recovery-protocol outcomes, emitted even when zero: a regression
      // gate needs the explicit zero to distinguish "no kills" from "metric
      // missing" (the counters object above elides zeros).
      json.key("recovery").begin_object()
          .key("watchdog_kick").value(run.counters.get(Counter::kWatchdogKick))
          .key("watchdog_reset").value(run.counters.get(Counter::kWatchdogReset))
          .key("watchdog_kill").value(run.counters.get(Counter::kWatchdogKill))
          .key("oom_kill").value(run.counters.get(Counter::kGuestOomKill))
          .end_object();
      json.key("resources");
      // Pre-rendered arrays/objects splice in verbatim.
      json.raw(run.resources_json);
      if (!run.spans_json.empty()) {
        json.key("spans");
        json.raw(run.spans_json);
      }
      if (!run.alloc_json.empty()) {
        json.key("alloc");
        json.raw(run.alloc_json);
      }
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace pvm::obs
