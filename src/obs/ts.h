// pvm::ts — deterministic time-series telemetry on the virtual clock.
//
// A Collector turns the event firehose (flight-recorder emit points plus a
// few direct instrumentation sites) into fixed-width tumbling windows of
// counters/gauges and mergeable latency histograms, all keyed to sim-ns.
// Nothing here reads wall clock: a window is `sim_now / window_ns`, so the
// same (policy, seed, config) run produces a byte-identical document.
//
// Documents follow the sweep merge discipline: per-cell docs are prefixed
// with their coordinate ("<mode>/<workload>/") and merged in cell-index
// order, so a --jobs 8 sweep export is byte-identical to --jobs 1, and
// merged-shard histogram quantiles equal the single-stream result exactly
// (fixed bucket boundaries make merge element-wise addition).
//
// Schema: pvm.timeseries.v1 (render_timeseries_json / parse_timeseries_json
// round-trip byte-identically). SLO specs evaluate quantile thresholds over
// the whole run or per window into pass/fail objects that benchdiff gates.

#ifndef PVM_SRC_OBS_TS_H_
#define PVM_SRC_OBS_TS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/metrics/histogram.h"

namespace pvm::obs {
class JsonValue;
class JsonWriter;
class SpanRecorder;
}  // namespace pvm::obs

namespace pvm::ts {

inline constexpr std::string_view kTimeseriesSchemaVersion = "pvm.timeseries.v1";

// Default tumbling-window width: 1ms of virtual time. A bootstorm run spans
// tens to hundreds of windows at this width.
inline constexpr std::uint64_t kDefaultWindowNs = 1'000'000;

// One named counter or gauge series. Counters store per-window increments
// (total = sum of windows); gauges store the level sampled at the end of
// each window the level changed in (total = final level). Windows with no
// activity are absent — sparseness is part of the schema.
struct TsSeries {
  bool gauge = false;
  std::int64_t total = 0;
  std::map<std::uint64_t, std::int64_t> windows;

  bool operator==(const TsSeries&) const = default;
};

// Tail exemplar: the worst observation that landed in one histogram bucket,
// linked back to its flight-recorder seq and the span path that was open when
// it was recorded — a P99 regression in a merged sweep document resolves to
// one replayable (cell, seq) trace position. `seq` is the flight event's own
// seq when the observation came through the flight bridge, or the seq of the
// nearest preceding flight event for direct observe() sites. `source` is
// stamped by prefix_timeseries with the sweep coordinate ("<mode>/<workload>/"
// or "<label>/"), accumulating outer prefixes on each merge level.
struct TsExemplar {
  std::uint64_t value = 0;
  std::uint64_t seq = 0;
  std::string source;
  std::string path;

  bool operator==(const TsExemplar&) const = default;
};

// Strict-weak "worse than" total order used to pick the surviving exemplar on
// merge: larger value wins; ties prefer the earlier seq, then the
// lexicographically smaller source and path. A total order makes the merge
// associative and commutative, so sharded sweeps keep byte-identical docs.
bool exemplar_worse(const TsExemplar& a, const TsExemplar& b);

// One named latency metric: a mergeable histogram per touched window, plus
// one exemplar per touched bucket (cumulative across windows).
struct TsHist {
  std::map<std::uint64_t, MergeableHistogram> windows;
  std::map<std::uint32_t, TsExemplar> exemplars;

  MergeableHistogram cumulative() const;

  // The exemplar of the highest touched bucket — the run's worst sample.
  const TsExemplar* tail_exemplar() const {
    return exemplars.empty() ? nullptr : &exemplars.rbegin()->second;
  }

  bool operator==(const TsHist&) const = default;
};

// SLO specification: "<name>:<metric>:<quantile><=<threshold>[:window]".
// metric matches hist names by equality or substring; quantile is one of
// p50 p90 p95 p99 p999 max (histograms, value in ns) or total (series,
// threshold compared against the series total). Threshold takes ns/us/ms/s
// suffixes. The optional ":window" scope evaluates every window instead of
// the whole run.
struct SloSpec {
  std::string name;
  std::string metric;
  std::string quantile = "p99";
  std::uint64_t threshold_ns = 0;
  bool per_window = false;
};

bool parse_slo_spec(std::string_view text, SloSpec* out, std::string* error);

// One evaluated SLO. A spec that matches no metric fails explicitly
// (metric "(no match)") so a typo cannot silently pass a CI gate.
struct SloResult {
  std::string name;
  std::string metric;
  std::string quantile;
  std::uint64_t threshold_ns = 0;
  std::string scope;
  std::int64_t value = 0;
  std::uint64_t worst_window = 0;
  bool pass = false;

  bool operator==(const SloResult&) const = default;
};

// A full timeseries document: everything pvm.timeseries.v1 serializes.
struct TsDoc {
  std::uint64_t window_ns = kDefaultWindowNs;
  std::map<std::string, TsSeries, std::less<>> series;
  std::map<std::string, TsHist, std::less<>> hists;
  std::vector<SloResult> slos;

  bool empty() const { return series.empty() && hists.empty(); }

  bool operator==(const TsDoc&) const = default;
};

// Streams events into a TsDoc. Bound to a simulation clock via bind(); all
// mutating calls before bind() land in window 0. One Collector per
// simulation — merging across simulations happens on drained docs.
class Collector {
 public:
  // Binds the virtual clock (pointer to Simulation::now_ storage). The
  // pointee must outlive the attachment.
  void bind(const std::uint64_t* now) { now_ = now; }

  // Binds the scheduler's active-root pointer and (optionally) the attached
  // span recorder, so exemplars can capture the open span path at observation
  // time. Wired by Simulation::set_ts/set_spans; both may be null.
  void bind_context(const std::int64_t* active_root, const obs::SpanRecorder* spans) {
    active_root_ = active_root;
    spans_ = spans;
  }

  // Sets the tumbling-window width. Call before recording; changing the
  // width mid-stream would re-key past windows.
  void set_window(std::uint64_t window_ns) {
    doc_.window_ns = window_ns == 0 ? kDefaultWindowNs : window_ns;
  }
  std::uint64_t window_ns() const { return doc_.window_ns; }

  // Counter increment / gauge level change / latency observation at the
  // current virtual time.
  void count(std::string_view name, std::int64_t n = 1) { count_at(name, now(), n); }
  void gauge_add(std::string_view name, std::int64_t delta) {
    gauge_add_at(name, now(), delta);
  }
  void observe(std::string_view name, std::uint64_t value) {
    observe_at(name, now(), value);
  }

  // Explicit-timestamp variants (used by the flight-event bridge, which
  // carries the event's own stamp).
  void count_at(std::string_view name, std::uint64_t t, std::int64_t n = 1);
  void gauge_add_at(std::string_view name, std::uint64_t t, std::int64_t delta);
  void observe_at(std::string_view name, std::uint64_t t, std::uint64_t value);

  // Bridge from FlightRecorder::record. `kind` is flight::EventKind cast to
  // its underlying type (kept untyped here to avoid a header cycle);
  // translation to metric names lives in ts.cc. `seq` is the flight seq the
  // event is stamped with — histogram exemplars carry it so tail buckets
  // resolve back into the flight-recorder rings.
  void on_flight_event(std::uint64_t t, std::int64_t track, std::uint8_t kind,
                       std::uint64_t a, std::uint64_t b, std::uint8_t code,
                       std::uint64_t seq = 0);

  // Moves the accumulated document out and resets the collector (window
  // width is kept; gauge levels and open event pairs are cleared).
  TsDoc drain();

 private:
  std::uint64_t now() const { return now_ == nullptr ? 0 : *now_; }

  TsSeries& series_slot(std::string_view name);

  const std::uint64_t* now_ = nullptr;
  const std::int64_t* active_root_ = nullptr;
  const obs::SpanRecorder* spans_ = nullptr;
  // The seq of the last flight event seen — the exemplar link for direct
  // observe() sites that do not come through the bridge.
  std::uint64_t last_seq_ = 0;
  TsDoc doc_;
  // Open exit->entry pairs per root task, for round-trip latencies.
  std::map<std::int64_t, std::uint64_t> open_switch_;
  std::map<std::int64_t, std::uint64_t> open_vmx_;
};

// Adds `from` into `into`, window-wise. Returns false (and sets *error)
// when the window widths differ — such documents are not comparable.
// An empty `into` adopts `from`'s window width. SLO results are not merged;
// re-evaluate after merging.
bool merge_timeseries(TsDoc* into, const TsDoc& from, std::string* error);

// Returns a copy of `doc` with every series/hist name prefixed — the
// per-cell coordinate step of the sweep merge discipline.
TsDoc prefix_timeseries(const TsDoc& doc, std::string_view prefix);

// Evaluates `specs` against the document's hists/series and stores the
// results in doc->slos (replacing any previous results).
void evaluate_slos(TsDoc* doc, const std::vector<SloSpec>& specs);

// pvm.timeseries.v1 serialization. Deterministic: names sort (std::map
// iteration order), integers only, no wall-clock fields.
std::string render_timeseries_json(const TsDoc& doc);
bool parse_timeseries_json(std::string_view text, TsDoc* out, std::string* error);

// The SLO-verdict array shared by pvm.timeseries.v1 and pvm.fleet.v1:
// render_slo_results writes it (as the next value of `w`, typically after a
// key), parse_slo_results reads a parsed JSON array back (false when a
// number field is not an integer in its range). Factored out so every
// schema carrying SLO verdicts serializes them identically and benchdiff
// gates them with one code path.
void render_slo_results(obs::JsonWriter& w, const std::vector<SloResult>& slos);
bool parse_slo_results(const obs::JsonValue& array, std::vector<SloResult>* out);

// kvm_stat/top-style text dashboard over a document: per-window sparkline
// trend columns, totals, latency quantiles, worst-window highlight, SLO
// verdicts. Deterministic for a given (doc, options).
struct TopOptions {
  // Substring filter on series/hist names; empty keeps everything.
  std::string filter;
  // Sparkline column budget; wider histories downsample by max.
  int width = 48;
};

std::string render_top(const TsDoc& doc, const TopOptions& options);

}  // namespace pvm::ts

#endif  // PVM_SRC_OBS_TS_H_
