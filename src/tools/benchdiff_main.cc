// benchdiff — compare two pvm.bench.v1 / pvm.matrix.v1 / pvm.timeseries.v1 /
// pvm.profile.v1 / pvm.fleet.v1 exports and gate on regressions, or gate
// directly on the SLO verdicts embedded in a timeseries or fleet export
// (--slo-check).
//
// Matches runs by label and compares every gated metric (the run's headline
// `values`, the `derived` ratios, the always-present `recovery` outcome
// counts, plus `sim_ns` and `events`) with a symmetric relative threshold:
//
//   delta = |head - base| / max(|base|, |head|)
//
// so a 2x regression and a 2x "improvement" both trip the gate — either one
// means the modelled behavior changed and the checked-in baseline is stale.
// The exported quantities are virtual-clock values, deterministic per build,
// so the threshold guards against modelling drift, not machine noise.
//
// A metric that is zero in the baseline but nonzero in head has no defined
// percent change; it is skipped with a note instead of gating on inf/nan.
// Timeseries exports flatten to series/<name> totals, hist/<name> quantiles
// and slo/<name> verdicts, so a checked-in timeseries baseline gates the
// same way a bench export does. Profile exports flatten to op/<name> latency
// quantiles plus a share_pct.<path> metric per critical-path phase path, so
// a baseline profile gates on critical-path *composition* drift — a phase
// whose share grows past the threshold fails even when total latency holds.
//
// Optional sections ("recovery", "timeseries") missing wholesale from one
// side — a baseline produced by an older exporter, say — are reported as one
// added/removed note per run instead of a FAIL per metric; a single metric
// missing from a present section still fails.
//
// Exit codes: 0 all metrics within threshold (or all SLOs pass), 1 at least
// one beyond it (or a baseline run/metric missing from head, or an SLO
// failed), 2 usage or parse error — including, for --slo-check, a document
// with zero SLO results, so a typo'd spec cannot silently pass CI.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json_parse.h"
#include "src/obs/prof.h"
#include "src/obs/ts.h"

namespace pvm {
namespace {

struct Metric {
  std::string name;  // "values.switch_cost_ns", "recovery.oom_kill", ...
  double value = 0.0;
};

struct RunMetrics {
  std::string label;
  std::vector<Metric> metrics;
};

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void collect_object(const obs::JsonValue* object, const std::string& prefix,
                    std::vector<Metric>* out) {
  if (object == nullptr || !object->is_object()) {
    return;
  }
  for (const auto& [key, value] : object->object) {
    if (value.is_number()) {
      out->push_back({prefix + key, value.number});
    }
  }
}

// Flattens one pvm.bench.v1 document's runs into label -> gated metric
// list, prefixing every label with `label_prefix` (empty for a plain bench
// export; the cell coordinates for a matrix cell). Counters and the
// resource/span sections are deliberately not gated: they are diagnostic
// detail, and the counters object elides zeros so absence is ambiguous.
bool collect_bench_runs(const obs::JsonValue& doc, const std::string& path,
                        const std::string& label_prefix, std::vector<RunMetrics>* out,
                        std::string* error) {
  const obs::JsonValue* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    *error = path + ": no runs array";
    return false;
  }
  for (const obs::JsonValue& run : runs->array) {
    const obs::JsonValue* label = run.find("label");
    if (label == nullptr || !label->is_string()) {
      continue;
    }
    RunMetrics rm;
    rm.label = label_prefix + label->string;
    collect_object(run.find("values"), "values.", &rm.metrics);
    collect_object(run.find("derived"), "derived.", &rm.metrics);
    collect_object(run.find("recovery"), "recovery.", &rm.metrics);
    if (const obs::JsonValue* v = run.find("sim_ns"); v != nullptr && v->is_number()) {
      rm.metrics.push_back({"sim_ns", v->number});
    }
    if (const obs::JsonValue* v = run.find("events"); v != nullptr && v->is_number()) {
      rm.metrics.push_back({"events", v->number});
    }
    out->push_back(std::move(rm));
  }
  return true;
}

std::string cell_string(const obs::JsonValue& cell, const char* key) {
  const obs::JsonValue* v = cell.find(key);
  return (v != nullptr && v->is_string()) ? v->string : std::string("?");
}

// Flattens a pvm.matrix.v1 document: every ok cell's embedded pvm.bench.v1
// payload contributes its runs, labels prefixed with the cell coordinates so
// the same micro-bench label in two cells stays distinct. Failed cells
// contribute a run with an `ok` metric of 0 — a cell that regresses from
// passing to failing trips the gate even though its runs vanished.
bool collect_matrix_cells(const obs::JsonValue& doc, const std::string& path,
                          std::vector<RunMetrics>* out, std::string* error) {
  const obs::JsonValue* cells = doc.find("cells");
  if (cells == nullptr || !cells->is_array()) {
    *error = path + ": no cells array";
    return false;
  }
  for (const obs::JsonValue& cell : cells->array) {
    std::string seed = "?";
    if (const obs::JsonValue* v = cell.find("seed"); v != nullptr && v->is_number()) {
      seed = std::to_string(static_cast<std::uint64_t>(v->number));
    }
    const std::string prefix = cell_string(cell, "mode") + "/" +
                               cell_string(cell, "workload") + "/" +
                               cell_string(cell, "fault_plan") + "/" +
                               cell_string(cell, "policy") + "/seed" + seed;
    const obs::JsonValue* ok = cell.find("ok");
    const bool cell_ok = ok != nullptr && ok->is_bool() && ok->boolean;
    RunMetrics status;
    status.label = prefix;
    status.metrics.push_back({"ok", cell_ok ? 1.0 : 0.0});
    out->push_back(std::move(status));
    const obs::JsonValue* bench = cell.find("bench");
    if (cell_ok && bench != nullptr && bench->is_object()) {
      if (!collect_bench_runs(*bench, path, prefix + ":", out, error)) {
        return false;
      }
    }
  }
  return true;
}

// Flattens a pvm.timeseries.v1 document into comparable runs: one
// "series/<name>" run per counter/gauge (its run total / final level), one
// "hist/<name>" run per latency sketch (count + quantiles from the
// cumulative histogram), one "slo/<name>" run per evaluated SLO (pass flag
// and measured value). The per-window detail is deliberately not gated —
// window counts shift with any model change and would make every diff
// all-noise; the totals and quantiles are the stable contract.
bool collect_timeseries(const std::string& text, const std::string& path,
                        std::vector<RunMetrics>* out, std::string* error) {
  ts::TsDoc doc;
  if (!ts::parse_timeseries_json(text, &doc, error)) {
    *error = path + ": " + *error;
    return false;
  }
  for (const auto& [name, series] : doc.series) {
    RunMetrics rm;
    rm.label = "series/" + name;
    rm.metrics.push_back({"total", static_cast<double>(series.total)});
    out->push_back(std::move(rm));
  }
  for (const auto& [name, hist] : doc.hists) {
    const MergeableHistogram h = hist.cumulative();
    if (h.count() == 0) {
      continue;
    }
    RunMetrics rm;
    rm.label = "hist/" + name;
    rm.metrics.push_back({"count", static_cast<double>(h.count())});
    rm.metrics.push_back({"p50", static_cast<double>(h.quantile(0.50))});
    rm.metrics.push_back({"p99", static_cast<double>(h.quantile(0.99))});
    rm.metrics.push_back({"p999", static_cast<double>(h.quantile(0.999))});
    rm.metrics.push_back({"max", static_cast<double>(h.max())});
    out->push_back(std::move(rm));
  }
  for (const ts::SloResult& slo : doc.slos) {
    RunMetrics rm;
    // The metric disambiguates: one spec produces one verdict per matching
    // metric name, and duplicate labels would cross-match in the diff.
    rm.label = "slo/" + slo.name + "/" + slo.metric;
    rm.metrics.push_back({"pass", slo.pass ? 1.0 : 0.0});
    rm.metrics.push_back({"value_ns", static_cast<double>(slo.value)});
    out->push_back(std::move(rm));
  }
  return true;
}

// Flattens a pvm.profile.v1 document: one "op/<name>" run per operation kind
// with its latency quantiles, the total exclusive ns across its phase paths,
// and one "share_pct.<path>" metric per path (the path's percentage of the
// op's total exclusive time). Shares are ratios, so the gate catches
// critical-path composition drift — mmu_lock wait growing from 20% to 45% of
// a fault's critical path — independent of absolute-latency noise.
bool collect_profile(const std::string& text, const std::string& path,
                     std::vector<RunMetrics>* out, std::string* error) {
  prof::ProfDoc doc;
  if (!prof::parse_profile_json(text, &doc, error)) {
    *error = path + ": " + *error;
    return false;
  }
  for (const auto& [name, op] : doc.ops) {
    RunMetrics rm;
    rm.label = "op/" + name;
    rm.metrics.push_back({"count", static_cast<double>(op.latency.count())});
    rm.metrics.push_back({"p50_ns", static_cast<double>(op.latency.quantile(0.50))});
    rm.metrics.push_back({"p99_ns", static_cast<double>(op.latency.quantile(0.99))});
    rm.metrics.push_back({"max_ns", static_cast<double>(op.latency.max())});
    std::uint64_t total = 0;
    for (const auto& [p, stat] : op.paths) {
      total += stat.exclusive_ns;
    }
    rm.metrics.push_back({"total_excl_ns", static_cast<double>(total)});
    for (const auto& [p, stat] : op.paths) {
      rm.metrics.push_back(
          {"share_pct." + p,
           total == 0 ? 0.0
                      : 100.0 * static_cast<double>(stat.exclusive_ns) /
                            static_cast<double>(total)});
    }
    out->push_back(std::move(rm));
  }
  return true;
}

// Flattens a pvm.fleet.v1 document: one "fleet/<mode>/n<i>" run per node
// (ok flag, event/sim totals, sandbox count, snapshot size) plus its
// embedded pvm.bench.v1 runs; one "fleet/<mode>/rollup" run per mode with
// the fleet-wide counts and latency quantiles — the headline SLO surface —
// and one "slo/<name>" run per fleet-wide verdict. A node regressing from
// ok to failed trips the gate even though its metrics vanished.
bool collect_fleet(const obs::JsonValue& doc, const std::string& path,
                   std::vector<RunMetrics>* out, std::string* error) {
  const obs::JsonValue* groups = doc.find("groups");
  if (groups == nullptr || !groups->is_array()) {
    *error = path + ": no groups array";
    return false;
  }
  for (const obs::JsonValue& group : groups->array) {
    const std::string mode = cell_string(group, "mode");
    if (const obs::JsonValue* nodes = group.find("nodes");
        nodes != nullptr && nodes->is_array()) {
      for (const obs::JsonValue& node : nodes->array) {
        std::string index = "?";
        if (const obs::JsonValue* v = node.find("node");
            v != nullptr && v->is_number()) {
          index = std::to_string(static_cast<std::uint64_t>(v->number));
        }
        const std::string prefix = "fleet/" + mode + "/n" + index;
        const obs::JsonValue* ok = node.find("ok");
        const bool node_ok = ok != nullptr && ok->is_bool() && ok->boolean;
        RunMetrics status;
        status.label = prefix;
        status.metrics.push_back({"ok", node_ok ? 1.0 : 0.0});
        for (const char* key :
             {"events", "sim_ns", "containers", "snapshot_bytes",
              "snapshot_records"}) {
          if (const obs::JsonValue* v = node.find(key);
              v != nullptr && v->is_number()) {
            status.metrics.push_back({key, v->number});
          }
        }
        out->push_back(std::move(status));
        const obs::JsonValue* bench = node.find("bench");
        if (node_ok && bench != nullptr && bench->is_object()) {
          if (!collect_bench_runs(*bench, path, prefix + ":", out, error)) {
            return false;
          }
        }
      }
    }
    if (const obs::JsonValue* rollup = group.find("rollup");
        rollup != nullptr && rollup->is_object()) {
      RunMetrics rm;
      rm.label = "fleet/" + mode + "/rollup";
      collect_object(rollup->find("counts"), "counts.", &rm.metrics);
      if (const obs::JsonValue* latency = rollup->find("latency");
          latency != nullptr && latency->is_object()) {
        for (const auto& [name, hist] : latency->object) {
          collect_object(&hist, "latency." + name + ".", &rm.metrics);
        }
      }
      out->push_back(std::move(rm));
    }
  }
  if (const obs::JsonValue* slos = doc.find("slos"); slos != nullptr) {
    std::vector<ts::SloResult> results;
    if (!ts::parse_slo_results(*slos, &results)) {
      *error = path + ": malformed slo result";
      return false;
    }
    for (const ts::SloResult& slo : results) {
      RunMetrics rm;
      rm.label = "slo/" + slo.name + "/" + slo.metric;
      rm.metrics.push_back({"pass", slo.pass ? 1.0 : 0.0});
      rm.metrics.push_back({"value_ns", static_cast<double>(slo.value)});
      out->push_back(std::move(rm));
    }
  }
  return true;
}

bool load_export(const std::string& path, std::vector<RunMetrics>* out,
                 std::string* error) {
  std::string text;
  if (!read_file(path, &text)) {
    *error = path + ": cannot read";
    return false;
  }
  obs::JsonValue doc;
  if (!obs::json_parse(text, &doc, error)) {
    *error = path + ": " + *error;
    return false;
  }
  const obs::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    *error = path + ": no schema string";
    return false;
  }
  if (schema->string == "pvm.bench.v1") {
    return collect_bench_runs(doc, path, "", out, error);
  }
  if (schema->string == "pvm.matrix.v1") {
    return collect_matrix_cells(doc, path, out, error);
  }
  if (schema->string == ts::kTimeseriesSchemaVersion) {
    return collect_timeseries(text, path, out, error);
  }
  if (schema->string == prof::kProfileSchemaVersion) {
    return collect_profile(text, path, out, error);
  }
  if (schema->string == "pvm.fleet.v1") {
    return collect_fleet(doc, path, out, error);
  }
  *error = path +
           ": not a pvm.bench.v1, pvm.matrix.v1, pvm.timeseries.v1, "
           "pvm.profile.v1 or pvm.fleet.v1 export";
  return false;
}

// --slo-check: gate directly on the SLO verdicts a run already evaluated
// into its timeseries or fleet export (both carry the same verdict-array
// shape). Zero SLOs is a usage error (exit 2), not a pass — otherwise a
// misspelled --slo spec upstream would turn the CI gate into a no-op.
int slo_check_main(const std::string& path) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "benchdiff: %s: cannot read\n", path.c_str());
    return 2;
  }
  std::vector<ts::SloResult> slos;
  std::string error;
  obs::JsonValue root;
  if (!obs::json_parse(text, &root, &error)) {
    std::fprintf(stderr, "benchdiff: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const obs::JsonValue* schema = root.find("schema");
  if (schema != nullptr && schema->is_string() && schema->string == "pvm.fleet.v1") {
    if (const obs::JsonValue* array = root.find("slos");
        array != nullptr && !ts::parse_slo_results(*array, &slos)) {
      std::fprintf(stderr, "benchdiff: %s: malformed slo result\n", path.c_str());
      return 2;
    }
  } else {
    ts::TsDoc doc;
    if (!ts::parse_timeseries_json(text, &doc, &error)) {
      std::fprintf(stderr, "benchdiff: %s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    slos = std::move(doc.slos);
  }
  if (slos.empty()) {
    std::fprintf(stderr,
                 "benchdiff: %s: no SLO results in document (was the producing run "
                 "given any --slo specs?)\n",
                 path.c_str());
    return 2;
  }
  std::printf("benchdiff: SLO check %s (%zu SLO(s))\n", path.c_str(), slos.size());
  int failures = 0;
  for (const ts::SloResult& slo : slos) {
    if (!slo.pass) {
      ++failures;
    }
    std::printf("  %-4s %-24s %s %s=%lld <= %lld ns (%s)\n", slo.pass ? "PASS" : "FAIL",
                slo.name.c_str(), slo.metric.c_str(), slo.quantile.c_str(),
                static_cast<long long>(slo.value), static_cast<long long>(slo.threshold_ns),
                slo.scope.c_str());
  }
  std::printf("benchdiff: %zu SLO(s), %d failed\n", slos.size(), failures);
  return failures == 0 ? 0 : 1;
}

const RunMetrics* find_run(const std::vector<RunMetrics>& runs, const std::string& label) {
  for (const RunMetrics& run : runs) {
    if (run.label == label) {
      return &run;
    }
  }
  return nullptr;
}

const Metric* find_metric(const RunMetrics& run, const std::string& name) {
  for (const Metric& metric : run.metrics) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

// The dotted section a metric name belongs to ("recovery.oom_kill" ->
// "recovery"); empty for bare metrics like sim_ns.
std::string metric_group(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

// Sections an exporter may legitimately not emit (older producer, feature
// flag off). Missing wholesale from one side, they diff as one added/removed
// note; everything else stays strict.
bool optional_group(const std::string& group) {
  return group == "recovery" || group == "timeseries";
}

bool group_present(const RunMetrics& run, const std::string& group) {
  const std::string prefix = group + ".";
  for (const Metric& metric : run.metrics) {
    if (metric.name.compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
  }
  return false;
}

// Symmetric relative delta in [0, 1]; values within epsilon of each other
// (and of zero) compare equal so 1e-12 float dust cannot trip the gate.
double symmetric_delta(double base, double head) {
  constexpr double kEpsilon = 1e-9;
  const double magnitude = std::max(std::fabs(base), std::fabs(head));
  if (magnitude < kEpsilon || std::fabs(head - base) < kEpsilon) {
    return 0.0;
  }
  return std::fabs(head - base) / magnitude;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <head.json> [--threshold-pct P] [--quiet]\n"
               "          [--metrics m1,m2,...] [--warn-pct P] [--direction both|down|up]\n"
               "       %s --slo-check <timeseries.json>\n"
               "  compares two pvm.bench.v1 / pvm.matrix.v1 / pvm.timeseries.v1 /\n"
               "  pvm.profile.v1 / pvm.fleet.v1 exports run-by-run, metric-by-metric\n"
               "  --slo-check      gate on the SLO verdicts embedded in a\n"
               "                   pvm.timeseries.v1 or pvm.fleet.v1 export: exit 1\n"
               "                   if any failed, exit 2 if the document has none\n"
               "  --threshold-pct  symmetric relative threshold (default 10.0)\n"
               "  --quiet          print only metrics beyond the threshold\n"
               "  --metrics        gate only metrics whose name contains one of the\n"
               "                   given substrings (default: every collected metric)\n"
               "  --runs           gate only runs whose label contains one of the\n"
               "                   given substrings (default: every run)\n"
               "  --warn-pct       deltas beyond this but within --threshold-pct print\n"
               "                   WARN without failing the gate (default: disabled)\n"
               "  --direction      which way a change must go to trip the gate:\n"
               "                   both (default, symmetric), down (head below base\n"
               "                   fails - throughput metrics), up (head above base\n"
               "                   fails - latency metrics)\n"
               "  a baseline-zero metric that became nonzero is skipped with a note\n"
               "  (no %% change is defined for it), never gated on inf/nan\n"
               "  exits 0 when every gated metric is within threshold, 1 otherwise\n",
               argv0, argv0);
  return 2;
}

enum class Direction { kBoth, kDown, kUp };

// True when the gated direction covers a head-vs-base change of this sign.
bool direction_gates(Direction direction, double base, double head) {
  switch (direction) {
    case Direction::kBoth:
      return true;
    case Direction::kDown:
      return head < base;
    case Direction::kUp:
      return head > base;
  }
  return true;
}

bool metric_selected(const std::vector<std::string>& filters, const std::string& name) {
  if (filters.empty()) {
    return true;
  }
  for (const std::string& filter : filters) {
    if (name.find(filter) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = (comma == std::string::npos) ? list.size() : comma;
    if (end > start) {
      tokens.push_back(list.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return tokens;
}

int diff_main(int argc, char** argv) {
  std::vector<std::string> paths;
  double threshold_pct = 10.0;
  double warn_pct = -1.0;  // < 0: warnings disabled
  Direction direction = Direction::kBoth;
  std::vector<std::string> metric_filters;
  std::vector<std::string> run_filters;
  std::string slo_check_path;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--slo-check" && i + 1 < argc) {
      slo_check_path = argv[++i];
    } else if (arg == "--threshold-pct" && i + 1 < argc) {
      threshold_pct = std::atof(argv[++i]);
    } else if (arg == "--warn-pct" && i + 1 < argc) {
      warn_pct = std::atof(argv[++i]);
    } else if (arg == "--metrics" && i + 1 < argc) {
      metric_filters = split_csv(argv[++i]);
    } else if (arg == "--runs" && i + 1 < argc) {
      run_filters = split_csv(argv[++i]);
    } else if (arg == "--direction" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "both") {
        direction = Direction::kBoth;
      } else if (value == "down") {
        direction = Direction::kDown;
      } else if (value == "up") {
        direction = Direction::kUp;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (!slo_check_path.empty()) {
    if (!paths.empty()) {
      return usage(argv[0]);
    }
    return slo_check_main(slo_check_path);
  }
  if (paths.size() != 2 || threshold_pct < 0 || warn_pct > threshold_pct) {
    return usage(argv[0]);
  }

  std::vector<RunMetrics> baseline;
  std::vector<RunMetrics> head;
  std::string error;
  if (!load_export(paths[0], &baseline, &error) ||
      !load_export(paths[1], &head, &error)) {
    std::fprintf(stderr, "benchdiff: %s\n", error.c_str());
    return 2;
  }

  std::printf("benchdiff: %s vs %s (threshold %.1f%%)\n", paths[0].c_str(),
              paths[1].c_str(), threshold_pct);
  int failures = 0;
  int warnings = 0;
  int compared = 0;
  for (const RunMetrics& base_run : baseline) {
    if (!metric_selected(run_filters, base_run.label)) {
      continue;  // --runs: this run is not gated at all
    }
    bool any_selected = false;
    for (const Metric& metric : base_run.metrics) {
      if (metric_selected(metric_filters, metric.name)) {
        any_selected = true;
        break;
      }
    }
    const RunMetrics* head_run = find_run(head, base_run.label);
    if (head_run == nullptr) {
      // A run with nothing gated may legitimately be absent from head (e.g.
      // head was produced with --benchmark_filter to cover only the gated
      // rows); only a run that would have been compared fails by absence.
      if (!any_selected) {
        continue;
      }
      std::printf("  FAIL %s: run missing from head export\n", base_run.label.c_str());
      ++failures;
      continue;
    }
    bool printed_label = false;
    std::vector<std::string> noted_groups;
    const auto note_group_once = [&](const std::string& group, const char* what) {
      for (const std::string& seen : noted_groups) {
        if (seen == group) {
          return;
        }
      }
      noted_groups.push_back(group);
      std::printf("  note %s: %s object %s, not gated\n", base_run.label.c_str(),
                  group.c_str(), what);
    };
    for (const Metric& base_metric : base_run.metrics) {
      if (!metric_selected(metric_filters, base_metric.name)) {
        continue;
      }
      const Metric* head_metric = find_metric(*head_run, base_metric.name);
      ++compared;
      if (head_metric == nullptr) {
        // An optional section absent from head *in its entirety* is an
        // exporter-version difference, not a regression: one note, no FAIL.
        // A single metric missing from a present section still fails.
        const std::string group = metric_group(base_metric.name);
        if (optional_group(group) && !group_present(*head_run, group)) {
          note_group_once(group, "missing from head (removed)");
          continue;
        }
        std::printf("  FAIL %s/%s: metric missing from head export\n",
                    base_run.label.c_str(), base_metric.name.c_str());
        ++failures;
        continue;
      }
      const double abs_delta = head_metric->value - base_metric.value;
      if (base_metric.value == 0.0 && head_metric->value != 0.0) {
        // Percent change from a zero baseline is undefined; gating on the
        // symmetric delta instead would make every 0 -> anything transition
        // a 100% FAIL. Surface it as a note and let the operator decide
        // whether the baseline needs a refresh.
        if (!printed_label) {
          std::printf("  run %s\n", base_run.label.c_str());
          printed_label = true;
        }
        std::printf("    note %-32s %14.3f -> %14.3f  (%+.3f, zero baseline - skipped)\n",
                    base_metric.name.c_str(), base_metric.value, head_metric->value,
                    abs_delta);
        continue;
      }
      const double delta = symmetric_delta(base_metric.value, head_metric->value);
      const bool gated = direction_gates(direction, base_metric.value, head_metric->value);
      const bool fail = gated && delta * 100.0 > threshold_pct;
      const bool warn = gated && !fail && warn_pct >= 0 && delta * 100.0 > warn_pct;
      if (fail) {
        ++failures;
      }
      if (warn) {
        ++warnings;
      }
      if (fail || warn || !quiet) {
        if (!printed_label) {
          std::printf("  run %s\n", base_run.label.c_str());
          printed_label = true;
        }
        std::printf("    %-4s %-32s %14.3f -> %14.3f  (%+.3f, %+.1f%%)\n",
                    fail ? "FAIL" : (warn ? "WARN" : "ok"), base_metric.name.c_str(),
                    base_metric.value, head_metric->value, abs_delta,
                    abs_delta / (base_metric.value == 0.0 ? 1.0 : base_metric.value) *
                        100.0);
      }
    }
    // The reverse direction: an optional section head has but baseline lacks.
    for (const Metric& head_metric : head_run->metrics) {
      const std::string group = metric_group(head_metric.name);
      if (optional_group(group) && !group_present(base_run, group)) {
        note_group_once(group, "added in head (not in baseline)");
      }
    }
  }
  for (const RunMetrics& head_run : head) {
    if (find_run(baseline, head_run.label) == nullptr) {
      // New runs are informational, not regressions: the baseline refresh
      // procedure (EXPERIMENTS.md) picks them up on the next check-in.
      std::printf("  note %s: new run, not in baseline\n", head_run.label.c_str());
    }
  }
  if (warnings != 0) {
    std::printf("benchdiff: %d metric(s) compared, %d beyond threshold, %d warning(s)\n",
                compared, failures, warnings);
  } else {
    std::printf("benchdiff: %d metric(s) compared, %d beyond threshold\n", compared,
                failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) { return pvm::diff_main(argc, argv); }
