#include "src/obs/obs_report.h"

#include <algorithm>
#include <vector>

#include "src/metrics/table.h"
#include "src/obs/contention.h"
#include "src/obs/span.h"

namespace pvm::obs {

std::string render_obs_report(const Simulation& sim, const SpanRecorder* recorder,
                              std::size_t top_n) {
  std::string report;
  report += "top resources by wait time:\n";
  report += render_top_resources(collect_resource_stats(sim), top_n);
  if (recorder == nullptr || recorder->total_span_ns() == 0) {
    return report;
  }

  struct Row {
    Phase phase;
    SpanRecorder::PhaseStat stat;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    const SpanRecorder::PhaseStat& stat = recorder->phase_stat(phase);
    if (stat.count > 0) {
      rows.push_back(Row{phase, stat});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.stat.exclusive_ns != b.stat.exclusive_ns) {
      return a.stat.exclusive_ns > b.stat.exclusive_ns;
    }
    return static_cast<int>(a.phase) < static_cast<int>(b.phase);
  });
  const double total = static_cast<double>(recorder->total_span_ns());
  report += "\ntop phases by exclusive-time share:\n";
  TextTable phases({"phase", "count", "exclusive_us", "share_pct"});
  std::size_t printed = 0;
  for (const Row& row : rows) {
    if (printed++ >= top_n) {
      break;
    }
    phases.add_row({std::string(phase_name(row.phase)), TextTable::cell(row.stat.count),
                    TextTable::cell(static_cast<double>(row.stat.exclusive_ns) / 1e3),
                    TextTable::cell(100.0 * static_cast<double>(row.stat.exclusive_ns) / total)});
  }
  report += phases.render();

  TextTable ops({"op", "count", "mean_us", "p50_us", "p95_us", "p99_us"});
  bool any_op = false;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto op = static_cast<Phase>(i);
    if (!phase_is_op(op)) {
      continue;
    }
    const MergeableHistogram& hist = recorder->op_latency(op);
    if (hist.count() == 0) {
      continue;
    }
    any_op = true;
    ops.add_row({std::string(phase_name(op)), TextTable::cell(hist.count()),
                 TextTable::cell(hist.mean() / 1e3),
                 TextTable::cell(static_cast<double>(hist.quantile(0.50)) / 1e3),
                 TextTable::cell(static_cast<double>(hist.quantile(0.95)) / 1e3),
                 TextTable::cell(static_cast<double>(hist.quantile(0.99)) / 1e3)});
  }
  if (any_op) {
    report += "\noperation latencies:\n";
    report += ops.render();
  }
  return report;
}

}  // namespace pvm::obs
