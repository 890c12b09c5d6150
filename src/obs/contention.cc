#include "src/obs/contention.h"

#include <algorithm>

#include "src/metrics/table.h"
#include "src/sim/resource.h"

namespace pvm::obs {

std::vector<ResourceStats> collect_resource_stats(const Simulation& sim) {
  std::vector<ResourceStats> stats;
  for (const LockClass* lock_class : sim.resources()) {
    if (lock_class->acquisitions() == 0) {
      continue;
    }
    ResourceStats s;
    s.name = lock_class->name();
    s.capacity = lock_class->capacity();
    s.instances = lock_class->instances();
    s.acquisitions = lock_class->acquisitions();
    s.contended = lock_class->contended_acquisitions();
    s.total_wait_ns = lock_class->total_wait_ns();
    s.total_hold_ns = lock_class->total_hold_ns();
    s.peak_queue_depth = lock_class->peak_queue_depth();
    const MergeableHistogram& wait = lock_class->wait_histogram();
    s.wait_p50_ns = wait.quantile(0.50);
    s.wait_p95_ns = wait.quantile(0.95);
    s.wait_p99_ns = wait.quantile(0.99);
    const MergeableHistogram& hold = lock_class->hold_histogram();
    s.hold_p50_ns = hold.quantile(0.50);
    s.hold_p95_ns = hold.quantile(0.95);
    s.hold_p99_ns = hold.quantile(0.99);
    stats.push_back(std::move(s));
  }
  std::sort(stats.begin(), stats.end(), [](const ResourceStats& a, const ResourceStats& b) {
    if (a.total_wait_ns != b.total_wait_ns) {
      return a.total_wait_ns > b.total_wait_ns;
    }
    return a.name < b.name;
  });
  return stats;
}

std::string render_top_resources(const std::vector<ResourceStats>& stats, std::size_t top_n) {
  TextTable table({"resource", "cap", "inst", "acq", "contended", "wait_total_us",
                   "wait_p99_us", "hold_total_us", "peak_q"});
  std::size_t rows = 0;
  for (const ResourceStats& s : stats) {
    if (rows++ >= top_n) {
      break;
    }
    table.add_row({s.name, TextTable::cell(static_cast<std::uint64_t>(s.capacity)),
                   TextTable::cell(static_cast<std::uint64_t>(s.instances)),
                   TextTable::cell(s.acquisitions), TextTable::cell(s.contended),
                   TextTable::cell(static_cast<double>(s.total_wait_ns) / 1e3),
                   TextTable::cell(static_cast<double>(s.wait_p99_ns) / 1e3),
                   TextTable::cell(static_cast<double>(s.total_hold_ns) / 1e3),
                   TextTable::cell(static_cast<std::uint64_t>(s.peak_queue_depth))});
  }
  return table.render();
}

}  // namespace pvm::obs
