// Boot-storm analysis (ours; the mechanism behind the paper's Fig. 12 crash
// and the RunD deployment story in §4.4): P50/P99 sandbox startup latency
// when N containers cold-start simultaneously on one host.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig12b_bootstorm");
  print_header("Fig. 12b (ours): cold-start boot storm, startup latency (ms)",
               "mechanism behind Fig. 12's crash + §4.4 serverless adoption",
               "N containers created and booted at t=0 on one host");

  const bench::EntryHooks hooks = io.hooks();
  TextTable table({"config", "N=16 p50/p99", "N=64 p50/p99", "N=150 p50/p99 (worst)"});
  for (const Scenario& scenario : five_scenarios()) {
    std::vector<std::string> row{scenario.label};
    for (int n : {16, 64, 150}) {
      const bench::BootStormStats stats =
          bench::boot_storm(scenario.label + "/N" + std::to_string(n), scenario.config, n, hooks);
      std::string cell = TextTable::cell(stats.p50_ms) + "/" + TextTable::cell(stats.p99_ms);
      if (n == 150) {
        cell += " (" + TextTable::cell(stats.worst_ms) + ")";
      }
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: pvm startup stays flat with density; kvm-ept (NST)\n");
  std::printf("tail latency explodes (every cold page serializes at L0), which is\n");
  std::printf("what kills the RunD runtime in Fig. 12.\n");
  return 0;
}
