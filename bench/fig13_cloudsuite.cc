// Figure 13: CloudSuite workloads (data / graph / in-memory analytics),
// normalized performance (kvm-ept (BM) = 1.0, higher is better).
//
// Paper shape: pvm within a few percent of bare metal on all three;
// kvm-ept (NST) visibly below 1.0, worst for the memory-heavy workloads.

#include "bench/bench_common.h"
#include "src/workloads/apps.h"

namespace pvm {
namespace {

double run_seconds(const std::string& label, const PlatformConfig& config,
                   CloudSuiteKind kind, int containers, const bench::EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  AppParams params;
  params.size = 0.5 * bench_scale();
  const ContainersResult result = run_containers(
      platform, containers,
      [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return app_cloudsuite(c, vcpu, proc, kind, params);
      },
      /*init_pages=*/64);
  hooks.record(label, platform.sim(), platform.counters(),
               {{"mean_seconds", result.mean_seconds()}});
  return result.mean_seconds();
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig13_cloudsuite");
  print_header("Figure 13: CloudSuite workloads, normalized performance",
               "PVM paper, Fig. 13",
               "kvm-ept (BM) = 1.0; higher is better (time ratio inverted)");

  const struct {
    const char* name;
    CloudSuiteKind kind;
  } kKinds[] = {
      {"data analytics", CloudSuiteKind::kDataAnalytics},
      {"graph analytics", CloudSuiteKind::kGraphAnalytics},
      {"in-memory analytics", CloudSuiteKind::kInMemoryAnalytics},
  };
  constexpr int kContainers = 4;  // "relatively low concurrency level"

  const bench::EntryHooks hooks = io.hooks();
  TextTable table(
      {"config", "data analytics", "graph analytics", "in-memory analytics"});
  std::vector<double> baseline;
  for (const auto& kind : kKinds) {
    PlatformConfig config;
    config.mode = DeployMode::kKvmEptBm;
    baseline.push_back(run_seconds(std::string("baseline/") + kind.name, config, kind.kind,
                                   kContainers, hooks));
  }
  for (const Scenario& scenario : five_scenarios()) {
    std::vector<std::string> row{scenario.label};
    for (std::size_t i = 0; i < std::size(kKinds); ++i) {
      const double seconds = run_seconds(scenario.label + "/" + kKinds[i].name,
                                         scenario.config, kKinds[i].kind, kContainers, hooks);
      row.push_back(TextTable::cell(baseline[i] / seconds, 3));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper shape: pvm close to bare metal; kvm-ept (NST) clearly below.\n");
  return 0;
}
