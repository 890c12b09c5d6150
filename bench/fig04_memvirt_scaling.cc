// Figure 4: EPT vs SPT with and without nested virtualization, under the
// memory-intensive microbenchmark (sequential 1 MiB allocations, every page
// touched), 1..16 concurrent processes.
//
// Paper shape (seconds, 4 GiB WSS/process): EPT ~5 flat; SPT grows to ~100;
// EPT-EPT 20 -> 127; SPT-EPT 60 -> 562. We run a scaled working set; the
// per-configuration ratios are the reproduction target.

#include "bench/bench_common.h"
#include "src/workloads/memstress.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig04_memvirt_scaling");
  const bench::EntryHooks hooks = io.hooks();
  MemStressParams params;
  params.total_bytes = static_cast<std::uint64_t>(bench_scale() * (48.0 * 1024 * 1024));
  params.release_chunks = false;  // Fig. 4 variant: allocate and keep
  print_header("Figure 4: EPT vs SPT, single-level vs nested (execution time, s)",
               "PVM paper, Fig. 4",
               "Working set scaled to 48 MiB/process (paper: 4 GiB); shape is the target");

  const struct {
    const char* name;
    DeployMode mode;
  } kConfigs[] = {
      {"EPT", DeployMode::kKvmEptBm},
      {"SPT", DeployMode::kKvmSptBm},
      {"EPT-EPT", DeployMode::kKvmEptNst},
      {"SPT-EPT", DeployMode::kSptOnEptNst},
  };

  TextTable table({"processes", "EPT", "SPT", "EPT-EPT", "SPT-EPT"});
  for (int processes : {1, 4, 16}) {
    std::vector<std::string> row{std::to_string(processes)};
    for (const auto& config : kConfigs) {
      PlatformConfig platform_config;
      platform_config.mode = config.mode;
      const std::string label = std::string(config.name) + "/" + std::to_string(processes) + "p";
      row.push_back(TextTable::cell(
          bench::pagefault_mean_seconds(label, platform_config, processes, params, hooks), 3));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper shape: EPT flat and fastest; EPT-EPT >> EPT and growing with\n");
  std::printf("concurrency; SPT-EPT worst by a wide margin.\n");
  return 0;
}
