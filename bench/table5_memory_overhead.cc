// §1/§5 memory-footprint analysis (beyond the paper's tables): per-container
// page-table memory by scheme. The paper notes VM-based isolation's
// "enlarged per-container memory footprint" (§1) and that PVM's dual shadow
// page tables are a cost it wants to reduce (§5); this bench quantifies both
// in table pages after an identical workload.

#include "bench/bench_common.h"
#include "src/backends/ept_on_ept_memory_backend.h"
#include "src/workloads/memstress.h"

namespace pvm {
namespace {

struct Footprint {
  std::uint64_t guest_tables = 0;   // GPT pages (the guest pays these anyway)
  std::uint64_t shadow_tables = 0;  // SPT/gpa_map pages (hypervisor overhead)
};

Footprint run_config(const std::string& label, const PlatformConfig& config, int processes,
                     const bench::EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot(16));
  platform.sim().run();
  MemStressParams params;
  params.total_bytes = static_cast<std::uint64_t>(bench_scale() * (16.0 * 1024 * 1024));
  params.release_chunks = false;
  run_processes_in_container(platform, container, processes,
                             [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
                               return memstress_process(container, vcpu, proc, params);
                             });

  Footprint footprint;
  for (const auto& proc : container.kernel().processes()) {
    footprint.guest_tables += proc->gpt().node_count();
  }
  if (PvmMemoryEngine* engine = container.shadow_engine()) {
    footprint.shadow_tables = engine->shadow_table_frames();
  } else if (auto* eoe = dynamic_cast<EptOnEptMemoryBackend*>(&container.mem())) {
    // EPT-on-EPT's hypervisor-side tables: EPT12 at L1 and the compressed
    // EPT02 at L0.
    footprint.shadow_tables = eoe->ept12().node_count() + eoe->ept02().node_count();
  }
  hooks.record(label, platform.sim(), platform.counters(),
               {{"guest_tables", static_cast<double>(footprint.guest_tables)},
                {"shadow_tables", static_cast<double>(footprint.shadow_tables)}});
  return footprint;
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table5_memory_overhead");
  print_header("Table 5 (ours): page-table memory per container (4 KiB pages)",
               "PVM paper §1 footprint remark + §5 dual-SPT cost",
               "After 8 processes x 16 MiB resident each");

  const bench::EntryHooks hooks = io.hooks();
  TextTable table({"config", "guest tables", "shadow tables", "overhead vs EPT"});
  std::uint64_t ept_total = 0;
  for (const Scenario& scenario : five_scenarios()) {
    const Footprint footprint = run_config(scenario.label, scenario.config, 8, hooks);
    const std::uint64_t total = footprint.guest_tables + footprint.shadow_tables;
    if (scenario.config.mode == DeployMode::kKvmEptBm) {
      ept_total = total;
    }
    table.add_row({scenario.label, TextTable::cell(footprint.guest_tables),
                   TextTable::cell(footprint.shadow_tables),
                   ept_total > 0
                       ? TextTable::cell(static_cast<double>(total) /
                                         static_cast<double>(ept_total)) +
                             "x"
                       : "-"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: EPT schemes carry no shadow pages; PVM's dual SPT\n");
  std::printf("roughly doubles (user+kernel) the table memory plus the gpa_map —\n");
  std::printf("the overhead §5 proposes to reduce via collaborative construction.\n");
  return 0;
}
