// Figure 10: guest page-fault handling performance, 1..32 processes, with
// PVM optimization ablations (prefault, PCID mapping, fine-grained locking).
//
// Paper shape: kvm-ept (BM) fastest and flat; pvm (BM) similar scalability,
// higher level; pvm (NST) far below kvm-ept (NST), whose time explodes with
// concurrency (194 s at 32 procs); fine-grained locking alone restores
// scalability, prefault + PCID mapping shave the remaining constant.

#include "bench/bench_common.h"
#include "src/workloads/memstress.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig10_pagefault_scaling");
  const bench::EntryHooks hooks = io.hooks();
  MemStressParams params;  // Fig. 10 variant: allocate and release
  params.total_bytes = static_cast<std::uint64_t>(bench_scale() * (32.0 * 1024 * 1024));
  print_header("Figure 10: guest page-fault handling (execution time, s)",
               "PVM paper, Fig. 10",
               "1 MiB allocate/touch/release loop; 32 MiB/process (paper: 4 GiB)");

  struct Config {
    const char* name;
    PlatformConfig config;
  };
  std::vector<Config> configs;
  {
    PlatformConfig c;
    c.mode = DeployMode::kKvmEptBm;
    configs.push_back({"kvm-ept (BM)", c});
    c.mode = DeployMode::kKvmSptBm;
    configs.push_back({"kvm-spt (BM)", c});
    c.mode = DeployMode::kPvmBm;
    configs.push_back({"pvm (BM)", c});
    c.mode = DeployMode::kKvmEptNst;
    configs.push_back({"kvm-ept (NST)", c});
    c.mode = DeployMode::kPvmNst;
    configs.push_back({"pvm (NST)", c});
    // Ablations: start from everything off, add one optimization at a time
    // (the paper: locking alone gives scalability; prefault and PCID mapping
    // then improve the constant).
    PlatformConfig none = c;
    none.prefault = false;
    none.pcid_mapping = false;
    none.fine_grained_locks = false;
    configs.push_back({"pvm (NST-none)", none});
    PlatformConfig lock = none;
    lock.fine_grained_locks = true;
    configs.push_back({"pvm (NST-lock)", lock});
    PlatformConfig pcid = lock;
    pcid.pcid_mapping = true;
    configs.push_back({"pvm (NST-pcid)", pcid});
    PlatformConfig prefault = pcid;
    prefault.prefault = true;  // == full pvm (NST)
    configs.push_back({"pvm (NST-prefault)", prefault});
  }

  std::vector<std::string> header{"config"};
  const int kProcs[] = {1, 2, 4, 8, 16, 32};
  for (int p : kProcs) {
    header.push_back(std::to_string(p) + "p");
  }
  TextTable table(std::move(header));

  for (const auto& config : configs) {
    std::vector<std::string> row{config.name};
    for (int p : kProcs) {
      const std::string label = std::string(config.name) + "/" + std::to_string(p) + "p";
      row.push_back(TextTable::cell(
          bench::pagefault_mean_seconds(label, config.config, p, params, hooks), 3));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper shape: kvm-ept (NST) collapses with concurrency (L0 mmu_lock);\n");
  std::printf("pvm (NST) scales like bare-metal; fine-grained locking provides the\n");
  std::printf("scalability, prefault + PCID mapping the remaining speedup.\n");
  return 0;
}
