// Beyond-paper ablation: the two §5 "future work" directions, implemented as
// switchable extensions, measured against the shipping pvm (NST) baseline on
// the Fig. 10 workload.
//
//   +classify       switcher-side #PF classification (guest faults injected
//                   directly into L2, saving the PVM entry)
//   +collab         write-protection-free collaborative page-table sync
//                   (GPT stores batched through a shared ring)
//   +both           the two combined
//
// The paper projects these will narrow the remaining gap to hardware-assisted
// single-level virtualization; this bench quantifies that projection in the
// model.

#include "bench/bench_common.h"
#include "src/workloads/memstress.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "ablation_extensions");
  const bench::EntryHooks hooks = io.hooks();
  MemStressParams params;
  params.total_bytes = static_cast<std::uint64_t>(bench_scale() * (32.0 * 1024 * 1024));
  print_header("Ablation: §5 future-work extensions on the Fig. 10 workload (s)",
               "PVM paper §5 'Limitations of PVM' / future work",
               "kvm-ept (BM) shown as the hardware lower bound");

  struct Row {
    const char* name;
    PlatformConfig config;
  };
  std::vector<Row> rows;
  {
    PlatformConfig c;
    c.mode = DeployMode::kKvmEptBm;
    rows.push_back({"kvm-ept (BM), lower bound", c});
    c.mode = DeployMode::kPvmNst;
    rows.push_back({"pvm (NST), paper baseline", c});
    PlatformConfig classify = c;
    classify.switcher_pf_classify = true;
    rows.push_back({"pvm (NST) +classify", classify});
    PlatformConfig collab = c;
    collab.collaborative_pt = true;
    rows.push_back({"pvm (NST) +collab", collab});
    PlatformConfig both = classify;
    both.collaborative_pt = true;
    rows.push_back({"pvm (NST) +both", both});
    PlatformConfig direct;
    direct.mode = DeployMode::kPvmDirectNst;
    rows.push_back({"pvm-direct (NST)", direct});
  }

  TextTable table({"config", "1p", "4p", "16p", "32p"});
  for (const Row& row : rows) {
    std::vector<std::string> cells{row.name};
    for (int processes : {1, 4, 16, 32}) {
      const std::string label = std::string(row.name) + "/" + std::to_string(processes) + "p";
      cells.push_back(TextTable::cell(
          bench::pagefault_mean_seconds(label, row.config, processes, params, hooks), 3));
    }
    table.add_row(std::move(cells));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: each extension shaves a constant per fault; combined\n");
  std::printf("they close part of the remaining gap to hardware-assisted paging.\n");
  return 0;
}
