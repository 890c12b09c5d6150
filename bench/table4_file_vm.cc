// Table 4: file & VM system latencies (us), five deployment scenarios.
//
// Paper shape: file ops track kvm closely for pvm (shared virtio path); the
// page-fault family (mmap / prot fault / page fault) is where the shadow
// schemes pay, with kvm-ept an order of magnitude faster on raw faults.

#include "bench/bench_common.h"
#include "src/workloads/lmbench.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table4_file_vm");
  print_header("Table 4: file & VM system latencies (us; smaller is better)",
               "PVM paper, Table 4",
               "0K/10K file = create+delete pair; page/prot fault per fault");

  const struct {
    const char* name;
    LmbenchOp op;
    int iterations;
  } kOps[] = {
      {"0K file cr/del", LmbenchOp::kFileCreate0K, 100},
      {"10K file cr/del", LmbenchOp::kFileCreate10K, 100},
      {"mmap(64p)", LmbenchOp::kMmap, 50},
      {"prot fault", LmbenchOp::kProtFault, 200},
      {"page fault", LmbenchOp::kPageFault, 400},
      {"100fd select", LmbenchOp::kSelect100Fd, 400},
  };

  std::vector<std::string> header{"config"};
  for (const auto& op : kOps) {
    header.push_back(op.name);
  }
  const bench::EntryHooks hooks = io.hooks();
  TextTable table(std::move(header));
  for (const Scenario& scenario : five_scenarios()) {
    std::vector<std::string> row{scenario.label};
    for (const auto& op : kOps) {
      row.push_back(TextTable::cell(to_us(
          bench::lmbench_latency_ns(scenario.label + "/" + op.name, scenario.config, op.op,
                                    op.iterations, /*boot_pages=*/64, hooks))));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper shape: pvm file-op latencies sit between kvm-ept and kvm-spt and\n");
  std::printf("below kvm-ept (NST); fault-family ops cost ~3-5x kvm-ept under any\n");
  std::printf("shadow scheme (pvm included), as in the paper's Mmap/Prot/Page rows.\n");
  return 0;
}
