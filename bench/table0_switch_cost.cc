// §2.2 / §3.3.2 world-switch unit costs.
//
// Paper measurements: single-level world switch ~0.105 us, PVM switcher
// switch ~0.179 us, nested (EPT-on-EPT) L2-to-L1 switch ~1.3 us ("an order
// of magnitude more expensive").
//
// The measurement bodies live in bench/entries.h so pvm-matrix can run them
// as library calls; this binary renders the table.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table0_switch_cost");
  print_header("Table 0: world-switch unit costs (us per switch)",
               "PVM paper, §2.2 & §3.3.2 text measurements",
               "Paper: single-level 0.105, PVM switcher 0.179, nested 1.3");

  const bench::EntryHooks hooks = io.hooks();
  TextTable table({"switch type", "measured (us)", "paper (us)"});
  table.add_row({"single-level (VMX exit/entry)",
                 TextTable::cell(bench::switch_single_level_us(hooks)), "0.105"});
  table.add_row({"PVM switcher (within L1)", TextTable::cell(bench::switch_pvm_us(hooks)),
                 "0.179"});
  table.add_row({"nested L2<->L1 (via L0)", TextTable::cell(bench::switch_nested_us(hooks)),
                 "1.3"});
  std::printf("%s\n", table.render().c_str());
  return 0;
}
