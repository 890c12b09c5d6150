// §4.2 networking results ("We also performed tests on network latency and
// bandwidth and obtained similar results as those in the file system
// tests."). The paper prints no table; this bench regenerates the claim:
// network ops track the file-system pattern — pvm close to kvm, the nested
// penalty coming from the doorbell/interrupt path rather than paging.

#include "bench/bench_common.h"
#include "src/workloads/lmbench.h"

namespace pvm {
namespace {

struct OpLatency {
  double mean_us;
  double p99_us;
};

OpLatency latency_us(const std::string& label, const PlatformConfig& config, LmbenchOp op,
                     int iterations, const bench::EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  SecureContainer& c = platform.create_container("c0");
  platform.sim().spawn(c.boot(64));
  platform.sim().run();
  std::uint64_t latency = 0;
  MergeableHistogram histogram;
  platform.sim().spawn([](SecureContainer& cc, LmbenchOp o, int iters, std::uint64_t* out,
                          MergeableHistogram* hist) -> Task<void> {
    *out = co_await lmbench_run(cc, cc.vcpu(0), *cc.init_process(), o, iters, LmbenchParams{},
                                hist);
  }(c, op, iterations, &latency, &histogram));
  platform.sim().run();
  const OpLatency result{to_us(latency), to_us(histogram.quantile(0.99))};
  hooks.record(label, platform.sim(), platform.counters(),
               {{"mean_us", result.mean_us}, {"p99_us", result.p99_us}});
  return result;
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table4b_network");
  print_header("Table 4b: network latencies/bandwidth ops (us; smaller is better)",
               "PVM paper, §4.2 text (networking 'similar to file systems')",
               "TCP bw row is the per-64KiB-chunk cost");

  const struct {
    const char* name;
    LmbenchOp op;
    int iterations;
  } kOps[] = {
      {"TCP lat", LmbenchOp::kTcpLatency, 200},
      {"UDP lat", LmbenchOp::kUdpLatency, 200},
      {"TCP bw (64KiB)", LmbenchOp::kTcpBandwidth, 100},
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
      const OpLatency latency = latency_us(scenario.label + "/" + op.name, scenario.config,
                                           op.op, op.iterations, hooks);
      row.push_back(TextTable::cell(latency.mean_us) + " (p99<=" +
                    TextTable::cell(latency.p99_us, 0) + ")");
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: pvm within ~20%% of kvm at the same level (shared\n");
  std::printf("virtio path); kvm (NST) pays the forwarded doorbell + interrupt.\n");
  return 0;
}
