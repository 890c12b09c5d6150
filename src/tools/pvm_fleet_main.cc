// pvm-fleet — run a region-scale serverless fleet scenario and emit one
// versioned pvm.fleet.v1 document.
//
//   pvm-fleet --scenario flashcrowd --launches 10000 --nodes 8
//             --modes ept,pvm --jobs 8 --out fleet.json
//
// Nodes run on a worker pool (--jobs), each an isolated per-host
// simulation; telemetry merges in node-index order, so the document is
// byte-identical to a --jobs 1 run. --timing embeds wall-clock stats — the
// one nondeterministic section — and is therefore off by default.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/obs/ts.h"

namespace {

void usage(std::ostream& out) {
  out << "usage: pvm-fleet [options]\n"
         "  --scenario NAME        steady | diurnal | flashcrowd: a named\n"
         "                         preset applied before the flags below\n"
         "                         (default: steady)\n"
         "  --arrival SPEC         arrival process, e.g. poisson:rate=2000 |\n"
         "                         diurnal:rate=2000,amplitude=0.8,period=5s |\n"
         "                         burst:rate=1000,factor=10,every=2s,len=250ms\n"
         "                         (all accept seed=N)\n"
         "  --launches N           container launches per deployment mode\n"
         "  --nodes N              hosts the launches shard across\n"
         "  --capacity N           concurrent sandboxes admitted per node\n"
         "  --warm-pool N          sandboxes pre-booted per node\n"
         "  --no-restore           disable wal snapshot-restore cold-start\n"
         "                         mitigation (every start is a full boot)\n"
         "  --deadline NS          sandbox start deadline in virtual ns;\n"
         "                         a miss counts as a crash (default 10ms)\n"
         "  --modes m1,m2,...      pvm | pvm-bm | pvm-direct | kvm-spt |\n"
         "                         spt-on-ept | ept | ept-bm | all\n"
         "                         (default: ept,pvm — the Fig. 12 contrast)\n"
         "  --faults PLAN          fault plan for every node\n"
         "                         (fault::FaultPlan::parse spec, e.g.\n"
         "                         bootstorm:seed=7:cap=5000; default none)\n"
         "  --policy P             fifo | random | lifo (default: fifo)\n"
         "  --schedule-seed N      base schedule seed (default: 1)\n"
         "  --seed N               placement seed (default: 1)\n"
         "  --window NS            telemetry window width in virtual ns\n"
         "                         (default 1000000)\n"
         "  --slo SPEC             evaluate an SLO against the fleet-wide\n"
         "                         timeseries (\"name:metric:p99<=15ms\");\n"
         "                         repeatable\n"
         "  --jobs N               worker threads (default: 1; 0 = one per\n"
         "                         hardware thread). Output is byte-identical\n"
         "                         to --jobs 1\n"
         "  --out PATH             write the document to PATH (default: stdout)\n"
         "  --timeseries PATH      also write the fleet-wide merged\n"
         "                         pvm.timeseries.v1 document to PATH (render\n"
         "                         with pvm-top)\n"
         "  --timing               embed wall-clock stats (nondeterministic;\n"
         "                         off by default so documents stay diffable)\n";
}

[[noreturn]] void die(const std::string& message) {
  std::cerr << "pvm-fleet: " << message << "\n";
  usage(std::cerr);
  std::exit(2);
}

std::vector<std::string> split_csv(std::string_view list) {
  std::vector<std::string> tokens;
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    tokens.emplace_back(list.substr(0, comma));
    if (comma == std::string_view::npos) {
      break;
    }
    list.remove_prefix(comma + 1);
  }
  return tokens;
}

// Named starting points; explicit flags override afterwards.
void apply_scenario(std::string_view name, pvm::fleet::FleetSpec* spec) {
  if (name == "steady") {
    spec->arrival.kind = pvm::fleet::ArrivalKind::kPoisson;
    spec->arrival.rate_per_sec = 2000;
  } else if (name == "diurnal") {
    spec->arrival.kind = pvm::fleet::ArrivalKind::kDiurnal;
    spec->arrival.rate_per_sec = 2000;
    spec->arrival.amplitude = 0.8;
    spec->arrival.period_ns = 5'000'000'000ull;
  } else if (name == "flashcrowd") {
    // The Fig. 12 regime: a bursty crowd against exhausted hosts.
    spec->arrival.kind = pvm::fleet::ArrivalKind::kBurst;
    spec->arrival.rate_per_sec = 1000;
    spec->arrival.burst_factor = 10;
    spec->arrival.burst_every_ns = 2'000'000'000ull;
    spec->arrival.burst_len_ns = 250'000'000ull;
    spec->fault_plan = "bootstorm";
  } else {
    die("unknown scenario '" + std::string(name) +
        "' (steady, diurnal, flashcrowd)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  pvm::fleet::FleetSpec spec;
  apply_scenario("steady", &spec);
  int jobs = 1;
  bool timing = false;
  std::string out_path;
  std::string ts_path;
  std::vector<pvm::ts::SloSpec> slo_specs;

  const auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      die(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--scenario") {
      apply_scenario(next_value(i), &spec);
    } else if (arg == "--arrival") {
      const std::string value = next_value(i);
      std::string error;
      if (!pvm::fleet::parse_arrival_spec(value, &spec.arrival, &error)) {
        die("bad --arrival spec '" + value + "': " + error);
      }
    } else if (arg == "--launches") {
      spec.launches = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--nodes") {
      spec.nodes = static_cast<std::size_t>(
          std::strtoull(next_value(i).c_str(), nullptr, 10));
    } else if (arg == "--capacity") {
      spec.capacity = static_cast<std::uint32_t>(
          std::strtoul(next_value(i).c_str(), nullptr, 10));
    } else if (arg == "--warm-pool") {
      spec.warm_pool = static_cast<std::uint32_t>(
          std::strtoul(next_value(i).c_str(), nullptr, 10));
    } else if (arg == "--no-restore") {
      spec.snapshot_restore = false;
    } else if (arg == "--deadline") {
      spec.deadline_ns = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--modes") {
      const std::string value = next_value(i);
      spec.modes.clear();
      if (value == "all") {
        spec.modes.assign(std::begin(pvm::kAllDeployModes),
                          std::end(pvm::kAllDeployModes));
      } else {
        for (const std::string& token : split_csv(value)) {
          pvm::DeployMode mode;
          if (!pvm::parse_deploy_mode_token(token, &mode)) {
            die("unknown mode '" + token + "'");
          }
          spec.modes.push_back(mode);
        }
      }
    } else if (arg == "--faults") {
      spec.fault_plan = next_value(i);
    } else if (arg == "--policy") {
      const std::string value = next_value(i);
      if (!pvm::parse_schedule_policy_token(value, &spec.policy)) {
        die("unknown policy '" + value + "'");
      }
    } else if (arg == "--schedule-seed") {
      spec.schedule_seed = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      spec.seed = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--window") {
      spec.window_ns = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--slo") {
      const std::string value = next_value(i);
      pvm::ts::SloSpec slo;
      std::string error;
      if (!pvm::ts::parse_slo_spec(value, &slo, &error)) {
        die("bad --slo spec '" + value + "': " + error);
      }
      slo_specs.push_back(std::move(slo));
    } else if (arg == "--jobs") {
      jobs = std::atoi(next_value(i).c_str());
      if (jobs < 0) {
        die("--jobs must be >= 0");
      }
    } else if (arg == "--out") {
      out_path = next_value(i);
    } else if (arg == "--timeseries") {
      ts_path = next_value(i);
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      die("unknown option '" + std::string(arg) + "'");
    }
  }
  if (spec.launches == 0 || spec.nodes == 0 || spec.modes.empty()) {
    die("--launches, --nodes, and --modes must all be non-empty");
  }
  if (jobs == 0) {
    jobs = pvm::sweep::default_jobs();
  }

  pvm::fleet::FleetResult result;
  try {
    result = pvm::fleet::run_fleet(spec, jobs, slo_specs);
  } catch (const std::exception& e) {
    std::cerr << "pvm-fleet: " << e.what() << "\n";
    return 2;
  }

  const std::string document = pvm::fleet::render_fleet_json(
      spec, result, timing ? &result.timing : nullptr);
  if (out_path.empty()) {
    std::fwrite(document.data(), 1, document.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "pvm-fleet: cannot open " << out_path << " for writing\n";
      return 2;
    }
    out << document;
  }

  if (!ts_path.empty()) {
    const std::string ts_document =
        pvm::ts::render_timeseries_json(result.fleetwide);
    std::ofstream out(ts_path, std::ios::binary);
    if (!out) {
      std::cerr << "pvm-fleet: cannot open " << ts_path << " for writing\n";
      return 2;
    }
    out << ts_document;
  }

  // Wall clock to stderr only: the document stays diffable.
  std::fprintf(
      stderr, "pvm-fleet: %zu node cell(s), jobs=%d, wall %.2fs (%.0f events/s)\n",
      result.timing.cells, result.timing.jobs, result.timing.wall_seconds,
      result.timing.events_per_second());

  bool failed_nodes = false;
  for (const pvm::fleet::FleetGroup& group : result.groups) {
    for (const pvm::fleet::NodeOutcome& node : group.nodes) {
      if (!node.ok) {
        std::cerr << "pvm-fleet: node " << pvm::deploy_mode_token(group.mode)
                  << "/n" << node.node << " failed: " << node.error << "\n";
        failed_nodes = true;
      }
    }
  }
  bool failed_slos = false;
  for (const pvm::ts::SloResult& slo : result.slos) {
    if (!slo.pass) {
      std::cerr << "pvm-fleet: SLO FAIL " << slo.name << " (" << slo.metric
                << " " << slo.quantile << " = " << slo.value << " > "
                << slo.threshold_ns << ")\n";
      failed_slos = true;
    }
  }
  return failed_nodes || failed_slos ? 1 : 0;
}
