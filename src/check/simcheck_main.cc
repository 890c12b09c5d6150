// simcheck driver: sweeps schedule seeds x tie-break policies x deployment
// modes with the SPT coherence oracle armed, and reports the minimal failing
// seed per combination. Exit code = number of failing combinations.
//
//   simcheck --modes pvm,kvm-spt --policies random --seeds 64
//   simcheck --modes pvm --policies lifo --seeds 1 --first-seed 42  # replay

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>

#include "src/check/simcheck.h"
#include "src/sweep/sweep.h"

namespace {

void usage(std::ostream& out) {
  out << "usage: simcheck [options]\n"
         "  --modes m1,m2,...     pvm | pvm-bm | pvm-direct | kvm-spt |\n"
         "                        spt-on-ept | ept | ept-bm | all\n"
         "                        (default: pvm,kvm-spt,ept)\n"
         "  --policies p1,p2,...  fifo | random | lifo | all (default: all)\n"
         "  --seeds N             seeds per (mode, policy) (default: 64)\n"
         "  --first-seed N        first schedule seed (default: 1)\n"
         "  --processes N         concurrent worker processes (default: 3)\n"
         "  --bytes N             memstress bytes per process (default: 1 MiB)\n"
         "  --jobs N              worker threads for the sweep (default: 1;\n"
         "                        0 = one per hardware thread). Output is\n"
         "                        byte-identical to --jobs 1; timing goes to\n"
         "                        stderr so reports stay diffable\n"
         "  --flight-capacity N   flight-recorder ring size per track for each\n"
         "                        case (default: recorder default, 256); larger\n"
         "                        rings give longer postmortem timelines\n"
         "  --no-chaos            disable fault-injection agents\n"
         "  --no-faults           disable the faultstorm fault plans\n"
         "  --postmortem-dir D    write failing cases' flight-recorder dumps\n"
         "                        to D/postmortem-<mode>-<policy>-<seed>.{json,txt}\n"
         "  --checkpoint PATH     WAL-backed resume: finished cases append to\n"
         "                        PATH; a rerun with the same options replays\n"
         "                        them and only computes the rest (report stays\n"
         "                        byte-identical; torn tails rerun)\n"
         "  --verbose             print every case, not just failures\n";
}

[[noreturn]] void die(const std::string& message) {
  std::cerr << "simcheck: " << message << "\n";
  usage(std::cerr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pvm::SweepOptions options;
  options.modes = {pvm::DeployMode::kPvmNst, pvm::DeployMode::kKvmSptBm,
                   pvm::DeployMode::kKvmEptNst};
  options.policies.assign(std::begin(pvm::kAllSchedulePolicies),
                          std::end(pvm::kAllSchedulePolicies));

  const auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      die(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--modes") {
      std::string bad;
      if (!pvm::parse_deploy_mode_list(next_value(i), &options.modes, &bad)) {
        die("unknown mode '" + bad + "'");
      }
    } else if (arg == "--policies") {
      std::string bad;
      if (!pvm::parse_schedule_policy_list(next_value(i), &options.policies, &bad)) {
        die("unknown policy '" + bad + "'");
      }
    } else if (arg == "--seeds") {
      options.seeds = std::atoi(next_value(i).c_str());
    } else if (arg == "--first-seed") {
      options.first_seed = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--processes") {
      options.processes = std::atoi(next_value(i).c_str());
    } else if (arg == "--bytes") {
      options.memstress_bytes = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--flight-capacity") {
      options.flight_capacity = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--jobs") {
      options.jobs = std::atoi(next_value(i).c_str());
      if (options.jobs < 0) {
        die("--jobs must be >= 0");
      }
    } else if (arg == "--debug-corrupt-from-seed") {
      // Undocumented test hook: plant a deterministic oracle violation for
      // every schedule seed >= N (see SweepOptions::debug_corrupt_from_seed).
      options.debug_corrupt_from_seed = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--postmortem-dir") {
      options.postmortem_dir = next_value(i);
    } else if (arg == "--checkpoint") {
      options.checkpoint_path = next_value(i);
    } else if (arg == "--no-chaos") {
      options.chaos = false;
    } else if (arg == "--no-faults") {
      options.faults = false;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      die("unknown option '" + std::string(arg) + "'");
    }
  }
  if (options.modes.empty() || options.policies.empty() || options.seeds <= 0) {
    die("nothing to sweep");
  }

  // Wall-clock goes to stderr: stdout is the deterministic sweep report that
  // CI diffs against a serial golden, and timing is the one thing a parallel
  // run is allowed to change.
  const pvm::sweep::Stopwatch stopwatch;
  const int failures = pvm::run_simcheck_sweep(options, std::cout);
  const std::size_t cases = options.modes.size() * options.policies.size() *
                            static_cast<std::size_t>(options.seeds);
  std::fprintf(stderr, "simcheck: %zu case(s) max, jobs=%d, wall %.2fs\n", cases,
               options.jobs == 0 ? pvm::sweep::default_jobs() : options.jobs,
               stopwatch.seconds());
  if (failures == 0) {
    std::cout << "simcheck: all combinations passed\n";
  } else {
    std::cout << "simcheck: " << failures << " failing combination(s)\n";
  }
  return failures;
}
