// pvm-matrix — run a declarative scenario matrix across the bench library
// entry points and emit one versioned pvm.matrix.v1 document.
//
//   pvm-matrix --modes pvm,kvm-spt --workloads syscall,boot --seeds 4
//              --jobs 8 --out matrix.json
//
// Cells run on a worker pool (--jobs), each in its own isolated simulation;
// results merge by cell index, so the document is byte-identical to a
// --jobs 1 run. --timing embeds wall-clock/throughput stats — the one
// nondeterministic section — and is therefore off by default.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/entries.h"
#include "src/obs/prof.h"
#include "src/obs/ts.h"
#include "src/sweep/matrix.h"
#include "src/sweep/sweep.h"
#include "src/wal/wal.h"

namespace {

void usage(std::ostream& out) {
  out << "usage: pvm-matrix [options]\n"
         "  --modes m1,m2,...      pvm | pvm-bm | pvm-direct | kvm-spt |\n"
         "                         spt-on-ept | ept | ept-bm | all\n"
         "                         (default: pvm,kvm-spt,ept)\n"
         "  --workloads w1,w2,...  switch | syscall | pagefault | boot |\n"
         "                         migration | all (default: syscall)\n"
         "  --faults f1,f2,...     fault plans (fault::FaultPlan::parse specs,\n"
         "                         e.g. none,bootstorm:seed=7; default: none)\n"
         "  --policies p1,p2,...   fifo | random | lifo | all (default: fifo)\n"
         "  --seeds N              schedule seeds per combination (default: 1)\n"
         "  --first-seed N         first schedule seed (default: 1)\n"
         "  --jobs N               worker threads (default: 1; 0 = one per\n"
         "                         hardware thread). Output is byte-identical\n"
         "                         to --jobs 1\n"
         "  --out PATH             write the document to PATH (default: stdout)\n"
         "  --timing               embed wall-clock stats (nondeterministic;\n"
         "                         off by default so documents stay diffable)\n"
         "  --timeseries PATH      collect per-cell pvm.timeseries.v1 documents\n"
         "                         and write their index-order merge to PATH\n"
         "                         (byte-identical across --jobs; render with\n"
         "                         pvm-top)\n"
         "  --ts-window NS         timeseries window width in virtual ns\n"
         "                         (default 1000000)\n"
         "  --profile PATH         collect per-cell pvm.profile.v1 documents\n"
         "                         (critical-path fold of every run's span\n"
         "                         tree) and write their index-order merge to\n"
         "                         PATH (byte-identical across --jobs; render\n"
         "                         with pvm-profile)\n"
         "  --slo SPEC             evaluate an SLO against the merged timeseries\n"
         "                         (\"name:metric:p99<=15ms[:window]\"); repeatable\n"
         "  --checkpoint PATH      WAL-backed resume: completed cells append to\n"
         "                         PATH as they finish; a rerun with the same\n"
         "                         spec replays them instead of recomputing, so\n"
         "                         the final document is byte-identical to an\n"
         "                         uninterrupted run (torn tails are truncated\n"
         "                         and those cells rerun)\n"
         "  --checkpoint-stop-after N\n"
         "                         stop after N freshly computed cells (exit 3,\n"
         "                         no document) — crash-resume testing hook\n";
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

[[noreturn]] void die(const std::string& message) {
  std::cerr << "pvm-matrix: " << message << "\n";
  usage(std::cerr);
  std::exit(2);
}

// Identity of the matrix a checkpoint belongs to: every coordinate that
// changes what a cell computes. A resume against a different spec would
// splice wrong results into the document, so the header record pins this.
std::string spec_fingerprint(const pvm::sweep::MatrixSpec& spec, bool want_ts,
                             std::uint64_t ts_window_ns, bool want_profile) {
  std::string fp = "pvm.matrix.v1;modes=";
  for (const pvm::DeployMode mode : spec.modes) {
    fp += pvm::deploy_mode_name(mode);
    fp += ',';
  }
  fp += ";workloads=";
  for (const std::string& workload : spec.workloads) {
    fp += workload;
    fp += ',';
  }
  fp += ";faults=";
  for (const std::string& plan : spec.fault_plans) {
    fp += plan;
    fp += ',';
  }
  fp += ";policies=";
  for (const pvm::SchedulePolicy policy : spec.policies) {
    fp += pvm::schedule_policy_name(policy);
    fp += ',';
  }
  fp += ";seeds=" + std::to_string(spec.seeds);
  fp += ";first_seed=" + std::to_string(spec.first_seed);
  fp += ";ts=" + std::string(want_ts ? "1" : "0");
  fp += ";ts_window=" + std::to_string(ts_window_ns);
  fp += ";profile=" + std::string(want_profile ? "1" : "0");
  return fp;
}

std::string encode_cell_result(const pvm::sweep::CellResult& cell) {
  std::string payload;
  pvm::wal::put_u32(payload, cell.ok ? 1 : 0);
  pvm::wal::put_string(payload, cell.error);
  pvm::wal::put_string(payload, cell.bench_json);
  pvm::wal::put_string(payload, cell.ts_json);
  pvm::wal::put_string(payload, cell.profile_json);
  pvm::wal::put_u64(payload, cell.events);
  return payload;
}

bool decode_cell_result(std::string_view payload, pvm::sweep::CellResult* cell) {
  std::size_t cursor = 0;
  std::uint64_t events = 0;
  std::uint32_t ok = 0;
  if (!pvm::wal::get_u32(payload, &cursor, &ok) ||
      !pvm::wal::get_string(payload, &cursor, &cell->error) ||
      !pvm::wal::get_string(payload, &cursor, &cell->bench_json) ||
      !pvm::wal::get_string(payload, &cursor, &cell->ts_json) ||
      !pvm::wal::get_string(payload, &cursor, &cell->profile_json) ||
      !pvm::wal::get_u64(payload, &cursor, &events)) {
    return false;
  }
  cell->ok = ok != 0;
  cell->events = events;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pvm::sweep::MatrixSpec spec;
  spec.modes = {pvm::DeployMode::kPvmNst, pvm::DeployMode::kKvmSptBm,
                pvm::DeployMode::kKvmEptNst};
  spec.workloads = {"syscall"};
  spec.fault_plans = {"none"};
  spec.policies = {pvm::SchedulePolicy::kFifo};
  int jobs = 1;
  bool timing = false;
  std::string out_path;
  std::string ts_path;
  std::string profile_path;
  std::uint64_t ts_window_ns = 0;
  std::vector<pvm::ts::SloSpec> slo_specs;
  std::string checkpoint_path;
  std::uint64_t checkpoint_stop_after = 0;

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
      if (!pvm::parse_deploy_mode_list(next_value(i), &spec.modes, &bad)) {
        die("unknown mode '" + bad + "'");
      }
    } else if (arg == "--workloads") {
      const std::string value = next_value(i);
      if (value == "all") {
        spec.workloads = pvm::bench::matrix_workloads();
      } else {
        spec.workloads = split_csv(value);
        for (const std::string& workload : spec.workloads) {
          const auto& known = pvm::bench::matrix_workloads();
          if (std::find(known.begin(), known.end(), workload) == known.end()) {
            die("unknown workload '" + workload + "'");
          }
        }
      }
    } else if (arg == "--faults") {
      spec.fault_plans = split_csv(next_value(i));
    } else if (arg == "--policies") {
      std::string bad;
      if (!pvm::parse_schedule_policy_list(next_value(i), &spec.policies, &bad)) {
        die("unknown policy '" + bad + "'");
      }
    } else if (arg == "--seeds") {
      spec.seeds = std::atoi(next_value(i).c_str());
    } else if (arg == "--first-seed") {
      spec.first_seed = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--jobs") {
      jobs = std::atoi(next_value(i).c_str());
      if (jobs < 0) {
        die("--jobs must be >= 0");
      }
    } else if (arg == "--out") {
      out_path = next_value(i);
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--timeseries") {
      ts_path = next_value(i);
    } else if (arg == "--ts-window") {
      ts_window_ns = std::strtoull(next_value(i).c_str(), nullptr, 10);
    } else if (arg == "--profile") {
      profile_path = next_value(i);
    } else if (arg == "--slo") {
      const std::string value = next_value(i);
      pvm::ts::SloSpec slo;
      std::string error;
      if (!pvm::ts::parse_slo_spec(value, &slo, &error)) {
        die("bad --slo spec '" + value + "': " + error);
      }
      slo_specs.push_back(std::move(slo));
    } else if (arg == "--checkpoint") {
      checkpoint_path = next_value(i);
    } else if (arg == "--checkpoint-stop-after") {
      checkpoint_stop_after = std::strtoull(next_value(i).c_str(), nullptr, 10);
      if (checkpoint_stop_after == 0) {
        die("--checkpoint-stop-after must be >= 1");
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      die("unknown option '" + std::string(arg) + "'");
    }
  }
  if (spec.cell_count() == 0) {
    die("empty matrix (check --modes/--workloads/--faults/--policies/--seeds)");
  }
  if (checkpoint_stop_after != 0 && checkpoint_path.empty()) {
    die("--checkpoint-stop-after needs --checkpoint");
  }

  const bool want_ts = !ts_path.empty();
  const bool want_profile = !profile_path.empty();

  // Checkpoint-resume: replay completed cells (a torn tail costs only the
  // cells it cut), then append each freshly computed cell and save. The
  // final document is byte-identical to an uninterrupted run because cells
  // are deterministic and merge by index, never by completion order. An
  // unreadable or stale file is fatal and left as it is.
  std::vector<std::optional<pvm::sweep::CellResult>> cached(spec.cell_count());
  std::optional<pvm::wal::ResumeLog> checkpoint;
  if (!checkpoint_path.empty()) {
    checkpoint.emplace("pvm-matrix", "cell", checkpoint_path, pvm::wal::RecordType::kCellResult,
                       spec_fingerprint(spec, want_ts, ts_window_ns, want_profile),
                       spec.cell_count());
    switch (checkpoint->load([&cached](std::size_t index, std::string_view payload) {
      pvm::sweep::CellResult cell;
      if (!decode_cell_result(payload, &cell)) {
        return false;
      }
      cached[index] = std::move(cell);
      return true;
    })) {
      case pvm::wal::ResumeLog::Status::kUnreadable:
        die("cannot read checkpoint " + checkpoint_path + ": " + checkpoint->error());
      case pvm::wal::ResumeLog::Status::kStale:
        die("checkpoint " + checkpoint_path +
            " was written for a different matrix spec; delete it or rerun "
            "with the original --modes/--workloads/--faults/--policies/"
            "--seeds/--timeseries options");
      case pvm::wal::ResumeLog::Status::kOk:
        break;
    }
    if (checkpoint->replayed() > 0) {
      std::fprintf(stderr, "pvm-matrix: replayed %zu of %zu cell(s) from %s\n",
                   checkpoint->replayed(), spec.cell_count(), checkpoint_path.c_str());
    }
  }

  const auto run_cell = [want_ts, ts_window_ns,
                         want_profile](const pvm::sweep::MatrixCell& cell) {
    pvm::bench::CellConfig config;
    config.mode = cell.mode;
    config.policy = cell.policy;
    config.schedule_seed = cell.seed;
    config.fault_plan = cell.fault_plan;
    config.timeseries = want_ts;
    config.ts_window_ns = ts_window_ns;
    config.profile = want_profile;
    const pvm::bench::CellOutcome outcome =
        pvm::bench::run_workload_cell(cell.workload, config);
    pvm::sweep::CellResult result;
    result.ok = outcome.ok;
    result.error = outcome.error;
    result.bench_json = outcome.bench_json;
    result.ts_json = outcome.ts_json;
    result.profile_json = outcome.profile_json;
    result.events = outcome.events;
    return result;
  };

  std::atomic<std::uint64_t> fresh_cells{0};
  std::atomic<bool> stopped{false};
  const auto runner = [&](const pvm::sweep::MatrixCell& cell) -> pvm::sweep::CellResult {
    if (cached[cell.index].has_value()) {
      return *cached[cell.index];
    }
    if (checkpoint_stop_after != 0 &&
        fresh_cells.fetch_add(1, std::memory_order_relaxed) >= checkpoint_stop_after) {
      stopped.store(true, std::memory_order_relaxed);
      pvm::sweep::CellResult skipped;
      skipped.ok = false;
      skipped.error = "not run: --checkpoint-stop-after";
      return skipped;
    }
    pvm::sweep::CellResult result = run_cell(cell);
    if (checkpoint) {
      checkpoint->append(cell.index, encode_cell_result(result));
    }
    return result;
  };

  pvm::sweep::SweepTiming sweep_timing;
  const std::vector<pvm::sweep::CellResult> cells =
      pvm::sweep::run_matrix(spec, jobs, runner, &sweep_timing);

  if (stopped.load(std::memory_order_relaxed)) {
    // Deliberate mid-run stop: the checkpoint holds everything computed so
    // far; no document is written (it would embed the skipped cells).
    const std::size_t done =
        std::min<std::size_t>(checkpoint->replayed() + checkpoint_stop_after, cells.size());
    std::fprintf(stderr,
                 "pvm-matrix: stopped after %llu fresh cell(s) (%zu/%zu checkpointed); "
                 "resume with --checkpoint %s\n",
                 static_cast<unsigned long long>(checkpoint_stop_after), done, cells.size(),
                 checkpoint_path.c_str());
    return 3;
  }
  if (checkpoint) {
    // The completed file is the same at any --jobs and after any resumes.
    checkpoint->complete([&cells](std::size_t i) { return encode_cell_result(cells[i]); });
  }

  const std::string document =
      pvm::sweep::render_matrix_json(spec, cells, timing ? &sweep_timing : nullptr);

  if (out_path.empty()) {
    std::fwrite(document.data(), 1, document.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "pvm-matrix: cannot open " << out_path << " for writing\n";
      return 2;
    }
    out << document;
  }

  if (want_ts) {
    // Cells merge in index order — the same discipline as the matrix
    // document itself — so this export is byte-identical across --jobs.
    pvm::ts::TsDoc merged;
    for (const pvm::sweep::CellResult& cell : cells) {
      if (cell.ts_json.empty()) {
        continue;
      }
      pvm::ts::TsDoc doc;
      std::string error;
      if (!pvm::ts::parse_timeseries_json(cell.ts_json, &doc, &error) ||
          !pvm::ts::merge_timeseries(&merged, doc, &error)) {
        std::cerr << "pvm-matrix: timeseries merge failed: " << error << "\n";
        return 2;
      }
    }
    pvm::ts::evaluate_slos(&merged, slo_specs);
    const std::string ts_document = pvm::ts::render_timeseries_json(merged);
    std::ofstream out(ts_path, std::ios::binary);
    if (!out) {
      std::cerr << "pvm-matrix: cannot open " << ts_path << " for writing\n";
      return 2;
    }
    out << ts_document;
  }

  if (want_profile) {
    // Same index-order merge discipline: byte-identical across --jobs.
    pvm::prof::ProfDoc merged;
    for (const pvm::sweep::CellResult& cell : cells) {
      if (cell.profile_json.empty()) {
        continue;
      }
      pvm::prof::ProfDoc doc;
      std::string error;
      if (!pvm::prof::parse_profile_json(cell.profile_json, &doc, &error) ||
          !pvm::prof::merge_profile(&merged, doc, &error)) {
        std::cerr << "pvm-matrix: profile merge failed: " << error << "\n";
        return 2;
      }
    }
    const std::string profile_document = pvm::prof::render_profile_json(merged);
    std::ofstream out(profile_path, std::ios::binary);
    if (!out) {
      std::cerr << "pvm-matrix: cannot open " << profile_path << " for writing\n";
      return 2;
    }
    out << profile_document;
  }
  // Wall clock always goes to stderr (whether or not --timing embedded it):
  // the document stays diffable, the operator still sees throughput.
  std::fprintf(stderr,
               "pvm-matrix: %zu cell(s), jobs=%d, wall %.2fs (%.1f cells/s, %.0f events/s)\n",
               cells.size(), sweep_timing.jobs, sweep_timing.wall_seconds,
               sweep_timing.cells_per_second(), sweep_timing.events_per_second());

  std::size_t failed = 0;
  for (const pvm::sweep::CellResult& cell : cells) {
    if (!cell.ok) {
      ++failed;
    }
  }
  if (failed != 0) {
    std::fprintf(stderr, "pvm-matrix: %zu cell(s) failed\n", failed);
    return 1;
  }
  return 0;
}
