// pvm-stat — kvm_stat-style exit accounting for the simulated platform.
//
// Runs a memstress workload under each requested deployment mode with the
// flight-recorder ring capacity raised high enough to hold the whole run,
// then pairs every exit with the entry that completes it on the same track:
//
//   switcher   kSwitcherExit(reason) -> next kSwitcherEntry   (world switch)
//   vmx        kVmxExit(reason)      -> next kVmxEntry        (L0 roundtrip)
//   direct     kDirectSwitch                                  (no exit at all)
//
// and prints one count/avg/P99 row per (class, reason), per mode — the same
// table kvm_stat derives from the kvm:kvm_exit tracepoint, except here the
// latencies are exact virtual-clock intervals, not sampled deltas.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/backends/platform.h"
#include "src/metrics/histogram.h"
#include "src/obs/flight.h"
#include "src/obs/json.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm {
namespace {

// Row ordering. kvm_stat's default is weight (count); avg and p99 surface
// the slow-but-rare rows instead. Ties always fall back to the deterministic
// (class, reason) map order, so every sort is byte-reproducible.
enum class SortKey { kCount, kAvg, kP99 };

struct StatOptions {
  std::vector<DeployMode> modes;
  int processes = 2;
  std::uint64_t bytes_per_process = 4ull << 20;
  std::size_t ring_capacity = 1ull << 20;
  SortKey sort = SortKey::kCount;
  bool json = false;
  bool csv = false;
};

struct Row {
  std::string cls;
  std::string reason;
  MergeableHistogram latency;
};

struct ModeStats {
  DeployMode mode = DeployMode::kPvmNst;
  std::uint64_t sim_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::vector<Row> rows;
};

// Row keys aggregate across tracks: (class, reason code). Classes are small
// ints so the map iterates switcher, then vmx, then direct, deterministically.
enum RowClass { kClassSwitcher = 0, kClassVmx = 1, kClassDirect = 2 };

std::string_view row_class_name(int cls) {
  switch (cls) {
    case kClassSwitcher:
      return "switcher";
    case kClassVmx:
      return "vmx";
    case kClassDirect:
      return "direct";
    default:
      return "?";
  }
}

ModeStats run_mode(DeployMode mode, const StatOptions& options) {
  PlatformConfig config;
  config.mode = mode;
  VirtualPlatform platform(config);
  // Raise the ring size before the run creates any track: capacity binds at
  // a track's first event, and accounting needs the run unwrapped.
  platform.flight().set_capacity(options.ring_capacity);

  SecureContainer& container = platform.create_container("stat");
  platform.sim().spawn(container.boot(), "boot");
  platform.sim().run();

  run_processes_in_container(
      platform, container, options.processes,
      [&container, &options](int index, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        MemStressParams params;
        params.total_bytes = options.bytes_per_process;
        params.chunk_bytes = 256ull << 10;
        params.seed = static_cast<std::uint64_t>(index) + 1;
        return memstress_process(container, vcpu, proc, params);
      });

  ModeStats stats;
  stats.mode = mode;
  stats.sim_ns = platform.sim().now();
  stats.events = platform.flight().total_events();
  stats.dropped = platform.flight().dropped_events();

  std::map<std::pair<int, int>, MergeableHistogram> rows;
  // Per-track open exit awaiting its entry, per class (a vmx roundtrip can
  // nest inside a switcher exit window, so the classes pair independently).
  std::map<std::int64_t, const flight::Event*> open_switch;
  std::map<std::int64_t, const flight::Event*> open_vmx;
  const std::vector<flight::Event> merged = platform.flight().merged();
  for (const flight::Event& event : merged) {
    switch (event.kind) {
      case flight::EventKind::kSwitcherExit:
        open_switch[event.track] = &event;
        break;
      case flight::EventKind::kSwitcherEntry:
        if (const flight::Event*& open = open_switch[event.track]; open != nullptr) {
          rows[{kClassSwitcher, open->code}].record(event.t - open->t);
          open = nullptr;
        }
        break;
      case flight::EventKind::kVmxExit:
        open_vmx[event.track] = &event;
        break;
      case flight::EventKind::kVmxEntry:
        if (const flight::Event*& open = open_vmx[event.track]; open != nullptr) {
          rows[{kClassVmx, open->code}].record(event.t - open->t);
          open = nullptr;
        }
        break;
      case flight::EventKind::kDirectSwitch:
        // Self-contained: the event carries its own duration.
        rows[{kClassDirect, event.code}].record(event.b);
        break;
      default:
        break;
    }
  }

  for (const auto& [key, hist] : rows) {
    Row row;
    row.cls = row_class_name(key.first);
    switch (key.first) {
      case kClassSwitcher:
        row.reason = flight::switch_reason_label(static_cast<std::uint8_t>(key.second));
        break;
      case kClassVmx:
        row.reason = flight::exit_reason_label(static_cast<std::uint8_t>(key.second));
        break;
      default:
        row.reason = key.second == 0 ? "to-kernel" : "to-user";
        break;
    }
    row.latency = hist;
    stats.rows.push_back(std::move(row));
  }
  // kvm_stat orders by weight by default; ties fall back to the
  // deterministic map order.
  std::stable_sort(stats.rows.begin(), stats.rows.end(),
                   [sort = options.sort](const Row& x, const Row& y) {
                     switch (sort) {
                       case SortKey::kAvg:
                         return x.latency.mean() > y.latency.mean();
                       case SortKey::kP99:
                         return x.latency.quantile(0.99) > y.latency.quantile(0.99);
                       case SortKey::kCount:
                         break;
                     }
                     return x.latency.count() > y.latency.count();
                   });
  return stats;
}

void print_text(const std::vector<ModeStats>& all, const StatOptions& options) {
  std::printf("pvm-stat: exit accounting (memstress, %d process(es) x %" PRIu64
              " KiB, virtual-clock latencies)\n\n",
              options.processes, options.bytes_per_process >> 10);
  for (const ModeStats& stats : all) {
    std::printf("mode %s: %" PRIu64 " flight events (%" PRIu64
                " dropped), sim time %" PRIu64 " ns\n",
                std::string(deploy_mode_name(stats.mode)).c_str(), stats.events,
                stats.dropped, stats.sim_ns);
    std::printf("  %-9s %-18s %10s %12s %12s %14s\n", "class", "reason", "count",
                "avg_ns", "p99_ns", "total_ns");
    for (const Row& row : stats.rows) {
      std::printf("  %-9s %-18s %10" PRIu64 " %12.1f %12" PRIu64 " %14" PRIu64 "\n",
                  row.cls.c_str(), row.reason.c_str(), row.latency.count(),
                  row.latency.mean(), row.latency.quantile(0.99), row.latency.sum());
    }
    std::printf("\n");
  }
}

// RFC 4180 field quoting: wrap in double quotes (doubling inner quotes) only
// when the field contains a comma, quote, or line break. Today's mode/class/
// reason labels are fixed tokens, so this is byte-identical for them — but a
// future label derived from a user-named resource must not be able to smuggle
// extra columns or rows into the CSV.
std::string csv_field(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) {
    return field;
  }
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') {
      quoted += '"';
    }
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

// One flat CSV row per (mode, class, reason), header first — the shape
// spreadsheet pivots and pandas.read_csv want.
void print_csv(const std::vector<ModeStats>& all) {
  std::printf("mode,class,reason,count,avg_ns,p99_ns,total_ns\n");
  for (const ModeStats& stats : all) {
    const std::string token(deploy_mode_token(stats.mode));
    for (const Row& row : stats.rows) {
      std::printf("%s,%s,%s,%" PRIu64 ",%.1f,%" PRIu64 ",%" PRIu64 "\n",
                  csv_field(token).c_str(), csv_field(row.cls).c_str(),
                  csv_field(row.reason).c_str(), row.latency.count(), row.latency.mean(),
                  row.latency.quantile(0.99), row.latency.sum());
    }
  }
}

void print_json(const std::vector<ModeStats>& all, const StatOptions& options) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("pvm.stat.v1");
  json.key("workload").begin_object()
      .key("name").value("memstress")
      .key("processes").value(static_cast<std::uint64_t>(options.processes))
      .key("bytes_per_process").value(options.bytes_per_process)
      .end_object();
  json.key("modes").begin_array();
  for (const ModeStats& stats : all) {
    json.begin_object();
    json.key("mode").value(deploy_mode_name(stats.mode));
    json.key("token").value(deploy_mode_token(stats.mode));
    json.key("sim_ns").value(stats.sim_ns);
    json.key("events").value(stats.events);
    json.key("dropped").value(stats.dropped);
    json.key("rows").begin_array();
    for (const Row& row : stats.rows) {
      json.begin_object()
          .key("class").value(row.cls)
          .key("reason").value(row.reason)
          .key("count").value(row.latency.count())
          .key("avg_ns").value(row.latency.mean())
          .key("p99_ns").value(row.latency.quantile(0.99))
          .key("total_ns").value(row.latency.sum())
          .end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--modes all|tok1,tok2,...] [--processes N] [--kbytes N]\n"
               "          [--capacity N] [--sort count|avg|p99] [--json|--csv]\n"
               "  --modes      deployment modes to account (tokens as in simcheck:\n"
               "               ept-bm, kvm-spt, pvm-bm, ept, pvm, spt-on-ept,\n"
               "               pvm-direct); default all\n"
               "  --processes  memstress processes per mode (default 2)\n"
               "  --kbytes     KiB touched per process (default 4096)\n"
               "  --capacity   flight-ring capacity per track (default 1048576)\n"
               "  --sort       row order within each mode: count (default, the\n"
               "               kvm_stat weight order), avg, or p99\n"
               "  --json       emit pvm.stat.v1 JSON on stdout instead of the table\n"
               "  --csv        emit one flat CSV row per (mode, class, reason)\n",
               argv0);
  return 2;
}

int stat_main(int argc, char** argv) {
  StatOptions options;
  std::string modes_arg = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--modes" && i + 1 < argc) {
      modes_arg = argv[++i];
    } else if (arg == "--processes" && i + 1 < argc) {
      options.processes = std::atoi(argv[++i]);
    } else if (arg == "--kbytes" && i + 1 < argc) {
      options.bytes_per_process = std::strtoull(argv[++i], nullptr, 10) << 10;
    } else if (arg == "--capacity" && i + 1 < argc) {
      options.ring_capacity = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--sort" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "count") {
        options.sort = SortKey::kCount;
      } else if (value == "avg") {
        options.sort = SortKey::kAvg;
      } else if (value == "p99") {
        options.sort = SortKey::kP99;
      } else {
        std::fprintf(stderr, "unknown sort key: %s\n", value.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--csv") {
      options.csv = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.processes < 1 || options.bytes_per_process == 0 ||
      options.ring_capacity == 0 || (options.json && options.csv)) {
    return usage(argv[0]);
  }

  std::string bad;
  if (!parse_deploy_mode_list(modes_arg, &options.modes, &bad)) {
    std::fprintf(stderr, "unknown mode token: %s\n", bad.c_str());
    return usage(argv[0]);
  }

  std::vector<ModeStats> all;
  for (const DeployMode mode : options.modes) {
    all.push_back(run_mode(mode, options));
  }
  if (options.json) {
    print_json(all, options);
  } else if (options.csv) {
    print_csv(all);
  } else {
    print_text(all, options);
  }
  return 0;
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) { return pvm::stat_main(argc, argv); }
