#include "src/obs/flight.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/json.h"
#include "src/sim/simulation.h"

namespace pvm::flight {

namespace {

// Rendering tables for the codes carried by switcher / L0 events. These
// mirror core::SwitchReason and hv::ExitKind by value; the flight recorder
// deliberately does not include those headers — it sits below every layer it
// records, like kvm_stat's exit-reason string table sits outside the vmx
// handlers. The table0b protocol-count tests pin the enum orders, so drift
// shows up as a test failure, not a silently wrong dump.
constexpr std::string_view kSwitchReasonNames[] = {
    "syscall", "hypercall", "exception", "interrupt", "page-fault", "gpt-write-protect",
};

constexpr std::string_view kExitKindNames[] = {
    "hypercall", "exception", "msr-access", "cpuid",         "port-io",       "io-kick",
    "interrupt", "cr3-write", "ept-violation", "halt",       "vmresume-trap", "ept12-store",
};

constexpr std::string_view kWatchdogActionNames[] = {"kick", "reset", "kill"};

std::string_view lookup(std::string_view const* table, std::size_t size, std::uint8_t code) {
  return code < size ? table[code] : std::string_view("?");
}

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string dec(std::uint64_t value) { return std::to_string(value); }

// The instance a lock_word() names: "<class>.<key>", or the class alone.
std::string lock_name(const FlightRecorder& recorder, std::uint64_t word) {
  std::string name(recorder.name(word & kLockClassMask));
  if (const std::uint64_t key_plus_one = word >> kLockClassBits; key_plus_one != 0) {
    name += "." + dec(key_plus_one - 1);
  }
  return name;
}

}  // namespace

std::string_view switch_reason_label(std::uint8_t code) {
  return lookup(kSwitchReasonNames, std::size(kSwitchReasonNames), code);
}

std::string_view exit_reason_label(std::uint8_t code) {
  return lookup(kExitKindNames, std::size(kExitKindNames), code);
}

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSwitcherExit:
      return "switcher-exit";
    case EventKind::kSwitcherEntry:
      return "switcher-entry";
    case EventKind::kDirectSwitch:
      return "direct-switch";
    case EventKind::kVmxExit:
      return "vmx-exit";
    case EventKind::kVmxEntry:
      return "vmx-entry";
    case EventKind::kGuestFault:
      return "guest-fault";
    case EventKind::kSptFill:
      return "spt-fill";
    case EventKind::kZap:
      return "zap";
    case EventKind::kBulkZap:
      return "bulk-zap";
    case EventKind::kReclaim:
      return "reclaim";
    case EventKind::kGptEmulate:
      return "gpt-emulate";
    case EventKind::kLockAcquire:
      return "lock-acquire";
    case EventKind::kLockRelease:
      return "lock-release";
    case EventKind::kFaultInjected:
      return "fault-injected";
    case EventKind::kWatchdog:
      return "watchdog";
    case EventKind::kOomKill:
      return "oom-kill";
    case EventKind::kMigrationRound:
      return "migration-round";
    case EventKind::kMigrationStopCopy:
      return "migration-stop-copy";
    case EventKind::kMigrationFallback:
      return "migration-fallback";
    case EventKind::kCount:
      break;
  }
  return "?";
}

std::vector<Event> FlightRecorder::merged() const {
  std::vector<Event> all;
  for (const Ring& ring : rings()) {
    const std::vector<Event> events = ring.snapshot();
    all.insert(all.end(), events.begin(), events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return all;
}

std::string event_detail(const FlightRecorder& recorder, const Event& event) {
  switch (event.kind) {
    case EventKind::kSwitcherExit:
      return "reason=" + std::string(lookup(kSwitchReasonNames,
                                            std::size(kSwitchReasonNames), event.code));
    case EventKind::kSwitcherEntry:
      return "ring=" + dec(event.code);
    case EventKind::kDirectSwitch:
      return std::string("to=") + (event.code == 0 ? "kernel" : "user") +
             " cost=" + dec(event.b) + "ns";
    case EventKind::kVmxExit:
      return "reason=" +
             std::string(lookup(kExitKindNames, std::size(kExitKindNames), event.code));
    case EventKind::kVmxEntry:
      return "";
    case EventKind::kGuestFault:
      return "gva=" + hex(event.a);
    case EventKind::kSptFill:
      return "gva=" + hex(event.a) + " pid=" + dec(event.b) +
             (event.code == 1 ? " prefault" : event.code == 2 ? " raced" : "");
    case EventKind::kZap:
      return "gva=" + hex(event.a) + " pid=" + dec(event.b);
    case EventKind::kBulkZap:
      return "leaves=" + dec(event.a) + " pid=" + dec(event.b);
    case EventKind::kReclaim:
      return "frames=" + dec(event.a) + " leaves=" + dec(event.b);
    case EventKind::kGptEmulate:
      return "gpa=" + hex(event.a);
    case EventKind::kLockAcquire:
      return "\"" + lock_name(recorder, event.a) + "\"" +
             (event.code == 1 ? " contended wait=" + dec(event.b) + "ns" : "");
    case EventKind::kLockRelease:
      return "\"" + lock_name(recorder, event.a) + "\"";
    case EventKind::kFaultInjected:
      return std::string(recorder.name(event.a));
    case EventKind::kWatchdog:
      return std::string(lookup(kWatchdogActionNames, std::size(kWatchdogActionNames),
                                event.code)) +
             " vcpu=" + dec(event.a);
    case EventKind::kOomKill:
      return "pid=" + dec(event.a) + " frames=" + dec(event.b);
    case EventKind::kMigrationRound:
      return "copied=" + dec(event.a) + " dirtied=" + dec(event.b) +
             " round=" + dec(event.code);
    case EventKind::kMigrationStopCopy:
      return "pages=" + dec(event.a) + " downtime=" + dec(event.b) + "ns";
    case EventKind::kMigrationFallback:
      return "remaining=" + dec(event.a);
    case EventKind::kCount:
      break;
  }
  return "";
}

namespace {

std::string track_label(const Simulation* sim, std::int64_t track) {
  if (track < 0) {
    return "<unattributed>";
  }
  if (sim != nullptr && static_cast<std::size_t>(track) < sim->root_count()) {
    return sim->root_name(static_cast<std::size_t>(track));
  }
  return "track#" + std::to_string(track);
}

}  // namespace

std::string render_flight_timeline(const FlightRecorder& recorder, const Simulation* sim) {
  std::string out;
  out += "flight timeline (" + std::to_string(recorder.total_events()) + " events recorded, " +
         std::to_string(recorder.dropped_events()) + " dropped to ring wraparound):\n";
  for (const Event& event : recorder.merged()) {
    char head[64];
    std::snprintf(head, sizeof(head), "  t=%-12llu #%-6llu ",
                  static_cast<unsigned long long>(event.t),
                  static_cast<unsigned long long>(event.seq));
    out += head;
    out += "[" + track_label(sim, event.track) + "] ";
    out += event_kind_name(event.kind);
    const std::string detail = event_detail(recorder, event);
    if (!detail.empty()) {
      out += " " + detail;
    }
    out += "\n";
  }
  return out;
}

std::string render_postmortem_json(const FlightRecorder& recorder, const Simulation* sim,
                                   std::string_view reason, std::string_view reproduce) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("pvm.postmortem.v1");
  json.key("reason").value(reason);
  json.key("reproduce").value(reproduce);
  json.key("sim_ns").value(sim != nullptr ? static_cast<std::uint64_t>(sim->now()) : 0);
  json.key("total_events").value(recorder.total_events());
  json.key("dropped_events").value(recorder.dropped_events());
  json.key("diagnostics").begin_array();
  if (sim != nullptr) {
    for (const std::string& line : sim->diagnostics()) {
      json.value(line);
    }
  }
  json.end_array();
  json.key("tracks").begin_array();
  for (const FlightRecorder::Ring& ring : recorder.rings()) {
    json.begin_object();
    json.key("track").value(ring.track);
    json.key("name").value(track_label(sim, ring.track));
    json.key("total").value(ring.total);
    json.key("dropped").value(ring.dropped());
    json.key("events").begin_array();
    for (const Event& event : ring.snapshot()) {
      json.begin_object();
      json.key("t").value(event.t);
      json.key("seq").value(event.seq);
      json.key("kind").value(event_kind_name(event.kind));
      json.key("a").value(event.a);
      json.key("b").value(event.b);
      json.key("code").value(static_cast<std::uint64_t>(event.code));
      const std::string detail = event_detail(recorder, event);
      if (!detail.empty()) {
        json.key("detail").value(detail);
      }
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace pvm::flight
