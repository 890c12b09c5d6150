// pvm::flight — always-on black-box flight recorder.
//
// Fixed-capacity per-track binary ring buffers on the virtual clock. A track
// is a root task of the Simulation (in practice: one per vCPU run loop, plus
// watchdogs and chaos agents). Each event is one compact POD record — kind,
// two payload words, a small code — cheap enough to leave recording on for
// every run, including the full-sweep benches. When a run dies (oracle
// violation, deadlock, watchdog kill, guest OOM) the last N events per track
// are rendered as an interleaved timeline and a versioned postmortem JSON.
//
// Determinism: events are stamped with the virtual clock and a global
// monotonic sequence number assigned in execution order. Two runs with the
// same (policy, seed, config) produce byte-identical dumps.

#ifndef PVM_SRC_OBS_FLIGHT_H_
#define PVM_SRC_OBS_FLIGHT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ranges>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/ts.h"
#include "src/sim/flat_map.h"

namespace pvm {

class Simulation;

namespace flight {

enum class EventKind : std::uint8_t {
  kSwitcherExit,   // world switch out of the guest; code = SwitchReason
  kSwitcherEntry,  // world switch into a guest ring; code = target ring
  kDirectSwitch,   // PVM user<->kernel switch w/o hypervisor; code = 0 to
                   // kernel, 1 to user; b = switch duration ns
  kVmxExit,        // L0 VM-exit; code = ExitKind
  kVmxEntry,       // L0 VM-entry completing a roundtrip
  kGuestFault,     // backend fault-resolution start; a = gva
  kSptFill,        // a = gva, b = pid; code = 0 fill, 1 prefault, 2 raced
  kZap,            // a = gva, b = pid
  kBulkZap,        // a = leaves zapped, b = pid
  kReclaim,        // a = frames reclaimed, b = shadow leaves zapped
  kGptEmulate,     // write-protected GPT store emulated; a = gpa
  kLockAcquire,    // a = lock_word(); code = 0 uncontended,
                   // 1 contended; b = virtual ns spent waiting
  kLockRelease,    // a = lock_word()
  kFaultInjected,  // a = interned site name; code = fault::FaultKind
  kWatchdog,       // a = vcpu index; code = 0 kick, 1 reset, 2 kill
  kOomKill,        // guest OOM kill; a = pid, b = data frames freed
  kMigrationRound,     // pre-copy round done; a = pages copied, b = dirtied
  kMigrationStopCopy,  // stop-and-copy pause; a = pages, b = downtime ns
  kMigrationFallback,  // pre-copy degraded to post-copy; a = pages left
  kCount,
};

constexpr std::size_t kEventKindCount = static_cast<std::size_t>(EventKind::kCount);

// Pseudo exit-reason codes for kVmxExit events from the nested-VMX emulation
// protocol: traps with no hv::ExitKind value of their own. Appended after
// ExitKind's 10 real reasons so one code space covers both.
inline constexpr std::uint8_t kExitCodeVmresumeTrap = 10;
inline constexpr std::uint8_t kExitCodeEpt12Store = 11;

std::string_view event_kind_name(EventKind kind);

// Payload word `a` of kLockAcquire/kLockRelease: the lock class's interned
// name in the low 24 bits and the instance key plus one above them. A
// class's sole instance has key ~0, so its word is the class id alone.
// Keys below kMaxLockKey fit.
inline constexpr int kLockClassBits = 24;
inline constexpr std::uint64_t kLockClassMask = (std::uint64_t{1} << kLockClassBits) - 1;
inline constexpr std::uint64_t kMaxLockKey = (std::uint64_t{1} << (64 - kLockClassBits)) - 1;

constexpr std::uint64_t lock_word(std::uint64_t class_id, std::uint64_t key) {
  return class_id | (key + 1) << kLockClassBits;
}

// Reason labels for the codes carried by kSwitcherExit / kVmxExit events
// ("page-fault", "ept-violation", ...; includes the pseudo codes above).
// pvm-stat renders its exit-accounting table through these.
std::string_view switch_reason_label(std::uint8_t code);
std::string_view exit_reason_label(std::uint8_t code);

struct Event {
  std::uint64_t t = 0;    // virtual clock, ns
  std::uint64_t seq = 0;  // global execution order across all tracks
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::int64_t track = -1;  // recording root task (-1: outside any root)
  EventKind kind = EventKind::kCount;
  std::uint8_t code = 0;
};

class FlightRecorder {
 public:
  // Per-track ring. Capacity is fixed at ring creation (first event on that
  // track); `cursor` is the slot the next event lands in, and `total` keeps
  // counting past wraparound so dropped() is exact.
  struct Ring {
    std::int64_t track = -1;
    std::vector<Event> buf;
    std::uint64_t total = 0;
    std::size_t capacity = 0;
    std::size_t cursor = 0;

    std::uint64_t dropped() const { return total > capacity ? total - capacity : 0; }

    // Events in recording order (oldest surviving first).
    std::vector<Event> snapshot() const {
      if (total <= capacity) {
        return buf;
      }
      std::vector<Event> out;
      out.reserve(buf.size());
      const auto start = buf.begin() + static_cast<std::ptrdiff_t>(cursor);
      out.insert(out.end(), start, buf.end());
      out.insert(out.end(), buf.begin(), start);
      return out;
    }
  };

  static constexpr std::size_t kDefaultCapacity = 256;

  // Attach to a simulation's clock and scheduler state. Instrumented sites
  // reach the recorder through Simulation::flight(); a null recorder (plain
  // Simulations built outside VirtualPlatform) costs one pointer test.
  void bind(const std::uint64_t* now, const std::int64_t* active_root) {
    now_ = now;
    active_root_ = active_root;
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Ring capacity for tracks created after this call. pvm-stat raises it so
  // whole workloads fit; the default keeps the always-on footprint small.
  void set_capacity(std::size_t capacity) { capacity_ = capacity == 0 ? 1 : capacity; }
  std::size_t capacity() const { return capacity_; }

  // Attaches (or detaches, with nullptr) a time-series collector. Every
  // recorded event is forwarded before ring storage, so the collector sees
  // the full stream regardless of ring wraparound. Normally wired through
  // Simulation::set_ts rather than called directly.
  void set_ts(ts::Collector* collector) { ts_ = collector; }
  ts::Collector* ts() const { return ts_; }

  void record(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint8_t code = 0) {
    if (!enabled_ || now_ == nullptr) {
      return;
    }
    const std::int64_t track = active_root_ != nullptr ? *active_root_ : -1;
    // The seq is assigned before the ts bridge runs so histogram exemplars
    // carry the exact seq this event lands in the rings with.
    const std::uint64_t seq = next_seq_++;
    if (ts_ != nullptr) {
      ts_->on_flight_event(*now_, track, static_cast<std::uint8_t>(kind), a, b, code, seq);
    }
    Ring& ring = ring_for(track);
    const Event ev{*now_, seq, a, b, track, kind, code};
    if (ring.cursor == ring.buf.size()) {
      ring.buf.push_back(ev);  // still filling: the ring grows to capacity
    } else {
      ring.buf[ring.cursor] = ev;
    }
    if (++ring.cursor == ring.capacity) {
      ring.cursor = 0;
    }
    ++ring.total;
  }

  // Intern a lock/site name into a stable small id (payload word `a`).
  // Ids are assigned in first-use order, which is deterministic. Each name is
  // stored once; the index maps a name's 32-bit hash to the newest id with
  // that hash, and same_hash_ chains the older ones.
  std::uint64_t intern(std::string_view name) {
    const auto hash = static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
    const auto id = static_cast<std::uint32_t>(name_ends_.size());
    auto [newest, inserted] = by_hash_.try_emplace(hash, id);
    if (!inserted) {
      for (std::uint32_t other = *newest; other != kNoName; other = same_hash_[other]) {
        if (this->name(other) == name) {
          return other;
        }
      }
    }
    same_hash_.push_back(inserted ? kNoName : std::exchange(*newest, id));
    names_.append(name);
    name_ends_.push_back(names_.size());
    return id;
  }

  std::string_view name(std::uint64_t id) const {
    if (id >= name_ends_.size()) {
      return "?";
    }
    const std::size_t begin = id == 0 ? 0 : name_ends_[id - 1];
    return std::string_view(names_).substr(begin, name_ends_[id] - begin);
  }

  // The rings of every track that recorded, in ascending track order.
  auto rings() const {
    return std::views::filter(rings_, [](const Ring& ring) { return ring.capacity != 0; });
  }

  // `track`'s ring, or nullptr if it never recorded.
  const Ring* ring(std::int64_t track) const {
    const auto index = static_cast<std::size_t>(track + 1);
    return index < rings_.size() && rings_[index].capacity != 0 ? &rings_[index] : nullptr;
  }

  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const Ring& ring : rings_) {
      n += ring.total;
    }
    return n;
  }

  std::uint64_t dropped_events() const {
    std::uint64_t n = 0;
    for (const Ring& ring : rings_) {
      n += ring.dropped();
    }
    return n;
  }

  // All surviving events from every track, merged into execution order.
  std::vector<Event> merged() const;

  void clear() {
    rings_.clear();
    next_seq_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoName = ~0u;

  // Rings are indexed by track + 1 (track -1 records outside any root task),
  // so finding one is an array index; a slot with capacity 0 has no ring yet.
  Ring& ring_for(std::int64_t track) {
    const auto index = static_cast<std::size_t>(track + 1);
    if (index >= rings_.size()) {
      rings_.resize(index + 1);
    }
    Ring& ring = rings_[index];
    if (ring.capacity == 0) {
      ring.track = track;
      ring.capacity = capacity_;
      ring.buf.reserve(ring.capacity < 64 ? ring.capacity : 64);
    }
    return ring;
  }

  const std::uint64_t* now_ = nullptr;
  const std::int64_t* active_root_ = nullptr;
  ts::Collector* ts_ = nullptr;
  bool enabled_ = true;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t next_seq_ = 0;
  std::vector<Ring> rings_;
  std::string names_;                   // every interned name, back to back
  std::vector<std::size_t> name_ends_;  // name_ends_[id]: end of name `id` in names_
  FlatMap<std::uint32_t, std::uint32_t, IdentityHash> by_hash_;
  std::vector<std::uint32_t> same_hash_;  // id -> next older id with its hash
};

// One-line human-readable rendering of an event's payload ("gva=0x... pid=2").
std::string event_detail(const FlightRecorder& recorder, const Event& event);

// Interleaved human-readable timeline of the last events on every track.
// `sim` (optional) resolves track ids to root-task names.
std::string render_flight_timeline(const FlightRecorder& recorder, const Simulation* sim);

// Versioned machine-readable postmortem. Schema pvm.postmortem.v1:
//   {schema, reason, reproduce, sim_ns, total_events, dropped_events,
//    diagnostics: [...], tracks: [{track, name, total, dropped,
//    events: [{t, seq, kind, a, b, code, detail}]}]}
// `reproduce` embeds the simcheck reproduce line when the dump comes from a
// sweep case; empty otherwise.
std::string render_postmortem_json(const FlightRecorder& recorder, const Simulation* sim,
                                   std::string_view reason, std::string_view reproduce);

}  // namespace flight
}  // namespace pvm

#endif  // PVM_SRC_OBS_FLIGHT_H_
