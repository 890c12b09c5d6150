// Discrete-event simulation kernel.
//
// The simulation owns a virtual clock in nanoseconds and a time-ordered event
// queue of coroutine resumptions. Simulated work never consumes wall-clock
// time: protocol code charges virtual time with `co_await sim.delay(ns)` and
// models contended structures (mmu_lock, the L0 hypervisor, ...) with
// `Resource` (resource.h). All scheduling is deterministic: ties in time are
// broken by the configured SchedulePolicy (FIFO insertion order by default),
// so each (policy, seed) pair explores one reproducible interleaving of
// same-timestamp events — the schedule-exploration surface simcheck sweeps.

#ifndef PVM_SRC_SIM_SIMULATION_H_
#define PVM_SRC_SIM_SIMULATION_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/task.h"

namespace pvm {

class LockClass;

namespace obs {
class SpanRecorder;
}  // namespace obs

namespace fault {
class FaultInjector;
}  // namespace fault

namespace flight {
class FlightRecorder;
}  // namespace flight

namespace ts {
class Collector;
}  // namespace ts

// Virtual time in nanoseconds since simulation start.
using SimTime = std::uint64_t;

inline constexpr SimTime kNsPerUs = 1000;
inline constexpr SimTime kNsPerMs = 1000 * 1000;
inline constexpr SimTime kNsPerSec = 1000ull * 1000 * 1000;

// Tie-breaking rule among events scheduled for the same virtual time. Every
// policy is a *legal* serialization of the simulated concurrency (time order
// is always respected); FIFO is the historical default, LIFO maximally
// inverts it, and kRandom draws a deterministic per-event priority from the
// schedule seed so each seed explores a different interleaving.
enum class SchedulePolicy { kFifo, kRandom, kLifo };

constexpr std::string_view schedule_policy_name(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kFifo:
      return "fifo";
    case SchedulePolicy::kRandom:
      return "random";
    case SchedulePolicy::kLifo:
      return "lifo";
  }
  return "?";
}

// The live lock classes of one Simulation, oldest registration first: one
// per singleton or pool Resource, and one per keyed class (an SPT lock kind).
// Readers (contention stats, blocked_report, bench exports) rely on that
// order for byte-identical output.
class LockClassList {
 public:
  class iterator {
   public:
    explicit iterator(LockClass* at) : at_(at) {}
    LockClass* operator*() const { return at_; }
    iterator& operator++();
    bool operator==(const iterator&) const = default;

   private:
    LockClass* at_;
  };

  iterator begin() const { return iterator(head_); }
  iterator end() const { return iterator(nullptr); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // O(1) append and unlink, through the links inside each LockClass. A
  // LockClass calls these from its constructor and destructor.
  void push_back(LockClass* lock_class);
  void erase(LockClass* lock_class);

 private:
  LockClass* head_ = nullptr;
  LockClass* tail_ = nullptr;
  std::size_t size_ = 0;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  // Current virtual time.
  SimTime now() const { return now_; }

  // Selects the tie-breaking rule for same-timestamp events. Applies to
  // events scheduled from now on; call before spawning work for a fully
  // consistent schedule. (policy, seed) is reproducible bit-for-bit.
  void set_schedule_policy(SchedulePolicy policy, std::uint64_t seed = 0);

  SchedulePolicy schedule_policy() const { return policy_; }
  std::uint64_t schedule_seed() const { return schedule_seed_; }

  // Adopts `task` as a root process; it starts when `run()` reaches the
  // current virtual time. The simulation owns the coroutine frame until the
  // simulation itself is destroyed. `name` labels the task in diagnostics
  // (blocked_report); an empty name becomes "task#<index>".
  void spawn(Task<void> task, std::string name = "");

  // Schedules `handle` to resume at absolute virtual time `when` (>= now).
  // Used by awaitables; not part of the typical user API. The resumption is
  // attributed to the root task currently executing (for deadlock reports);
  // the 3-argument overload attributes it explicitly (used when waking a
  // *different* task's coroutine, e.g. a Resource handing off to a waiter).
  // Inline: this is the simulator's hottest entry point — one call per event
  // — and out-of-line it costs as much as the queue work it wraps.
  void schedule(std::coroutine_handle<> handle, SimTime when) {
    schedule(handle, when, active_root_);
  }
  void schedule(std::coroutine_handle<> handle, SimTime when, std::int64_t root) {
    assert_thread_confined();
    if (when < now_) {
      throw std::logic_error("Simulation::schedule: time went backwards");
    }
    const std::uint64_t seq = next_seq_++;
    queue_.push(SimEvent{when, tie_key(seq), seq, root, handle});
  }

  // Root task (index into spawn order) whose event is currently being
  // executed, or -1 outside run(). Awaitables capture this to attribute
  // waiters to tasks.
  std::int64_t active_root() const { return active_root_; }

  // Name of root task `index` as given to spawn().
  const std::string& root_name(std::size_t index) const { return root_names_.at(index); }

  // Number of root tasks spawned so far.
  std::size_t root_count() const { return root_names_.size(); }

  // Attaches (or detaches, with nullptr) a span recorder. The recorder is
  // bound to this simulation's clock and active-root pointers, so spans open
  // and close on virtual time with per-root-task stacks; instrumented code
  // reads it via spans() and pays one pointer check when none is attached.
  // The recorder must outlive the attachment. Does not enable recording —
  // callers toggle SpanRecorder::set_enabled separately.
  void set_spans(obs::SpanRecorder* spans);
  obs::SpanRecorder* spans() const { return spans_; }

  // Attaches (or detaches, with nullptr) a fault injector, binding it to
  // this simulation's virtual clock so trigger windows evaluate against
  // virtual time. Same contract as set_spans: the injector must outlive the
  // attachment, and instrumented sites pay one pointer check when detached.
  void set_faults(fault::FaultInjector* faults);
  fault::FaultInjector* faults() const { return faults_; }

  // Attaches (or detaches, with nullptr) the black-box flight recorder,
  // binding it to this simulation's clock and active-root pointers so every
  // recorded event carries (virtual time, root task). Unlike spans, the
  // recorder is always on: VirtualPlatform owns one and attaches it at
  // construction. Same lifetime contract as set_spans.
  void set_flight(flight::FlightRecorder* flight);
  flight::FlightRecorder* flight() const { return flight_; }

  // Attaches (or detaches, with nullptr) a time-series collector, binding it
  // to this simulation's virtual clock. If a flight recorder is attached
  // (in either order), its event stream is forwarded into the collector, so
  // every instrumented flight site feeds the time-series for free; direct
  // sites (boot latency, shadow-page gauge) reach it via ts(). Same lifetime
  // contract as set_spans; off by default — benches attach one only when
  // --timeseries is requested, so default runs stay byte-identical.
  void set_ts(ts::Collector* collector);
  ts::Collector* ts() const { return ts_; }

  // Records a recovery-escalation diagnostic (e.g. from the watchdog);
  // appended to blocked_report() so a post-mortem shows what the recovery
  // machinery observed and did before the run wedged or was killed.
  void add_diagnostic(std::string line) { diagnostics_.push_back(std::move(line)); }
  const std::vector<std::string>& diagnostics() const { return diagnostics_; }

  // Live lock classes, in registration order (used by contention reporting
  // and blocked_report). A LockClass registers on construction and
  // unregisters on destruction, each in O(1): the list is threaded through
  // the classes. Lock instances of a keyed class are reached through it.
  const LockClassList& resources() const { return resources_; }

  // Runs until the event queue is empty. Returns the number of events
  // processed. Throws if a root task terminated with an exception.
  std::uint64_t run();

  // Runs until the event queue is empty or virtual time would exceed
  // `deadline`. Events at exactly `deadline` are processed.
  std::uint64_t run_until(SimTime deadline);

  // True if every spawned root task has run to completion. After run(), a
  // false value indicates a deadlock (tasks blocked on resources or awaits
  // that will never fire).
  bool all_tasks_done() const;

  // Number of root tasks still pending.
  std::size_t pending_task_count() const;

  // Human-readable deadlock diagnosis: which root tasks are still pending
  // and which Resource FIFO queues they are parked in. Meaningful after
  // run() returned with !all_tasks_done(); empty string when nothing is
  // pending.
  std::string blocked_report() const;

  // Destroys every root coroutine frame (running their destructors, which
  // release any Resources the frames still hold) and drops all queued
  // resumptions. After a deadlocked run, call this while those Resources are
  // still alive — frame destructors touch them, and by the time ~Simulation
  // runs, locally-scoped or member Resources have typically been destroyed.
  void abandon_pending();

  // Total events processed so far.
  std::uint64_t events_processed() const { return events_processed_; }

  // Event-queue internals: calendar shape plus the event-slot slab's
  // live/high-water accounting (feeds the opt-in `alloc` bench export).
  EventQueueStats event_queue_stats() const { return queue_.stats(); }

  // Awaitable: advance virtual time by `ns`.
  struct DelayAwaiter {
    Simulation* sim;
    SimTime delay_ns;

    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) noexcept {
      sim->schedule(h, sim->now_ + delay_ns);
    }
    void await_resume() const noexcept {}
  };

  DelayAwaiter delay(SimTime ns) { return DelayAwaiter{this, ns}; }

  // Thread confinement: a Simulation is a single-threaded coroutine kernel
  // with no internal locking — the parallel sweep engine (pvm::sweep) gets
  // its speedup from running *whole simulations* on separate threads, never
  // from sharing one. The first spawn/schedule/run binds the simulation to
  // the calling thread; any later use from a different thread throws. (The
  // binding is first-use, not construction, so a sweep may construct a
  // platform on one thread and hand it to a worker before running it.)
  // Inline so the per-schedule check is one TLS address materialization and
  // compare — std::this_thread::get_id() would be a PLT call per event. The
  // address of a thread_local is unique per live thread, which is exactly
  // the guarantee pthread_self gives (both can recycle after thread exit).
  void assert_thread_confined() const {
    if (owner_key_ != thread_key()) [[unlikely]] {
      bind_or_reject_thread();
    }
  }

 private:
  friend class LockClass;  // links itself into resources_

  static const void* thread_key() {
    thread_local char key;
    return &key;
  }

  void bind_or_reject_thread() const;

  std::uint64_t tie_key(std::uint64_t seq) const {
    switch (policy_) {
      case SchedulePolicy::kFifo:
        return seq;
      case SchedulePolicy::kLifo:
        return ~seq;
      case SchedulePolicy::kRandom:
        return random_tie_key(seq);
    }
    return seq;
  }

  std::uint64_t random_tie_key(std::uint64_t seq) const;
  void rethrow_failed_roots();

  // Max same-timestamp events resumed per queue operation (FIFO only).
  static constexpr std::size_t kDispatchBatch = 64;

  // Pops and resumes the front run of same-timestamp events (FIFO) or one
  // event (LIFO/random); returns events dispatched. Exception-safe: an
  // un-dispatched batch tail is re-enqueued before the throw propagates.
  std::size_t dispatch_min_run();

  SimTime now_ = 0;
  mutable const void* owner_key_ = nullptr;  // bound by first use
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  SchedulePolicy policy_ = SchedulePolicy::kFifo;
  std::uint64_t schedule_seed_ = 0;
  std::int64_t active_root_ = -1;
  // Events pop in (when, tie, seq) order — the identical total order the old
  // binary heap used, held to it by the differential fuzz + golden suites.
  CalendarQueue queue_;
  std::vector<std::coroutine_handle<TaskPromise<void>>> roots_;
  std::vector<std::string> root_names_;
  LockClassList resources_;
  std::vector<std::string> diagnostics_;
  obs::SpanRecorder* spans_ = nullptr;
  fault::FaultInjector* faults_ = nullptr;
  flight::FlightRecorder* flight_ = nullptr;
  ts::Collector* ts_ = nullptr;
};

}  // namespace pvm

#endif  // PVM_SRC_SIM_SIMULATION_H_
