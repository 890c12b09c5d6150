// FIFO-queued lock classes and lock instances for modelling contended
// structures.
//
// A lock instance (`Resource`) with capacity 1 models a lock (the paper's
// `mmu_lock`, the L0 hypervisor's serialization point, a per-shadow-page
// `pt_lock`, ...); larger capacities model pools. Acquisition order is
// strictly FIFO so results are deterministic. Each waiter remembers the root
// task it belongs to, so `Simulation::blocked_report()` can name who is
// parked where when a run deadlocks.
//
// Statistics are kept per lock *class*, as Linux lock_stat keeps them per
// lockdep class. A `LockClass` owns what one lock kind shares: its name and
// capacity, the acquisition, contention, wait and hold totals, the wait and
// hold histograms, the peak queue depth and its instance count. A `Resource`
// keeps only its exclusion state (available units, parked waiters, the
// holder's acquisition time), its class and its key. Two shapes:
//   - a singleton lock or pool (a VM's mmu_lock, host.cpus) is constructed
//     by name and is the only instance of a class it owns;
//   - a keyed class (the per-shadow-page pt_locks, the per-gfn rmap_locks)
//     creates one instance per key on first use, named "<class>.<key>".
// A name is built only where it is printed: flight timelines, postmortem
// details, blocked_report(), lock-wait spans and fault-site matching. So
// the tens of thousands of lazily created SPT locks carry no name,
// histogram or interned flight-recorder name of their own.
//
// Lock classes register with their Simulation on construction (an intrusive
// list, O(1) both ways; see Simulation::resources).
//
// Usage inside a Task:
//   ScopedResource guard = co_await lock.scoped();   // released at scope exit
// or the manual form:
//   co_await lock.acquire();
//   ...
//   lock.release();

#ifndef PVM_SRC_SIM_RESOURCE_H_
#define PVM_SRC_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/obs/flight.h"
#include "src/obs/span.h"
#include "src/sim/fifo.h"
#include "src/sim/simulation.h"

namespace pvm {

class Resource;

// RAII guard: releases the resource when destroyed (coroutine frames keep the
// guard alive across suspension points, so this is suspension-safe).
class ScopedResource {
 public:
  ScopedResource() = default;
  explicit ScopedResource(Resource* resource) : resource_(resource) {}
  ScopedResource(ScopedResource&& other) noexcept
      : resource_(std::exchange(other.resource_, nullptr)) {}
  ScopedResource& operator=(ScopedResource&& other) noexcept;
  ScopedResource(const ScopedResource&) = delete;
  ScopedResource& operator=(const ScopedResource&) = delete;
  ~ScopedResource();

  void release();

 private:
  Resource* resource_ = nullptr;
};

class LockClass {
 public:
  // Opens instance() to the keyed constructor of Resource and nothing else.
  class InstanceKey {
    friend class LockClass;
    InstanceKey() = default;
  };

  // A keyed class of locks (capacity 1): instance(key) creates one per key.
  LockClass(Simulation& sim, std::string name);
  LockClass(const LockClass&) = delete;
  LockClass& operator=(const LockClass&) = delete;
  ~LockClass();

  // Instance `key` of a keyed class, created on first use. It never moves.
  // Keys must be below 2^40 - 1, the room flight events give them.
  Resource& instance(std::uint64_t key);
  // Instance `key` of a keyed class, or nullptr if it was never created.
  const Resource* find(std::uint64_t key) const;

  const std::string& name() const { return name_; }
  std::uint32_t capacity() const { return capacity_; }
  // Live instances: 1 for a singleton, the keys used so far for a keyed class.
  std::size_t instances() const;
  std::uint64_t acquisitions() const { return acquisitions_; }
  // Acquisitions that queued (did not take the uncontended fast path).
  std::uint64_t contended_acquisitions() const { return contended_acquisitions_; }
  SimTime total_wait_ns() const { return total_wait_ns_; }
  // Total time units were held, release-to-release. Exact for capacity 1
  // (locks); FIFO-approximate for pools, where releases are matched to the
  // oldest outstanding acquisition.
  SimTime total_hold_ns() const { return total_hold_ns_; }
  // The deepest any one instance's waiter queue has been.
  std::size_t peak_queue_depth() const { return peak_queue_depth_; }
  // Distribution of contended waits (uncontended acquisitions are not
  // recorded: the interesting signal is queueing, not the fast path).
  const MergeableHistogram& wait_histogram() const { return wait_hist_; }
  const MergeableHistogram& hold_histogram() const { return hold_hist_; }

  // The name of instance `key`: "<class>.<key>", or the class name alone
  // for a singleton's instance (Resource::kNoKey).
  std::string instance_name(std::uint64_t key) const;

  // Visits every live instance, oldest first.
  template <typename Fn>
  void for_each_instance(Fn fn) const;

 private:
  friend class Resource;
  friend class LockClassList;  // links, unlinks and walks prev_/next_

  struct Keyed;

  // A singleton's class; `sole` is the Resource constructing it.
  LockClass(Simulation& sim, std::string name, std::uint32_t capacity, Resource* sole);

  Resource* lookup(std::uint64_t key) const;
  Resource& create_instance(std::uint64_t key);

  // Interned flight-recorder id for the class name, resolved lazily on first
  // acquisition so construction order does not pin the id space.
  std::uint64_t flight_id(flight::FlightRecorder* flight);

  static constexpr std::uint64_t kNoFlightId = ~0ull;

  Simulation* sim_;
  LockClass* prev_ = nullptr;  // registry neighbours, in registration order
  LockClass* next_ = nullptr;
  std::string name_;
  std::uint32_t capacity_;

  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_acquisitions_ = 0;
  SimTime total_wait_ns_ = 0;
  SimTime total_hold_ns_ = 0;
  std::size_t peak_queue_depth_ = 0;
  MergeableHistogram wait_hist_;
  MergeableHistogram hold_hist_;
  // A pool's outstanding acquisitions, oldest first. Only singletons can be
  // pools, so these are its one instance's; a lock keeps its one hold start
  // inline instead.
  Fifo<SimTime> pool_hold_starts_;
  std::uint64_t flight_name_id_ = kNoFlightId;

  Resource* sole_ = nullptr;      // a singleton's instance
  std::unique_ptr<Keyed> keyed_;  // a keyed class's instances
};

class Resource {
 public:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::int64_t root;     // owning root task at enqueue time (-1 if unknown)
    SimTime enqueued = 0;  // virtual time the waiter joined the queue
  };

  // The key of a singleton's instance.
  static constexpr std::uint64_t kNoKey = ~0ull;

  // A singleton lock (capacity 1) or pool: the only instance of its own
  // class, named `name`.
  Resource(Simulation& sim, std::string name, std::uint32_t capacity = 1);
  // Instance `key` of a keyed class (LockClass::instance).
  Resource(LockClass& lock_class, std::uint64_t key, LockClass::InstanceKey)
      : class_(&lock_class), key_(key), available_(1) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  ~Resource();

  struct AcquireAwaiter {
    Resource* resource;
    SimTime enqueue_time = 0;
    bool waited = false;
    obs::SpanRecorder::Token wait_span{};

    bool await_ready() noexcept {
      if (resource->available_ > 0) {
        --resource->available_;
        resource->note_acquired();
        if (flight::FlightRecorder* flight = resource->sim().flight()) {
          flight->record(flight::EventKind::kLockAcquire, resource->flight_word(flight), 0, 0);
        }
        return true;
      }
      return false;
    }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) noexcept {
      Simulation& sim = resource->sim();
      waited = true;
      enqueue_time = sim.now();
      if (obs::SpanRecorder* spans = sim.spans()) {
        wait_span = spans->begin(obs::Phase::kLockWait);
      }
      resource->waiters_.push_back(Waiter{h, sim.active_root(), enqueue_time});
      LockClass& lock_class = *resource->class_;
      if (resource->waiters_.size() > lock_class.peak_queue_depth_) {
        lock_class.peak_queue_depth_ = resource->waiters_.size();
      }
    }
    void await_resume() noexcept {
      if (waited) {
        // release() transferred ownership to us directly (available_ was not
        // incremented), so only the statistics need updating here.
        LockClass& lock_class = *resource->class_;
        Simulation& sim = resource->sim();
        ++lock_class.contended_acquisitions_;
        const SimTime wait = sim.now() - enqueue_time;
        lock_class.total_wait_ns_ += wait;
        lock_class.wait_hist_.record(wait);
        if (wait_span.valid()) {
          if (obs::SpanRecorder* spans = sim.spans()) {
            spans->end_lock_wait(wait_span, resource->name());
          }
        }
        resource->note_acquired();
        if (flight::FlightRecorder* flight = sim.flight()) {
          flight->record(flight::EventKind::kLockAcquire, resource->flight_word(flight), wait,
                         1);
        }
      }
    }
  };

  struct ScopedAwaiter {
    AcquireAwaiter inner;

    bool await_ready() noexcept { return inner.await_ready(); }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) noexcept {
      inner.await_suspend(h);
    }
    ScopedResource await_resume() noexcept {
      inner.await_resume();
      return ScopedResource(inner.resource);
    }
  };

  // Awaitable acquire; caller must later call release().
  AcquireAwaiter acquire() { return AcquireAwaiter{this}; }

  // Awaitable acquire returning an RAII guard.
  ScopedAwaiter scoped() { return ScopedAwaiter{AcquireAwaiter{this}}; }

  // Releases one unit; resumes the oldest waiter (scheduled at current time).
  void release();

  // True if an acquire() would not block right now.
  bool available() const { return available_ > 0; }

  // The class whose statistics this instance records into.
  LockClass& lock_class() const { return *class_; }
  std::uint64_t key() const { return key_; }
  // "<class>.<key>", or the class name for a singleton. Builds the string.
  std::string name() const { return class_->instance_name(key_); }
  std::size_t queue_depth() const { return waiters_.size(); }
  // Parked waiters, oldest first.
  const Fifo<Waiter>& waiters() const { return waiters_; }

 private:
  friend class LockClass;

  Simulation& sim() const { return *class_->sim_; }

  void note_acquired() {
    LockClass& lock_class = *class_;
    ++lock_class.acquisitions_;
    if (lock_class.capacity_ == 1) {
      hold_start_ = lock_class.sim_->now();
    } else {
      lock_class.pool_hold_starts_.push_back(lock_class.sim_->now());
    }
  }

  // Acquisition time of the hold a release() ends, if one is outstanding:
  // exact for capacity-1 locks, FIFO-approximate for pools.
  std::optional<SimTime> take_hold_start();

  // Payload word `a` of this instance's lock events.
  std::uint64_t flight_word(flight::FlightRecorder* flight) {
    return flight::lock_word(class_->flight_id(flight), key_);
  }

  static constexpr SimTime kNoHoldStart = ~SimTime{0};

  LockClass* class_;  // owned when key_ == kNoKey
  std::uint64_t key_;
  SimTime hold_start_ = kNoHoldStart;  // capacity 1: the holder's acquisition
  Fifo<Waiter> waiters_;
  std::uint32_t available_;
};

// A keyed class's instances in creation order, behind an open-addressing
// index of creation numbers: power-of-two size at least twice the count,
// linear probing, no deletion. Each probe reads its key from the instance
// it names, so a cell is 4 bytes. A deque's emplace_back never moves an
// element, so a returned Resource& stays valid.
struct LockClass::Keyed {
  static constexpr std::uint32_t kEmpty = 0;  // cells hold creation index + 1

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
  }

  // Puts `slot` in the first free cell of `key`'s probe run.
  void place(std::uint64_t key, std::uint32_t slot) {
    std::size_t cell = home(key);
    while (index[cell] != kEmpty) {
      cell = (cell + 1) & (index.size() - 1);
    }
    index[cell] = slot;
  }

  std::deque<Resource> instances;
  std::vector<std::uint32_t> index;
  int shift = 64;
};

inline Resource* LockClass::lookup(std::uint64_t key) const {
  Keyed& keyed = *keyed_;
  if (keyed.index.empty()) {
    return nullptr;
  }
  const std::size_t mask = keyed.index.size() - 1;
  for (std::size_t cell = keyed.home(key);; cell = (cell + 1) & mask) {
    const std::uint32_t slot = keyed.index[cell];
    if (slot == Keyed::kEmpty) {
      return nullptr;
    }
    Resource& lock = keyed.instances[slot - 1];
    if (lock.key_ == key) {
      return &lock;
    }
  }
}

inline const Resource* LockClass::find(std::uint64_t key) const { return lookup(key); }

inline Resource& LockClass::instance(std::uint64_t key) {
  if (Resource* lock = lookup(key)) {
    return *lock;
  }
  return create_instance(key);
}

inline std::string LockClass::instance_name(std::uint64_t key) const {
  return key == Resource::kNoKey ? name_ : name_ + "." + std::to_string(key);
}

template <typename Fn>
void LockClass::for_each_instance(Fn fn) const {
  if (sole_ != nullptr) {
    fn(static_cast<const Resource&>(*sole_));
    return;
  }
  for (const Resource& lock : keyed_->instances) {
    fn(lock);
  }
}

}  // namespace pvm

#endif  // PVM_SRC_SIM_RESOURCE_H_
