// FIFO-queued resources for modelling contended structures.
//
// A `Resource` with capacity 1 models a lock (the paper's `mmu_lock`, the L0
// hypervisor's serialization point, a per-shadow-page `pt_lock`, ...); larger
// capacities model pools. Acquisition order is strictly FIFO so results are
// deterministic. Contention statistics (total wait, acquisitions, peak queue
// depth) are recorded for reporting. Each waiter remembers the root task it
// belongs to, so `Simulation::blocked_report()` can name who is parked where
// when a run deadlocks.
//
// A Resource allocates nothing until it is used: the waiter queue allocates
// on first push, the wait histogram on the first contended acquire, and the
// hold histogram only if its holds span more than a few buckets. A lock
// (capacity 1) keeps its holder's acquisition time inline; only pools queue
// hold starts. So the tens of thousands of lazily created SPT locks that
// never contend cost only their inline size. Resources register with their
// Simulation on construction (an intrusive list, O(1) both ways; see
// Simulation::resources).
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
#include <memory>
#include <optional>
#include <string>
#include <utility>

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

class Resource {
 public:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::int64_t root;     // owning root task at enqueue time (-1 if unknown)
    SimTime enqueued = 0;  // virtual time the waiter joined the queue
  };

  Resource(Simulation& sim, std::string name, std::uint32_t capacity = 1)
      : sim_(&sim), name_(std::move(name)), capacity_(capacity), available_(capacity) {
    sim_->resources_.push_back(this);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  ~Resource() { sim_->resources_.erase(this); }

  struct AcquireAwaiter {
    Resource* resource;
    SimTime enqueue_time = 0;
    bool waited = false;
    obs::SpanRecorder::Token wait_span{};

    bool await_ready() noexcept {
      if (resource->available_ > 0) {
        --resource->available_;
        ++resource->acquisitions_;
        resource->note_acquired();
        if (flight::FlightRecorder* flight = resource->sim_->flight()) {
          flight->record(flight::EventKind::kLockAcquire, resource->flight_id(flight), 0, 0);
        }
        return true;
      }
      return false;
    }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) noexcept {
      waited = true;
      enqueue_time = resource->sim_->now();
      if (obs::SpanRecorder* spans = resource->sim_->spans()) {
        wait_span = spans->begin(obs::Phase::kLockWait);
      }
      resource->waiters_.push_back(Waiter{h, resource->sim_->active_root(), enqueue_time});
      if (resource->waiters_.size() > resource->peak_queue_depth_) {
        resource->peak_queue_depth_ = resource->waiters_.size();
      }
    }
    void await_resume() noexcept {
      if (waited) {
        // release() transferred ownership to us directly (available_ was not
        // incremented), so only the statistics need updating here.
        ++resource->acquisitions_;
        ++resource->contended_acquisitions_;
        const SimTime wait = resource->sim_->now() - enqueue_time;
        resource->total_wait_ns_ += wait;
        if (!resource->wait_hist_) {
          resource->wait_hist_ = std::make_unique<LatencyHistogram>();
        }
        resource->wait_hist_->record(wait);
        if (wait_span.valid()) {
          if (obs::SpanRecorder* spans = resource->sim_->spans()) {
            spans->end_lock_wait(wait_span, resource->name_);
          }
        }
        resource->note_acquired();
        if (flight::FlightRecorder* flight = resource->sim_->flight()) {
          flight->record(flight::EventKind::kLockAcquire, resource->flight_id(flight), wait,
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

  const std::string& name() const { return name_; }
  std::uint32_t capacity() const { return capacity_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  // Acquisitions that queued (did not take the uncontended fast path).
  std::uint64_t contended_acquisitions() const { return contended_acquisitions_; }
  SimTime total_wait_ns() const { return total_wait_ns_; }
  // Total time units were held, release-to-release. Exact for capacity 1
  // (locks); FIFO-approximate for pools, where releases are matched to the
  // oldest outstanding acquisition.
  SimTime total_hold_ns() const { return total_hold_ns_; }
  std::size_t peak_queue_depth() const { return peak_queue_depth_; }
  std::size_t queue_depth() const { return waiters_.size(); }
  // Parked waiters, oldest first.
  const Fifo<Waiter>& waiters() const { return waiters_; }
  // Distribution of contended waits (uncontended acquisitions are not
  // recorded: the interesting signal is queueing, not the fast path). Empty
  // until the first contended acquire allocates it.
  const LatencyHistogram& wait_histogram() const {
    static const LatencyHistogram kNoWaits;
    return wait_hist_ ? *wait_hist_ : kNoWaits;
  }
  const LatencyHistogram& hold_histogram() const { return hold_hist_; }

 private:
  friend struct AcquireAwaiter;
  friend class ResourceList;  // links, unlinks and walks prev_/next_

  void note_acquired() {
    if (capacity_ == 1) {
      hold_start_ = sim_->now();
    } else {
      hold_starts_.push_back(sim_->now());
    }
  }

  // Acquisition time of the hold a release() ends, if one is outstanding:
  // exact for capacity-1 locks, FIFO-approximate for pools.
  std::optional<SimTime> take_hold_start();

  // Interned flight-recorder id for this resource's name, resolved lazily on
  // first acquisition so construction order does not pin the id space.
  std::uint64_t flight_id(flight::FlightRecorder* flight) {
    if (flight_name_id_ == kNoFlightId) {
      flight_name_id_ = flight->intern(name_);
    }
    return flight_name_id_;
  }

  static constexpr std::uint64_t kNoFlightId = ~0ull;
  static constexpr SimTime kNoHoldStart = ~SimTime{0};

  Simulation* sim_;
  Resource* prev_ = nullptr;  // registry neighbours, in registration order
  Resource* next_ = nullptr;
  std::string name_;
  std::uint32_t capacity_;
  std::uint32_t available_;
  Fifo<Waiter> waiters_;

  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_acquisitions_ = 0;
  SimTime total_wait_ns_ = 0;
  SimTime total_hold_ns_ = 0;
  std::size_t peak_queue_depth_ = 0;
  SimTime hold_start_ = kNoHoldStart;  // capacity 1: the holder's acquisition
  Fifo<SimTime> hold_starts_;          // pools: outstanding acquisitions
  std::unique_ptr<LatencyHistogram> wait_hist_;
  LatencyHistogram hold_hist_;
  std::uint64_t flight_name_id_ = kNoFlightId;
};

}  // namespace pvm

#endif  // PVM_SRC_SIM_RESOURCE_H_
