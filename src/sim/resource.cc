#include "src/sim/resource.h"

#include "src/fault/fault.h"

namespace pvm {

ScopedResource& ScopedResource::operator=(ScopedResource&& other) noexcept {
  if (this != &other) {
    release();
    resource_ = std::exchange(other.resource_, nullptr);
  }
  return *this;
}

ScopedResource::~ScopedResource() { release(); }

void ScopedResource::release() {
  if (resource_ != nullptr) {
    resource_->release();
    resource_ = nullptr;
  }
}

std::optional<SimTime> Resource::take_hold_start() {
  if (capacity_ == 1) {
    const SimTime start = std::exchange(hold_start_, kNoHoldStart);
    return start == kNoHoldStart ? std::nullopt : std::optional<SimTime>(start);
  }
  if (hold_starts_.empty()) {
    return std::nullopt;
  }
  const SimTime start = hold_starts_.front();
  hold_starts_.pop_front();
  return start;
}

void Resource::release() {
  if (flight::FlightRecorder* flight = sim_->flight()) {
    flight->record(flight::EventKind::kLockRelease, flight_id(flight));
  }
  if (const std::optional<SimTime> start = take_hold_start()) {
    const SimTime held = sim_->now() - *start;
    total_hold_ns_ += held;
    hold_hist_.record(held);
  }
  if (!waiters_.empty()) {
    // Hand the unit to the oldest waiter; it resumes at the current virtual
    // time, attributed to *its* root task (not the releaser's). available_
    // stays unchanged: ownership moves directly.
    Waiter next = waiters_.front();
    waiters_.pop_front();
    SimTime when = sim_->now();
    if (fault::FaultInjector* faults = sim_->faults(); faults != nullptr) {
      // Injected handoff delay: the waiter owns the unit already (available_
      // untouched), it just resumes late — modelling a preempted lock holder
      // or IPI latency between unlock and wakeup.
      when += faults->lock_handoff_delay(name_);
    }
    sim_->schedule(next.handle, when, next.root);
    return;
  }
  ++available_;
}

}  // namespace pvm
