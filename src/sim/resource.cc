#include "src/sim/resource.h"

#include <stdexcept>

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

LockClass::LockClass(Simulation& sim, std::string name)
    : sim_(&sim), name_(std::move(name)), capacity_(1), keyed_(std::make_unique<Keyed>()) {
  sim_->resources_.push_back(this);
}

LockClass::LockClass(Simulation& sim, std::string name, std::uint32_t capacity, Resource* sole)
    : sim_(&sim), name_(std::move(name)), capacity_(capacity), sole_(sole) {
  sim_->resources_.push_back(this);
}

LockClass::~LockClass() {
  sim_->resources_.erase(this);
  if (keyed_) {
    // Newest first. Freed oldest first, the newest instances would be the
    // last chunks freed and would merge into the heap top, which glibc then
    // returns to the kernel, so the next lock class page-faults it back.
    while (!keyed_->instances.empty()) {
      keyed_->instances.pop_back();
    }
  }
}

std::size_t LockClass::instances() const { return keyed_ ? keyed_->instances.size() : 1; }

Resource& LockClass::create_instance(std::uint64_t key) {
  if (key >= flight::kMaxLockKey) {
    throw std::out_of_range("LockClass " + name_ + ": key " + std::to_string(key) +
                            " does not fit a flight event");
  }
  Keyed& keyed = *keyed_;
  const std::size_t count = keyed.instances.size() + 1;
  if (2 * count > keyed.index.size()) {
    // Rehash before creating the instance, so a failed allocation leaves
    // every existing key findable and this one absent.
    const int bits = keyed.index.empty() ? 4 : 65 - keyed.shift;
    keyed.index.assign(std::size_t{1} << bits, Keyed::kEmpty);
    keyed.shift = 64 - bits;
    for (std::uint32_t i = 0; i < keyed.instances.size(); ++i) {
      keyed.place(keyed.instances[i].key_, i + 1);
    }
  }
  Resource& lock = keyed.instances.emplace_back(*this, key, InstanceKey());
  keyed.place(key, static_cast<std::uint32_t>(count));
  return lock;
}

std::uint64_t LockClass::flight_id(flight::FlightRecorder* flight) {
  if (flight_name_id_ == kNoFlightId) {
    const std::uint64_t id = flight->intern(name_);
    if (id > flight::kLockClassMask) {
      throw std::length_error("LockClass " + name_ + ": flight name id " + std::to_string(id) +
                              " does not fit a flight event");
    }
    flight_name_id_ = id;
  }
  return flight_name_id_;
}

Resource::Resource(Simulation& sim, std::string name, std::uint32_t capacity)
    : class_(new LockClass(sim, std::move(name), capacity, this)),
      key_(kNoKey),
      available_(capacity) {}

Resource::~Resource() {
  if (key_ == kNoKey) {
    delete class_;
  }
}

std::optional<SimTime> Resource::take_hold_start() {
  if (class_->capacity_ == 1) {
    const SimTime start = std::exchange(hold_start_, kNoHoldStart);
    return start == kNoHoldStart ? std::nullopt : std::optional<SimTime>(start);
  }
  Fifo<SimTime>& starts = class_->pool_hold_starts_;
  if (starts.empty()) {
    return std::nullopt;
  }
  const SimTime start = starts.front();
  starts.pop_front();
  return start;
}

void Resource::release() {
  Simulation& simulation = sim();
  if (flight::FlightRecorder* flight = simulation.flight()) {
    flight->record(flight::EventKind::kLockRelease, flight_word(flight));
  }
  if (const std::optional<SimTime> start = take_hold_start()) {
    const SimTime held = simulation.now() - *start;
    class_->total_hold_ns_ += held;
    class_->hold_hist_.record(held);
  }
  if (!waiters_.empty()) {
    // Hand the unit to the oldest waiter; it resumes at the current virtual
    // time, attributed to *its* root task (not the releaser's). available_
    // stays unchanged: ownership moves directly.
    Waiter next = waiters_.front();
    waiters_.pop_front();
    SimTime when = simulation.now();
    if (fault::FaultInjector* faults = simulation.faults(); faults != nullptr && faults->armed()) {
      // Injected handoff delay: the waiter owns the unit already (available_
      // untouched), it just resumes late — modelling a preempted lock holder
      // or IPI latency between unlock and wakeup.
      when += faults->lock_handoff_delay(name());
    }
    simulation.schedule(next.handle, when, next.root);
    return;
  }
  ++available_;
}

}  // namespace pvm
