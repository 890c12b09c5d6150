// Unit tests for the discrete-event simulation core: clock semantics, task
// composition, FIFO resources, determinism, and failure propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/spt_locks.h"
#include "src/fault/fault.h"
#include "src/metrics/histogram.h"
#include "src/obs/flight.h"
#include "src/sim/random.h"
#include "src/sim/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace pvm {
namespace {

Task<void> delay_then_record(Simulation& sim, SimTime delay, std::vector<SimTime>& log) {
  co_await sim.delay(delay);
  log.push_back(sim.now());
}

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulationTest, DelayAdvancesClock) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 250, log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 250u);
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(SimulationTest, MultipleDelaysAccumulate) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn([](Simulation& s, std::vector<SimTime>& out) -> Task<void> {
    co_await s.delay(100);
    out.push_back(s.now());
    co_await s.delay(50);
    out.push_back(s.now());
    co_await s.delay(0);
    out.push_back(s.now());
  }(sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 150, 150}));
}

TEST(SimulationTest, TasksInterleaveInTimeOrder) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 300, log));
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 200, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 200, 300}));
}

TEST(SimulationTest, TiesBreakInSpawnOrder) {
  Simulation sim;
  std::vector<int> order;
  auto make = [&](int id) -> Task<void> {
    co_await sim.delay(10);
    order.push_back(id);
  };
  sim.spawn(make(1));
  sim.spawn(make(2));
  sim.spawn(make(3));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

Task<int> subtask_returning(Simulation& sim, int value) {
  co_await sim.delay(10);
  co_return value;
}

TEST(SimulationTest, NestedTaskReturnsValueAndChargesTime) {
  Simulation sim;
  int got = 0;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    out = co_await subtask_returning(s, 42);
  }(sim, got));
  sim.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(sim.now(), 10u);
}

Task<int> deeply_nested(Simulation& sim, int depth) {
  if (depth == 0) {
    co_await sim.delay(1);
    co_return 1;
  }
  const int below = co_await deeply_nested(sim, depth - 1);
  co_return below + 1;
}

TEST(SimulationTest, DeepNestingWorks) {
  Simulation sim;
  int result = 0;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    out = co_await deeply_nested(s, 200);
  }(sim, result));
  sim.run();
  EXPECT_EQ(result, 201);
  EXPECT_EQ(sim.now(), 1u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 900, log));
  sim.run_until(500);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(sim.now(), 500u);
  EXPECT_FALSE(sim.all_tasks_done());
  EXPECT_EQ(sim.pending_task_count(), 1u);
  sim.run();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(sim.all_tasks_done());
}

// ---- run_until boundary contract ----
//
// These tests pin the deadline semantics that were previously implicit in
// the heap's pop order, so the calendar-queue engine is held to exactly the
// same contract as the binary heap it replaced:
//   1. events scheduled *exactly at* the deadline are processed (inclusive),
//   2. including cascades: an event at the deadline that schedules further
//      work at the same timestamp runs that work too,
//   3. events strictly after the deadline stay queued,
//   4. the clock lands exactly on the deadline even when the queue drains
//      early or is empty,
//   5. a deadline in the past is a no-op: no events run, the clock never
//      moves backwards.

TEST(RunUntilBoundaryTest, EventExactlyAtDeadlineRuns) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  const std::uint64_t processed = sim.run_until(100);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  EXPECT_GE(processed, 1u);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(RunUntilBoundaryTest, CascadeAtDeadlineRunsToCompletion) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& out) -> Task<void> {
    co_await s.delay(50);
    out.push_back(1);
    co_await s.delay(0);  // re-scheduled at exactly the deadline
    out.push_back(2);
    co_await s.delay(0);
    out.push_back(3);
  }(sim, log));
  sim.run_until(50);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(RunUntilBoundaryTest, EventJustAfterDeadlineStaysQueued) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 101, log));
  sim.run_until(100);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending_task_count(), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 101}));
}

TEST(RunUntilBoundaryTest, DeadlineCascadeSpillsPastDeadlineStaysQueued) {
  // An event at the deadline that schedules work *after* the deadline: the
  // at-deadline part runs, the spill stays queued, and the clock does not
  // advance past the deadline.
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& out) -> Task<void> {
    co_await s.delay(70);
    out.push_back(1);
    co_await s.delay(1);  // 71 > deadline 70
    out.push_back(2);
  }(sim, log));
  sim.run_until(70);
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 70u);
  EXPECT_FALSE(sim.all_tasks_done());
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 71u);
}

TEST(RunUntilBoundaryTest, ClockLandsOnDeadlineWhenQueueDrainsEarly) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 10, log));
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(RunUntilBoundaryTest, ClockLandsOnDeadlineWithEmptyQueue) {
  Simulation sim;
  EXPECT_EQ(sim.run_until(250), 0u);
  EXPECT_EQ(sim.now(), 250u);
}

TEST(RunUntilBoundaryTest, PastDeadlineIsNoOpAndClockNeverMovesBackwards) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 300, log));
  sim.run_until(200);
  EXPECT_EQ(sim.now(), 200u);
  // Deadline earlier than now(): nothing runs, the clock stays put.
  EXPECT_EQ(sim.run_until(50), 0u);
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  // Re-running at the *same* deadline is also a no-op.
  EXPECT_EQ(sim.run_until(200), 0u);
  EXPECT_EQ(sim.now(), 200u);
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 300}));
}

TEST(RunUntilBoundaryTest, SameContractUnderEveryTieBreakPolicy) {
  // The inclusive-deadline rule is policy-independent: all three tie-break
  // policies process exactly the at-deadline set, in their own order.
  for (const SchedulePolicy policy :
       {SchedulePolicy::kFifo, SchedulePolicy::kRandom, SchedulePolicy::kLifo}) {
    Simulation sim;
    sim.set_schedule_policy(policy, 7);
    std::vector<int> ran;
    auto make = [&](int id) -> Task<void> {
      co_await sim.delay(40);
      ran.push_back(id);
    };
    sim.spawn(make(1));
    sim.spawn(make(2));
    sim.spawn(make(3));
    sim.run_until(40);
    std::vector<int> sorted = ran;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3})) << schedule_policy_name(policy);
    EXPECT_EQ(sim.now(), 40u);
    EXPECT_TRUE(sim.all_tasks_done());
  }
}

TEST(SimulationTest, ExceptionInRootTaskPropagates) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(5);
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulationTest, ExceptionInSubtaskPropagatesToParent) {
  Simulation sim;
  bool caught = false;
  sim.spawn([](Simulation& s, bool& flag) -> Task<void> {
    auto failing = [](Simulation& inner) -> Task<void> {
      co_await inner.delay(1);
      throw std::logic_error("inner");
    };
    try {
      co_await failing(s);
    } catch (const std::logic_error&) {
      flag = true;
    }
  }(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(ResourceTest, UncontendedAcquireDoesNotWait) {
  Simulation sim;
  Resource lock(sim, "lock");
  SimTime acquired_at = 1;
  sim.spawn([](Simulation& s, Resource& r, SimTime& at) -> Task<void> {
    ScopedResource guard = co_await r.scoped();
    at = s.now();
  }(sim, lock, acquired_at));
  sim.run();
  EXPECT_EQ(acquired_at, 0u);
  EXPECT_EQ(lock.lock_class().acquisitions(), 1u);
  EXPECT_EQ(lock.lock_class().total_wait_ns(), 0u);
  EXPECT_TRUE(lock.available());
}

Task<void> hold_lock(Simulation& sim, Resource& lock, SimTime hold, std::vector<SimTime>& log) {
  ScopedResource guard = co_await lock.scoped();
  log.push_back(sim.now());
  co_await sim.delay(hold);
}

TEST(ResourceTest, ContendedAcquiresSerializeFifo) {
  Simulation sim;
  Resource lock(sim, "mmu_lock");
  std::vector<SimTime> log;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(hold_lock(sim, lock, 100, log));
  }
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{0, 100, 200, 300}));
  EXPECT_EQ(lock.lock_class().acquisitions(), 4u);
  // Waiters queued for 100+200+300 ns total.
  EXPECT_EQ(lock.lock_class().total_wait_ns(), 600u);
  EXPECT_EQ(lock.lock_class().peak_queue_depth(), 3u);
}

TEST(ResourceTest, CapacityTwoAllowsTwoConcurrentHolders) {
  Simulation sim;
  Resource pool(sim, "pool", 2);
  std::vector<SimTime> log;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(hold_lock(sim, pool, 100, log));
  }
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{0, 0, 100, 100}));
}

TEST(ResourceTest, ManualAcquireRelease) {
  Simulation sim;
  Resource lock(sim, "lock");
  std::vector<int> order;
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& out) -> Task<void> {
    co_await r.acquire();
    out.push_back(1);
    co_await s.delay(10);
    r.release();
  }(sim, lock, order));
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& out) -> Task<void> {
    co_await r.acquire();
    out.push_back(2);
    r.release();
    co_await s.delay(0);
  }(sim, lock, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 10u);
}

TEST(ResourceTest, MoveAssignGuardReleases) {
  Simulation sim;
  Resource lock(sim, "lock");
  sim.spawn([](Simulation& s, Resource& r) -> Task<void> {
    ScopedResource a = co_await r.scoped();
    EXPECT_FALSE(r.available());
    a = ScopedResource();  // releases
    EXPECT_TRUE(r.available());
    co_await s.delay(1);
  }(sim, lock));
  sim.run();
}

TEST(ResourceTest, PoolMatchesReleasesToAcquisitionsFifo) {
  // Three outstanding holds on a capacity-3 pool; a release does not say
  // which unit it returns, so it is matched to the oldest acquisition.
  Simulation sim;
  Resource pool(sim, "pool", 3);
  sim.spawn([](Simulation& s, Resource& r) -> Task<void> {
    co_await r.acquire();  // t=0
    co_await s.delay(10);
    co_await r.acquire();  // t=10
    co_await s.delay(10);
    co_await r.acquire();  // t=20
    co_await s.delay(10);
    r.release();  // t=30, matches t=0: 30
    co_await s.delay(10);
    co_await r.acquire();  // t=40
    co_await s.delay(10);
    r.release();  // t=50, matches t=10: 40
    co_await s.delay(10);
    r.release();  // t=60, matches t=20: 40
    co_await s.delay(10);
    r.release();  // t=70, matches t=40: 30
  }(sim, pool));
  sim.run();
  EXPECT_EQ(pool.lock_class().acquisitions(), 4u);
  EXPECT_EQ(pool.lock_class().contended_acquisitions(), 0u);
  EXPECT_EQ(pool.lock_class().total_hold_ns(), 140u);
  // LIFO matching would give the same total but holds {10, 10, 50, 70}.
  const MergeableHistogram& hold = pool.lock_class().hold_histogram();
  EXPECT_EQ(hold.count(), 4u);
  EXPECT_EQ(hold.min(), 30u);
  EXPECT_EQ(hold.max(), 40u);
  EXPECT_EQ(pool.lock_class().wait_histogram().count(), 0u);
  EXPECT_TRUE(pool.available());
}

TEST(ResourceTest, DeepQueueWrapsAndStaysFifo) {
  // More waiters than the queue's first allocation, with wakeups interleaved
  // with new arrivals, so the ring buffer both grows and wraps.
  Simulation sim;
  Resource lock(sim, "lock");
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) {
    sim.spawn([](Simulation& s, Resource& r, std::vector<int>& out, int id) -> Task<void> {
      co_await s.delay(static_cast<SimTime>(id) * 3);
      ScopedResource guard = co_await r.scoped();
      out.push_back(id);
      co_await s.delay(5);
    }(sim, lock, order, i));
  }
  sim.run();
  std::vector<int> expected(12);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  const LockClass& stats = lock.lock_class();
  EXPECT_EQ(stats.acquisitions(), 12u);
  EXPECT_EQ(stats.wait_histogram().count(), stats.contended_acquisitions());
  EXPECT_GT(stats.contended_acquisitions(), 0u);
  EXPECT_EQ(lock.queue_depth(), 0u);
}

std::vector<std::string> resource_names(const Simulation& sim) {
  std::vector<std::string> names;
  for (const LockClass* lock_class : sim.resources()) {
    names.push_back(lock_class->name());
  }
  return names;
}

TEST(ResourceRegistryTest, SurvivorsStayInRegistrationOrder) {
  constexpr int kCount = 64;
  Simulation sim;
  std::vector<std::unique_ptr<Resource>> owned;
  std::vector<std::string> registered;
  for (int i = 0; i < kCount; ++i) {
    registered.push_back("r" + std::to_string(i));
    owned.push_back(std::make_unique<Resource>(sim, registered.back()));
  }
  EXPECT_EQ(sim.resources().size(), static_cast<std::size_t>(kCount));
  EXPECT_EQ(resource_names(sim), registered);

  // Destroy in a seeded shuffle; the head, the tail and middles all go.
  std::vector<int> doomed(kCount);
  std::iota(doomed.begin(), doomed.end(), 0);
  Xoshiro256 rng(42);
  for (std::size_t i = doomed.size() - 1; i > 0; --i) {
    std::swap(doomed[i], doomed[rng.next_below(i + 1)]);
  }
  std::vector<bool> alive(kCount, true);
  for (int n = 0; n < kCount; ++n) {
    owned[static_cast<std::size_t>(doomed[n])].reset();
    alive[static_cast<std::size_t>(doomed[n])] = false;
    std::vector<std::string> survivors;
    for (int i = 0; i < kCount; ++i) {
      if (alive[static_cast<std::size_t>(i)]) {
        survivors.push_back(registered[static_cast<std::size_t>(i)]);
      }
    }
    ASSERT_EQ(sim.resources().size(), survivors.size()) << "after destroying " << n + 1;
    ASSERT_EQ(resource_names(sim), survivors) << "after destroying " << n + 1;
  }
  EXPECT_TRUE(sim.resources().empty());

  // The emptied list accepts new registrations again.
  Resource again(sim, "again");
  EXPECT_EQ(resource_names(sim), (std::vector<std::string>{"again"}));
}

TEST(ResourceRegistryTest, SptLockKeepsItsAddressAndNameAcrossRehash) {
  Simulation sim;
  SptLockSet locks(sim, "vm0", /*fine_grained=*/true);
  Resource& lock = locks.rmap_lock(7);
  for (std::uint64_t gfn = 1000; gfn < 11000; ++gfn) {
    locks.rmap_lock(gfn);
  }
  EXPECT_EQ(&locks.rmap_lock(7), &lock);
  EXPECT_EQ(lock.name(), "vm0.rmap_lock.7");
  EXPECT_EQ(locks.rmap_lock_class().instances(), 10001u);
  // The registry holds the four lock classes, not the instances.
  EXPECT_EQ(resource_names(sim), (std::vector<std::string>{"vm0.mmu_lock", "vm0.meta_lock",
                                                           "vm0.pt_lock", "vm0.rmap_lock"}));
  // The class walks its instances in creation order.
  std::vector<std::string> names;
  locks.rmap_lock_class().for_each_instance(
      [&](const Resource& instance) { names.push_back(instance.name()); });
  ASSERT_EQ(names.size(), 10001u);
  EXPECT_EQ(names[0], "vm0.rmap_lock.7");
  EXPECT_EQ(names[1], "vm0.rmap_lock.1000");
  EXPECT_EQ(names.back(), "vm0.rmap_lock.10999");
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    Resource lock(sim, "lock");
    std::vector<SimTime> log;
    Xoshiro256 rng(1234);
    for (int i = 0; i < 32; ++i) {
      sim.spawn(hold_lock(sim, lock, rng.next_in(1, 50), log));
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

namespace {

// Runs three same-timestamp tasks under `policy` and returns their execution
// order. Recording happens at the task's very first event, so the returned
// order is exactly the policy's tie-break of three simultaneous events.
std::vector<int> tie_order(SchedulePolicy policy, std::uint64_t seed) {
  Simulation sim;
  sim.set_schedule_policy(policy, seed);
  std::vector<int> order;
  auto make = [&](int id) -> Task<void> {
    order.push_back(id);
    co_return;
  };
  for (int id = 1; id <= 3; ++id) {
    sim.spawn(make(id));
  }
  sim.run();
  return order;
}

}  // namespace

TEST(SchedulePolicyTest, FifoMatchesSpawnOrder) {
  EXPECT_EQ(tie_order(SchedulePolicy::kFifo, 0), (std::vector<int>{1, 2, 3}));
}

TEST(SchedulePolicyTest, LifoReversesSpawnOrder) {
  EXPECT_EQ(tie_order(SchedulePolicy::kLifo, 0), (std::vector<int>{3, 2, 1}));
}

TEST(SchedulePolicyTest, RandomIsDeterministicPerSeedAndExploresOrders) {
  // Identical (policy, seed) replays identically.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(tie_order(SchedulePolicy::kRandom, seed),
              tie_order(SchedulePolicy::kRandom, seed));
  }
  // Some seed must produce a non-FIFO order; with 3! = 6 orderings and 32
  // seeds the chance of all-FIFO under a working hash is negligible.
  bool explored = false;
  for (std::uint64_t seed = 1; seed <= 32 && !explored; ++seed) {
    explored = tie_order(SchedulePolicy::kRandom, seed) != (std::vector<int>{1, 2, 3});
  }
  EXPECT_TRUE(explored);
}

TEST(SchedulePolicyTest, TimeOrderAlwaysRespected) {
  // Tie-breaking never reorders events across distinct timestamps.
  for (const SchedulePolicy policy :
       {SchedulePolicy::kFifo, SchedulePolicy::kRandom, SchedulePolicy::kLifo}) {
    Simulation sim;
    sim.set_schedule_policy(policy, 5);
    std::vector<SimTime> log;
    sim.spawn(delay_then_record(sim, 300, log));
    sim.spawn(delay_then_record(sim, 100, log));
    sim.spawn(delay_then_record(sim, 200, log));
    sim.run();
    EXPECT_EQ(log, (std::vector<SimTime>{100, 200, 300}));
  }
}

TEST(BlockedReportTest, NamesPendingTasksAndTheirQueues) {
  Simulation sim;
  Resource lock_a(sim, "lock_a");
  Resource lock_b(sim, "lock_b");
  // Classic AB-BA deadlock, with a third task queued behind it.
  sim.spawn([](Simulation& s, Resource& a, Resource& b) -> Task<void> {
    ScopedResource ga = co_await a.scoped();
    co_await s.delay(10);
    ScopedResource gb = co_await b.scoped();
  }(sim, lock_a, lock_b), "forward");
  sim.spawn([](Simulation& s, Resource& a, Resource& b) -> Task<void> {
    ScopedResource gb = co_await b.scoped();
    co_await s.delay(10);
    ScopedResource ga = co_await a.scoped();
  }(sim, lock_a, lock_b), "backward");
  sim.spawn([](Simulation& s, Resource& a) -> Task<void> {
    co_await s.delay(20);
    ScopedResource ga = co_await a.scoped();
  }(sim, lock_a), "bystander");
  sim.run();
  EXPECT_FALSE(sim.all_tasks_done());
  EXPECT_EQ(sim.pending_task_count(), 3u);
  const std::string report = sim.blocked_report();
  EXPECT_NE(report.find("forward"), std::string::npos);
  EXPECT_NE(report.find("backward"), std::string::npos);
  EXPECT_NE(report.find("bystander"), std::string::npos);
  EXPECT_NE(report.find("lock_a"), std::string::npos);
  EXPECT_NE(report.find("lock_b"), std::string::npos);
  // The deadlocked frames hold guards on lock_a/lock_b; destroy them while
  // both locks are still in scope.
  sim.abandon_pending();
}

TEST(BlockedReportTest, ListsQueuesInRegistrationOrderAfterAMiddleResourceDies) {
  Simulation sim;
  // Registration order differs from name order, so the report shows which
  // one it follows.
  Resource zeta(sim, "zeta");
  auto middle = std::make_unique<Resource>(sim, "middle");
  Resource alpha(sim, "alpha");
  middle.reset();
  // AB-BA deadlock: "forward" parks on alpha at t=10, "backward" on zeta at
  // t=5.
  sim.spawn([](Simulation& s, Resource& first, Resource& second) -> Task<void> {
    ScopedResource a = co_await first.scoped();
    co_await s.delay(10);
    ScopedResource b = co_await second.scoped();
  }(sim, zeta, alpha), "forward");
  sim.spawn([](Simulation& s, Resource& first, Resource& second) -> Task<void> {
    ScopedResource b = co_await second.scoped();
    co_await s.delay(5);
    ScopedResource a = co_await first.scoped();
  }(sim, zeta, alpha), "backward");
  sim.run();
  EXPECT_EQ(sim.blocked_report(),
            "2/2 root tasks pending:\n"
            "  - \"forward\" waiting on \"alpha\" (queued 0 ns ago)\n"
            "  - \"backward\" waiting on \"zeta\" (queued 5 ns ago)\n"
            "  resource \"zeta\": capacity 1, 1 queued, ages ns [5]\n"
            "  resource \"alpha\": capacity 1, 1 queued, ages ns [0]\n");
  sim.abandon_pending();
}

TEST(BlockedReportTest, EmptyWhenEverythingCompleted) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 10, log), "fine");
  sim.run();
  EXPECT_TRUE(sim.all_tasks_done());
  EXPECT_TRUE(sim.blocked_report().empty());
}

// ---- Lock classes --------------------------------------------------------

// A naive per-instance reference: the statistics each lock kept for itself
// before lock classes, rebuilt from what the tasks observe.
struct ReferenceLock {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  SimTime total_wait_ns = 0;
  SimTime total_hold_ns = 0;
  std::size_t queued = 0;
  std::size_t peak_queue_depth = 0;
  std::deque<SimTime> hold_starts;  // releases match the oldest acquisition
  MergeableHistogram wait;
  MergeableHistogram hold;
};

// `ops` rounds of: a short random pause (0, 5, 10 or 15 ns, so many events
// tie), acquire a random instance, hold it 0, 10 or 20 ns, release. Half the
// picks go to the first 8 instances so that some of them contend.
Task<void> random_holder(Simulation& sim, const std::vector<Resource*>& locks,
                         std::vector<ReferenceLock>& reference, std::uint64_t seed, int ops) {
  Xoshiro256 rng(seed);
  for (int op = 0; op < ops; ++op) {
    co_await sim.delay(rng.next_below(4) * 5);
    const std::size_t hot = std::min<std::size_t>(locks.size(), 8);
    const std::size_t k =
        rng.next_below(2) == 0 ? rng.next_below(hot) : rng.next_below(locks.size());
    Resource& lock = *locks[k];
    ReferenceLock& ref = reference[k];
    const SimTime requested = sim.now();
    const bool contended = !lock.available();
    if (contended) {
      ref.peak_queue_depth = std::max(ref.peak_queue_depth, ++ref.queued);
    }
    co_await lock.acquire();
    if (contended) {
      ++ref.contended;
      ref.total_wait_ns += sim.now() - requested;
      ref.wait.record(sim.now() - requested);
    }
    ++ref.acquisitions;
    ref.hold_starts.push_back(sim.now());
    co_await sim.delay(rng.next_below(3) * 10);
    const SimTime held = sim.now() - ref.hold_starts.front();
    ref.hold_starts.pop_front();
    ref.total_hold_ns += held;
    ref.hold.record(held);
    if (ref.queued > 0) {
      --ref.queued;  // the release hands the unit to the oldest waiter
    }
    lock.release();
  }
}

// The class must hold exactly the sum of its instances' statistics: summed
// totals, the merge of their histograms, and the deepest queue any instance had.
void expect_class_matches_reference(const LockClass& cls,
                                    const std::vector<ReferenceLock>& reference) {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  SimTime wait_ns = 0;
  SimTime hold_ns = 0;
  std::size_t peak = 0;
  for (const ReferenceLock& ref : reference) {
    acquisitions += ref.acquisitions;
    contended += ref.contended;
    wait_ns += ref.total_wait_ns;
    hold_ns += ref.total_hold_ns;
    peak = std::max(peak, ref.peak_queue_depth);
  }
  EXPECT_EQ(cls.acquisitions(), acquisitions);
  EXPECT_EQ(cls.contended_acquisitions(), contended);
  EXPECT_EQ(cls.total_wait_ns(), wait_ns);
  EXPECT_EQ(cls.total_hold_ns(), hold_ns);
  EXPECT_EQ(cls.peak_queue_depth(), peak);
  MergeableHistogram wait;
  MergeableHistogram hold;
  for (const ReferenceLock& ref : reference) {
    wait.merge(ref.wait);
    hold.merge(ref.hold);
  }
  EXPECT_EQ(cls.wait_histogram(), wait);
  EXPECT_EQ(cls.hold_histogram(), hold);
}

class LockClassProperty : public ::testing::TestWithParam<SchedulePolicy> {};

TEST_P(LockClassProperty, KeyedClassSumsItsInstances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulation sim;
    sim.set_schedule_policy(GetParam(), seed);
    LockClass rmap_locks(sim, "vm0.rmap_lock");
    // Many sparse keys, so the instance index rehashes several times.
    Xoshiro256 keys(seed * 977);
    std::vector<Resource*> locks;
    for (int i = 0; i < 600; ++i) {
      locks.push_back(&rmap_locks.instance(keys.next_below(flight::kMaxLockKey)));
    }
    std::vector<ReferenceLock> reference(locks.size());
    for (std::uint64_t task = 0; task < 24; ++task) {
      sim.spawn(random_holder(sim, locks, reference, seed * 100 + task, 40));
    }
    sim.run();
    ASSERT_TRUE(sim.all_tasks_done());
    EXPECT_EQ(rmap_locks.instances(), locks.size());
    EXPECT_GT(rmap_locks.contended_acquisitions(), 0u);
    expect_class_matches_reference(rmap_locks, reference);
    for (Resource* lock : locks) {
      EXPECT_EQ(rmap_locks.find(lock->key()), lock);
    }
  }
}

TEST_P(LockClassProperty, PoolIsItsOwnClass) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulation sim;
    sim.set_schedule_policy(GetParam(), seed);
    Resource pool(sim, "pool", 4);
    const std::vector<Resource*> locks{&pool};
    std::vector<ReferenceLock> reference(1);
    for (std::uint64_t task = 0; task < 12; ++task) {
      sim.spawn(random_holder(sim, locks, reference, seed * 100 + task, 30));
    }
    sim.run();
    ASSERT_TRUE(sim.all_tasks_done());
    EXPECT_EQ(pool.lock_class().instances(), 1u);
    EXPECT_EQ(pool.lock_class().capacity(), 4u);
    EXPECT_GT(pool.lock_class().contended_acquisitions(), 0u);
    expect_class_matches_reference(pool.lock_class(), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, LockClassProperty,
                         ::testing::Values(SchedulePolicy::kFifo, SchedulePolicy::kRandom,
                                           SchedulePolicy::kLifo),
                         [](const ::testing::TestParamInfo<SchedulePolicy>& policy) {
                           return std::string(schedule_policy_name(policy.param));
                         });

// Holds `lock` from t=0 to t=10.
Task<void> hold_first(Simulation& sim, Resource& lock) {
  ScopedResource guard = co_await lock.scoped();
  co_await sim.delay(10);
}

// Queues on `lock` at t=1 and records when the handoff arrives.
Task<void> acquire_second(Simulation& sim, Resource& lock, SimTime& acquired) {
  co_await sim.delay(1);
  ScopedResource guard = co_await lock.scoped();
  acquired = sim.now();
}

TEST(LockClassTest, HandoffDelayTargetsOneInstanceByName) {
  Simulation sim;
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kLockHandoffDelay;
  spec.target = "rmap_lock.7";
  spec.delay_ns = 1000;
  plan.specs.push_back(spec);
  fault::FaultInjector faults;
  faults.arm(plan);
  sim.set_faults(&faults);
  SptLockSet locks(sim, "vm0", /*fine_grained=*/true);
  // "rmap_lock.7" is a substring of no other lock's name here.
  std::vector<std::pair<Resource*, SimTime>> handoffs;
  for (const std::uint64_t gfn : {1, 7, 17, 27, 107}) {
    handoffs.emplace_back(&locks.rmap_lock(gfn), 0);
  }
  handoffs.emplace_back(&locks.pt_lock(7), 0);
  handoffs.emplace_back(&locks.meta_lock(), 0);
  for (auto& [lock, acquired] : handoffs) {
    sim.spawn(hold_first(sim, *lock));
    sim.spawn(acquire_second(sim, *lock, acquired));
  }
  sim.run();
  ASSERT_TRUE(sim.all_tasks_done());
  for (const auto& [lock, acquired] : handoffs) {
    EXPECT_EQ(acquired, lock->name() == "vm0.rmap_lock.7" ? 1010u : 10u) << lock->name();
  }
  EXPECT_EQ(faults.fired(fault::FaultKind::kLockHandoffDelay), 1u);
  EXPECT_EQ(locks.rmap_lock_class().contended_acquisitions(), 5u);
}

TEST(LockClassTest, BlockedReportNamesTheParkedInstance) {
  Simulation sim;
  SptLockSet locks(sim, "vm0", /*fine_grained=*/true);
  locks.rmap_lock(3);  // an idle instance the report skips
  sim.spawn([](Resource& lock) -> Task<void> { co_await lock.acquire(); }(locks.rmap_lock(42)),
            "holder");  // returns without releasing
  sim.spawn(
      [](Simulation& s, Resource& lock) -> Task<void> {
        co_await s.delay(5);
        ScopedResource guard = co_await lock.scoped();
      }(sim, locks.rmap_lock(42)),
      "waiter");
  sim.run();
  EXPECT_EQ(sim.blocked_report(),
            "1/2 root tasks pending:\n"
            "  - \"waiter\" waiting on \"vm0.rmap_lock.42\" (queued 0 ns ago)\n"
            "  resource \"vm0.rmap_lock.42\": capacity 1, 1 queued, ages ns [0]\n");
  sim.abandon_pending();
}

TEST(RandomTest, ReproducibleStreams) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(RandomTest, BoundsRespected) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_in(10, 20);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 20u);
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace pvm
