// Heap footprint of lazily created SPT locks.
//
// A pvm (NST) run creates one Resource per touched gfn (rmap_lock) and per
// shadow page (pt_lock); tens of thousands are live at teardown and almost
// none is ever contended. This binary replaces the global operator new and
// delete to count live heap bytes, so the per-lock cost of a Resource is
// pinned: a queue or histogram that allocates eagerly pushes it over the
// bound.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/spt_locks.h"
#include "src/sim/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace {

// Live bytes from operator new, by usable size: malloc's rounding counts,
// its per-chunk header does not.
std::atomic<std::int64_t> g_live_heap_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_live_heap_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  return p;
}

// GCC flags free() inside a replacement operator delete as a new/free
// mismatch; pairing them is exactly what a replacement does.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_heap_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                                std::memory_order_relaxed);
    std::free(p);
  }
}
#pragma GCC diagnostic pop

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace pvm {
namespace {

constexpr std::uint64_t kLocks = 10000;

Task<void> touch_each_lock_once(SptLockSet& locks) {
  for (std::uint64_t gfn = 0; gfn < kLocks; ++gfn) {
    ScopedResource guard = co_await locks.rmap_lock(gfn).scoped();
  }
}

TEST(ResourceFootprintTest, UncontendedRmapLockCostsUnderOneKib) {
  Simulation sim;
  SptLockSet locks(sim, "vm0", /*fine_grained=*/true);
  const std::int64_t before = g_live_heap_bytes.load();
  for (std::uint64_t gfn = 0; gfn < kLocks; ++gfn) {
    locks.rmap_lock(gfn);
  }
  sim.spawn(touch_each_lock_once(locks));
  sim.run();
  const std::int64_t per_lock =
      (g_live_heap_bytes.load() - before) / static_cast<std::int64_t>(kLocks);
  RecordProperty("heap_bytes_per_lock", static_cast<int>(per_lock));

  ASSERT_EQ(locks.rmap_lock_count(), kLocks);
  EXPECT_EQ(locks.rmap_lock(kLocks - 1).acquisitions(), 1u);
  EXPECT_GT(per_lock, 0);
  EXPECT_LT(per_lock, 1024) << "heap bytes per lock";
}

}  // namespace
}  // namespace pvm
