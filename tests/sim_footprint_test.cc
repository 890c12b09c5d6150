// Heap footprint of lazily created SPT locks and of page-table nodes.
//
// A pvm (NST) run creates one lock instance per touched gfn (rmap_lock) and
// per shadow page (pt_lock); tens of thousands are live at teardown and
// almost none is ever contended. Their statistics live in one LockClass per
// lock kind. This binary replaces the global operator new and delete to
// count live heap bytes, so the per-lock cost of an instance is pinned: a
// per-instance name, histogram or interned flight-recorder name, a queue
// that allocates eagerly, or a lock index that allocates a node per lock,
// pushes it over the bound.
//
// Every guest table, shadow table and EPT in the stack is a PageTable, so
// the heap cost of one table page is pinned too: a node that carries both
// 512 PTEs and 512 child pointers costs twice the bound.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/arch/page_table.h"
#include "src/core/spt_locks.h"
#include "src/obs/flight.h"
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

// Live heap bytes per lock after kLocks rmap locks are created and each is
// acquired and released once, uncontended.
std::int64_t heap_bytes_per_lock(Simulation& sim, SptLockSet& locks) {
  const std::int64_t before = g_live_heap_bytes.load();
  for (std::uint64_t gfn = 0; gfn < kLocks; ++gfn) {
    locks.rmap_lock(gfn);
  }
  sim.spawn(touch_each_lock_once(locks));
  sim.run();
  const LockClass& rmap_locks = locks.rmap_lock_class();
  EXPECT_EQ(rmap_locks.instances(), kLocks);
  EXPECT_EQ(rmap_locks.acquisitions(), kLocks);
  EXPECT_EQ(rmap_locks.total_hold_ns(), 0u);
  return (g_live_heap_bytes.load() - before) / static_cast<std::int64_t>(kLocks);
}

// 71 bytes measured on x86-64 glibc: the 56-byte instance, its share of a
// deque node and its 4-byte index cell at the index's load.
TEST(ResourceFootprintTest, UncontendedRmapLockCostsUnder88Bytes) {
  Simulation sim;
  SptLockSet locks(sim, "vm0", /*fine_grained=*/true);
  const std::int64_t per_lock = heap_bytes_per_lock(sim, locks);
  RecordProperty("heap_bytes_per_lock", static_cast<int>(per_lock));
  EXPECT_GT(per_lock, 0);
  EXPECT_LE(per_lock, 88) << "heap bytes per lock";
}

// The always-on flight recorder interns the class name once, on the first
// acquire of any instance; its events name an instance by class and key.
TEST(ResourceFootprintTest, UncontendedRmapLockWithFlightRecorderCostsUnder96Bytes) {
  flight::FlightRecorder flight;
  Simulation sim;
  sim.set_flight(&flight);
  SptLockSet locks(sim, "vm0", /*fine_grained=*/true);
  const std::int64_t per_lock = heap_bytes_per_lock(sim, locks);
  RecordProperty("heap_bytes_per_lock", static_cast<int>(per_lock));
  EXPECT_EQ(flight.total_events(), 2 * kLocks);
  const std::vector<flight::Event> events = flight.merged();
  EXPECT_EQ(flight::event_detail(flight, events.back()),
            "\"vm0.rmap_lock." + std::to_string(kLocks - 1) + "\"");
  EXPECT_LE(per_lock, 96) << "heap bytes per lock, flight recording included";
}

// 4,161 bytes measured on x86-64 glibc: a 4,112-byte node plus its share of
// the slabs' unused slots and bookkeeping. The table has 511 nodes — the
// root, one L3, one L2 and 508 leaf tables — and no frame allocator, so
// both slabs are nearly full.
TEST(PageTableFootprintTest, NodeCostsAtMost4200HeapBytes) {
  const std::int64_t before = g_live_heap_bytes.load();
  PageTable table("footprint", nullptr);
  for (std::uint64_t i = 0; i < 508; ++i) {
    table.map(i * (kPageSize << 9), i, PteFlags::rw_user());
  }
  ASSERT_EQ(table.node_count(), 511u);
  const std::int64_t per_node = (g_live_heap_bytes.load() - before) / 511;
  RecordProperty("heap_bytes_per_node", static_cast<int>(per_node));
  EXPECT_LE(per_node, 4200) << "heap bytes per page-table node";
}

}  // namespace
}  // namespace pvm
