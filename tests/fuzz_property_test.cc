// Randomized property tests against reference models: page-table operations
// vs a std::map oracle, page-table structure vs a node model, the TLB vs a
// linear-scan reference TLB, VMCS merge
// over random field values, and the simulation's misuse guards.

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdlib>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "src/arch/page_table.h"
#include "src/arch/tlb.h"
#include "src/hv/vmcs.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/resource.h"
#include "src/guest/io_device.h"
#include "src/sim/simulation.h"

namespace pvm {
namespace {

// Seed-sharding knobs, so CI shards and soak runs can widen coverage
// without recompiling:
//
//   PVM_FUZZ_SEED_OFFSET=N   shifts every parameterized seed by N — shard k
//                            of a fleet explores a disjoint seed set
//   PVM_FUZZ_ITER_SCALE=X    multiplies the per-seed step counts (0.1 for a
//                            quick smoke pass, 10 for a soak)
//
// Unset, both default to the historical suite exactly (offset 0, scale 1).

std::uint64_t fuzz_seed_offset() {
  const char* env = std::getenv("PVM_FUZZ_SEED_OFFSET");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

std::vector<std::uint64_t> sharded_seeds(std::initializer_list<std::uint64_t> base) {
  std::vector<std::uint64_t> seeds;
  for (const std::uint64_t seed : base) {
    seeds.push_back(seed + fuzz_seed_offset());
  }
  return seeds;
}

int fuzz_steps(int base) {
  const char* env = std::getenv("PVM_FUZZ_ITER_SCALE");
  if (env == nullptr) {
    return base;
  }
  const double scale = std::atof(env);
  if (scale <= 0) {
    return base;
  }
  const double scaled = static_cast<double>(base) * scale;
  return scaled < 1.0 ? 1 : static_cast<int>(scaled);
}

// --- Page table vs oracle, full op mix ---

struct OraclePage {
  std::uint64_t frame;
  bool writable;
  bool user;
  bool cow;
};

class PageTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableFuzz, MatchesOracleUnderOpMix) {
  Xoshiro256 rng(GetParam());
  FrameAllocator alloc("fuzz", 1u << 20);
  PageTable table("fuzz", &alloc);
  std::map<std::uint64_t, OraclePage> oracle;

  auto random_va = [&] {
    // Mix of clustered and scattered addresses to exercise shared nodes.
    if (rng.next_bool(0.5) && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
      return it->first + (rng.next_bool(0.5) ? kPageSize : 0);
    }
    return rng.next_below(1ull << 46) & ~kPageMask;
  };

  for (int step = 0, steps = fuzz_steps(4000); step < steps; ++step) {
    const double draw = rng.next_double();
    const std::uint64_t va = random_va();
    if (draw < 0.45) {
      PteFlags flags = PteFlags::rw_user();
      flags.writable = rng.next_bool(0.8);
      flags.cow = rng.next_bool(0.2);
      const std::uint64_t frame = rng.next_below(1u << 20);
      table.map(va, frame, flags);
      oracle[va] = OraclePage{frame, flags.writable, flags.user, flags.cow};
    } else if (draw < 0.65) {
      const bool existed = oracle.erase(va) > 0;
      EXPECT_EQ(table.unmap(va), existed);
    } else if (draw < 0.85) {
      const bool writable = rng.next_bool(0.5);
      const bool changed = table.update_pte(va, [&](Pte& pte) { pte.set_writable(writable); });
      auto it = oracle.find(va);
      if (it != oracle.end()) {
        // update_pte succeeds whenever the chain exists — even for a
        // non-present leaf — so only track the flag for present pages.
        it->second.writable = writable;
      }
      (void)changed;
    } else {
      // Probe a random address.
      const WalkResult walk = table.walk(va, AccessType::kRead, true);
      auto it = oracle.find(va);
      ASSERT_EQ(walk.present, it != oracle.end()) << "va=" << va << " step=" << step;
      if (it != oracle.end()) {
        ASSERT_EQ(walk.pte.frame_number(), it->second.frame);
        ASSERT_EQ(walk.pte.writable(), it->second.writable);
        ASSERT_EQ(walk.pte.cow(), it->second.cow);
      }
    }
    ASSERT_EQ(table.present_leaf_count(), oracle.size());
  }

  // Final sweep: every oracle entry translates; for_each_leaf sees exactly
  // the oracle's key set.
  std::size_t visited = 0;
  table.for_each_leaf([&](std::uint64_t va, const Pte& pte) {
    auto it = oracle.find(va);
    ASSERT_NE(it, oracle.end());
    ASSERT_EQ(pte.frame_number(), it->second.frame);
    ++visited;
  });
  EXPECT_EQ(visited, oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableFuzz,
                         ::testing::ValuesIn(sharded_seeds({3, 17, 71, 313, 1409})));

// --- Page-table structure vs a (level, prefix) node model ---
//
// PageTableFuzz checks what a table translates; this checks the tree that
// does it. The model holds every table page as (level, address bits above
// the page's span) -> frame, so it predicts what `map` allocates and writes,
// which pages `walk` loads and where it stops, when `find_pte` and
// `update_pte` find a leaf table, and what `clear` leaves behind.

class PageTableTreeModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableTreeModel, MatchesNodeModelUnderOpMix) {
  Xoshiro256 rng(GetParam());
  FrameAllocator alloc("tree", 1u << 20);
  PageTable table("tree", &alloc);
  using NodeKey = std::pair<int, std::uint64_t>;
  const auto node_key = [](std::uint64_t va, int level) {
    const std::uint64_t va48 = va & ((1ull << 48) - 1);
    return NodeKey{level, va48 >> (kPageShift + 9 * static_cast<std::uint64_t>(level))};
  };
  std::map<NodeKey, std::uint64_t> nodes{{node_key(0, kPageTableLevels), table.root_frame()}};
  std::set<std::uint64_t> live_frames{table.root_frame()};
  std::map<std::uint64_t, std::uint64_t> leaves;  // canonical va -> frame

  // Half the draws land near a mapped page: on it, on the next page, in the
  // next leaf table or under the next L2 table. The rest are scattered over
  // both halves of the address space.
  auto random_va = [&] {
    if (rng.next_bool(0.5) && !leaves.empty()) {
      auto it = leaves.begin();
      std::advance(it, static_cast<long>(rng.next_below(leaves.size())));
      const std::uint64_t strides[] = {0, kPageSize, kPageSize << 9, kPageSize << 18};
      return canonical_address(it->first + strides[rng.next_below(4)]);
    }
    const std::uint64_t user = rng.next_below(1ull << 47) & ~kPageMask;
    return rng.next_bool(0.3) ? canonical_address(user | (1ull << 47)) : user;
  };

  // A walk loads each existing page from the root down and stops at the
  // first missing one, whose parent's level is the missing level.
  auto expect_walk = [&](std::uint64_t va, int step) {
    const WalkResult walk = table.walk(va, AccessType::kRead, false);
    int loaded = 0;
    int missing = 0;
    for (int level = kPageTableLevels; level >= 1; --level) {
      const auto it = nodes.find(node_key(va, level));
      if (it == nodes.end()) {
        missing = level + 1;
        break;
      }
      ASSERT_EQ(walk.node_frames[loaded], it->second)
          << "va=" << va << " level=" << level << " step=" << step;
      ++loaded;
    }
    const bool present = leaves.contains(va);
    if (missing == 0 && !present) {
      missing = 1;
    }
    ASSERT_EQ(walk.levels_walked, loaded) << "va=" << va << " step=" << step;
    ASSERT_EQ(walk.missing_level, missing) << "va=" << va << " step=" << step;
    ASSERT_EQ(walk.present, present) << "va=" << va << " step=" << step;
    if (present) {
      ASSERT_EQ(walk.pte.frame_number(), leaves.at(va));
    }
  };

  for (int step = 0, steps = fuzz_steps(4000); step < steps; ++step) {
    const double draw = rng.next_double();
    const std::uint64_t va = random_va();
    const bool has_leaf_table = nodes.contains(node_key(va, 1));
    if (draw < 0.40) {
      int missing = 0;
      for (int level = kPageTableLevels - 1; level >= 1; --level) {
        missing += nodes.contains(node_key(va, level)) ? 0 : 1;
      }
      const std::uint64_t frame = rng.next_below(1u << 20);
      const MapResult result = table.map(va, frame, PteFlags::rw_user());
      ASSERT_EQ(result.nodes_allocated, missing) << "va=" << va << " step=" << step;
      ASSERT_EQ(result.entries_written, missing + 1) << "va=" << va << " step=" << step;
      ASSERT_EQ(result.replaced, leaves.contains(va)) << "va=" << va << " step=" << step;
      leaves[va] = frame;
      // Each page the map created has a frame no other live page holds.
      const WalkResult walk = table.walk(va, AccessType::kRead, false);
      ASSERT_EQ(walk.levels_walked, kPageTableLevels);
      for (int level = kPageTableLevels - 1; level >= 1; --level) {
        const std::uint64_t node_frame = walk.node_frames[kPageTableLevels - level];
        if (nodes.emplace(node_key(va, level), node_frame).second) {
          ASSERT_TRUE(live_frames.insert(node_frame).second)
              << "frame " << node_frame << " backs two pages, step=" << step;
        }
      }
    } else if (draw < 0.55) {
      const bool existed = leaves.erase(va) > 0;
      ASSERT_EQ(table.unmap(va), existed) << "va=" << va << " step=" << step;
    } else if (draw < 0.75) {
      // Both succeed exactly when the leaf table exists, present entry or not.
      ASSERT_EQ(table.find_pte(va) != nullptr, has_leaf_table) << "va=" << va << " step=" << step;
      std::uint64_t touched = 0;
      const bool updated =
          table.update_pte(va, [](Pte& pte) { pte.set_writable(true); }, &touched);
      ASSERT_EQ(updated, has_leaf_table) << "va=" << va << " step=" << step;
      if (updated) {
        ASSERT_EQ(touched, nodes.at(node_key(va, 1)));
      }
    } else if (draw < 0.995) {
      ASSERT_NO_FATAL_FAILURE(expect_walk(va, step));
    } else {
      std::vector<std::uint64_t> mapped;
      for (const auto& [leaf_va, frame] : leaves) {
        mapped.push_back(leaf_va);
      }
      table.clear();
      const std::uint64_t root = table.root_frame();
      ASSERT_EQ(root, nodes.at(node_key(0, kPageTableLevels)));
      std::set<std::uint64_t> freed = live_frames;
      freed.erase(root);
      nodes = {{node_key(0, kPageTableLevels), root}};
      live_frames = {root};
      leaves.clear();
      ASSERT_EQ(table.node_count(), 1u);
      ASSERT_EQ(table.present_leaf_count(), 0u);
      for (const std::uint64_t leaf_va : mapped) {
        const WalkResult walk = table.walk(leaf_va, AccessType::kRead, false);
        ASSERT_EQ(walk.missing_level, kPageTableLevels) << "va=" << leaf_va;
        ASSERT_EQ(walk.levels_walked, 1) << "va=" << leaf_va;
      }
      ASSERT_TRUE(table.owns_table_frame(root));
      for (const std::uint64_t frame : freed) {
        ASSERT_FALSE(table.owns_table_frame(frame)) << "freed frame " << frame;
      }
    }
    ASSERT_EQ(table.node_count(), nodes.size()) << "step=" << step;
    ASSERT_EQ(table.present_leaf_count(), leaves.size()) << "step=" << step;
  }

  // Final sweep: every model page walks as predicted and is owned, and
  // for_each_leaf visits exactly the model's leaves, ascending.
  for (const auto& [leaf_va, frame] : leaves) {
    ASSERT_NO_FATAL_FAILURE(expect_walk(leaf_va, -1));
  }
  for (const std::uint64_t frame : live_frames) {
    ASSERT_TRUE(table.owns_table_frame(frame)) << "frame " << frame;
  }
  using Leaves = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  Leaves visited;
  table.for_each_leaf(
      [&](std::uint64_t va, const Pte& pte) { visited.emplace_back(va, pte.frame_number()); });
  EXPECT_EQ(visited, Leaves(leaves.begin(), leaves.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableTreeModel,
                         ::testing::ValuesIn(sharded_seeds({5, 29, 89, 401, 1723})));

// --- Calendar queue vs binary-heap oracle, all tie policies ---
//
// The simulator's total event order is (when, tie, seq) with seq unique, so
// any correct min-queue must pop the exact same sequence — that is the
// invariant the byte-identity guarantee of the calendar-queue swap rests on.
// The oracle here is the std::priority_queue the calendar queue replaced.
// Both sides consume an identical interleaved push/pop stream under each tie
// policy's tie-key shape and three adversarial timestamp distributions:
// dense ties (floods one bucket into heap mode), sparse far-future gaps
// (exercises day jumps and calendar resizes), and wraparound-scale deltas
// (drives the day shift toward its clamp).

struct OracleKey {
  std::uint64_t when;
  std::uint64_t tie;
  std::uint64_t seq;
};

struct OracleLater {
  bool operator()(const OracleKey& a, const OracleKey& b) const {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    if (a.tie != b.tie) {
      return a.tie > b.tie;
    }
    return a.seq > b.seq;
  }
};

std::uint64_t fuzz_mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

enum class TieShape { kFifo, kRandom, kLifo };
enum class DeltaShape { kDenseTies, kSparseFarFuture, kWraparound };

void differential_queue_round(std::uint64_t seed, TieShape tie_shape, DeltaShape delta_shape,
                              int steps) {
  Xoshiro256 rng(seed ^ (static_cast<std::uint64_t>(tie_shape) << 32) ^
                 (static_cast<std::uint64_t>(delta_shape) << 40));
  CalendarQueue queue;
  std::priority_queue<OracleKey, std::vector<OracleKey>, OracleLater> oracle;
  std::uint64_t now = 0;
  std::uint64_t seq = 0;

  const auto next_delta = [&]() -> std::uint64_t {
    switch (delta_shape) {
      case DeltaShape::kDenseTies:
        // Mostly zero: hundreds of events land on identical timestamps,
        // flooding single buckets past the heap-mode threshold.
        return rng.next_bool(0.75) ? 0 : rng.next_below(3);
      case DeltaShape::kSparseFarFuture:
        // Near-term cluster plus far-future outliers: the calendar must jump
        // over long empty runs and widen its day width.
        return rng.next_bool(0.6) ? rng.next_below(512)
                                  : (1ull << 34) + rng.next_below(1ull << 34);
      case DeltaShape::kWraparound:
        // Deltas up to 2^50: pushes the day shift toward its clamp while
        // keeping cumulative time safely below uint64 overflow.
        return rng.next() & ((1ull << 50) - 1);
    }
    return 0;
  };
  const auto tie_of = [&](std::uint64_t s) -> std::uint64_t {
    switch (tie_shape) {
      case TieShape::kFifo:
        return s;
      case TieShape::kLifo:
        return ~s;
      case TieShape::kRandom:
        return fuzz_mix64(seed ^ (s * 0xd1342543de82ef95ull));
    }
    return s;
  };
  const auto pop_both_and_check = [&]() {
    ASSERT_FALSE(queue.empty());
    ASSERT_EQ(queue.min_when(), oracle.top().when);
    const SimEvent popped = queue.pop();
    const OracleKey expect = oracle.top();
    oracle.pop();
    ASSERT_EQ(popped.when, expect.when) << "seq=" << expect.seq;
    ASSERT_EQ(popped.tie, expect.tie) << "seq=" << expect.seq;
    ASSERT_EQ(popped.seq, expect.seq);
    // Payload integrity: the gap-buffer memmoves must not scramble fields.
    ASSERT_EQ(popped.root, static_cast<std::int64_t>(popped.seq));
    now = popped.when;
  };

  for (int step = 0; step < steps; ++step) {
    const bool do_push = oracle.empty() || (oracle.size() < 4096 && rng.next_bool(0.55));
    if (do_push) {
      const std::uint64_t when = now + next_delta();
      const std::uint64_t tie = tie_of(seq);
      queue.push(SimEvent{when, tie, seq, static_cast<std::int64_t>(seq),
                          std::noop_coroutine()});
      oracle.push(OracleKey{when, tie, seq});
      ++seq;
    } else if (rng.next_bool(0.02)) {
      // Burst drain: pop a run in one go so compaction and min-bucket
      // re-location see long pop streaks, not just single pops.
      const std::size_t burst = std::min<std::size_t>(oracle.size(), 64);
      for (std::size_t i = 0; i < burst; ++i) {
        ASSERT_NO_FATAL_FAILURE(pop_both_and_check());
      }
    } else {
      ASSERT_EQ(queue.size(), oracle.size());
      ASSERT_NO_FATAL_FAILURE(pop_both_and_check());
    }
  }
  // Full drain: the remaining backlog must match one-for-one.
  while (!oracle.empty()) {
    ASSERT_NO_FATAL_FAILURE(pop_both_and_check());
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, PopsIdenticallyToBinaryHeapOracle) {
  const int steps = fuzz_steps(3000);
  for (const TieShape tie : {TieShape::kFifo, TieShape::kRandom, TieShape::kLifo}) {
    for (const DeltaShape delta :
         {DeltaShape::kDenseTies, DeltaShape::kSparseFarFuture, DeltaShape::kWraparound}) {
      ASSERT_NO_FATAL_FAILURE(differential_queue_round(GetParam(), tie, delta, steps))
          << "tie=" << static_cast<int>(tie) << " delta=" << static_cast<int>(delta);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::ValuesIn(sharded_seeds({11, 137, 4099})));

// --- TLB internal consistency under random ops ---

// Linear-scan reference TLB: the same slots, round-robin victim and
// statistics as Tlb, with a brute-force search in place of its hash index.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(std::size_t capacity) : slots_(capacity) {}

  Tlb::LookupResult lookup(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn) {
    const Slot* slot = find(vpid, pcid, vpn);
    if (slot == nullptr && pcid != Tlb::kGlobalPcid) {
      slot = find(vpid, Tlb::kGlobalPcid, vpn);
    }
    if (slot == nullptr) {
      ++stats_.misses;
      return {};
    }
    ++stats_.hits;
    return {true, slot->frame, slot->writable, slot->user};
  }

  void insert(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn, const Pte& pte) {
    const std::uint16_t tag = pte.global() ? Tlb::kGlobalPcid : pcid;
    Slot* slot = find(vpid, tag, vpn);
    if (slot == nullptr) {
      slot = &slots_[next_victim_];
      next_victim_ = (next_victim_ + 1) % slots_.size();
      if (slot->valid) {
        ++stats_.evictions;
        ++stats_.entries_dropped;
      }
    }
    *slot = Slot{true, vpid, tag, vpn, pte.frame_number(), pte.writable(), pte.user()};
  }

  void flush_all() {
    ++stats_.flush_all;
    drop_if([](const Slot&) { return true; });
  }
  void flush_vpid(std::uint16_t vpid) {
    ++stats_.flush_vpid;
    drop_if([&](const Slot& slot) { return slot.vpid == vpid; });
  }
  void flush_pcid(std::uint16_t vpid, std::uint16_t pcid) {
    ++stats_.flush_pcid;
    drop_if([&](const Slot& slot) { return slot.vpid == vpid && slot.pcid == pcid; });
  }
  void flush_page(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn) {
    drop_if([&](const Slot& slot) {
      return slot.vpid == vpid && slot.vpn == vpn &&
             (slot.pcid == pcid || slot.pcid == Tlb::kGlobalPcid);
    });
  }

  const TlbStats& stats() const { return stats_; }
  std::size_t valid_entries() const {
    return static_cast<std::size_t>(
        std::count_if(slots_.begin(), slots_.end(), [](const Slot& s) { return s.valid; }));
  }

 private:
  struct Slot {
    bool valid = false;
    std::uint16_t vpid = 0;
    std::uint16_t pcid = 0;
    std::uint64_t vpn = 0;
    std::uint64_t frame = 0;
    bool writable = false;
    bool user = false;
  };

  Slot* find(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn) {
    for (Slot& slot : slots_) {
      if (slot.valid && slot.vpid == vpid && slot.pcid == pcid && slot.vpn == vpn) {
        return &slot;
      }
    }
    return nullptr;
  }

  template <typename Pred>
  void drop_if(Pred pred) {
    for (Slot& slot : slots_) {
      if (slot.valid && pred(slot)) {
        slot.valid = false;
        ++stats_.entries_dropped;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t next_victim_ = 0;
  TlbStats stats_;
};

class TlbFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TlbFuzz, IndexStaysConsistent) {
  Xoshiro256 rng(GetParam());
  Tlb tlb(64);
  ReferenceTlb reference(64);

  for (int step = 0, steps = fuzz_steps(6000); step < steps; ++step) {
    const auto vpid = static_cast<std::uint16_t>(rng.next_in(1, 3));
    const auto pcid = static_cast<std::uint16_t>(rng.next_in(1, 4));
    // Mostly a small hot set (hits, refills, evictions), sometimes any
    // 36-bit VPN (index clusters that wrap around the table's end).
    const std::uint64_t vpn =
        rng.next_bool(0.8) ? rng.next_below(128) : rng.next() & 0xfffffffffull;
    const double draw = rng.next_double();
    if (draw < 0.5) {
      PteFlags flags = PteFlags::rw_user();
      flags.global = rng.next_bool(0.1);
      flags.writable = rng.next_bool(0.7);
      const Pte pte = Pte::make(static_cast<std::uint64_t>(step), flags);
      tlb.insert(vpid, pcid, vpn, pte);
      reference.insert(vpid, pcid, vpn, pte);
    } else if (draw < 0.7) {
      const Tlb::LookupResult got = tlb.lookup(vpid, pcid, vpn);
      const Tlb::LookupResult want = reference.lookup(vpid, pcid, vpn);
      ASSERT_EQ(got.hit, want.hit) << "step " << step;
      ASSERT_EQ(got.frame, want.frame) << "step " << step;
      ASSERT_EQ(got.writable, want.writable) << "step " << step;
      ASSERT_EQ(got.user, want.user) << "step " << step;
    } else if (draw < 0.8) {
      tlb.flush_page(vpid, pcid, vpn);
      reference.flush_page(vpid, pcid, vpn);
    } else if (draw < 0.9) {
      tlb.flush_pcid(vpid, pcid);
      reference.flush_pcid(vpid, pcid);
    } else if (draw < 0.97) {
      tlb.flush_vpid(vpid);
      reference.flush_vpid(vpid);
    } else {
      tlb.flush_all();
      reference.flush_all();
    }
    ASSERT_LE(tlb.valid_entries(), tlb.capacity());
    ASSERT_EQ(tlb.valid_entries(), reference.valid_entries()) << "step " << step;
  }

  const TlbStats& got = tlb.stats();
  const TlbStats& want = reference.stats();
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.flush_all, want.flush_all);
  EXPECT_EQ(got.flush_vpid, want.flush_vpid);
  EXPECT_EQ(got.flush_pcid, want.flush_pcid);
  EXPECT_EQ(got.entries_dropped, want.entries_dropped);

  // Deterministic end-to-end check: fresh insert then immediate hit.
  tlb.insert(1, 1, 5, Pte::make(4242, PteFlags::rw_user()));
  const auto hit = tlb.lookup(1, 1, 5);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.frame, 4242u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbFuzz,
                         ::testing::ValuesIn(sharded_seeds({5, 25, 125})));

// --- VMCS merge over random values ---

TEST(VmcsFuzz, MergeNeverMixesGuestAndHostFields) {
  Xoshiro256 rng(99);
  for (int round = 0; round < 200; ++round) {
    Vmcs vmcs12;
    Vmcs vmcs01;
    Vmcs vmcs02;
    for (std::size_t i = 0; i < kVmcsFieldCount; ++i) {
      vmcs12.write(static_cast<VmcsField>(i), rng.next());
      vmcs01.write(static_cast<VmcsField>(i), rng.next());
    }
    merge_vmcs02(vmcs12, vmcs01, vmcs02);
    for (VmcsField field : kVmcs12MergedFields) {
      ASSERT_EQ(vmcs02.peek(field), vmcs12.peek(field));
    }
    for (VmcsField field : kVmcs01HostFields) {
      ASSERT_EQ(vmcs02.peek(field), vmcs01.peek(field));
    }
  }
}

// --- Simulation misuse guards ---

TEST(SimulationGuards, SpawnEmptyTaskThrows) {
  Simulation sim;
  EXPECT_THROW(sim.spawn(Task<void>()), std::invalid_argument);
}

TEST(SimulationGuards, SchedulingInThePastThrows) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> { co_await s.delay(100); }(sim));
  sim.run();
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_THROW(sim.schedule(std::noop_coroutine(), 50), std::logic_error);
}

TEST(SimulationGuards, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Simulation sim;
  sim.run_until(5000);
  EXPECT_EQ(sim.now(), 5000u);
}

TEST(TaskSemantics, MoveTransfersOwnership) {
  Simulation sim;
  auto make = [](Simulation& s) -> Task<void> { co_await s.delay(1); };
  Task<void> a = make(sim);
  EXPECT_TRUE(a.valid());
  Task<void> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  sim.spawn(std::move(b));
  EXPECT_FALSE(b.valid());
  sim.run();
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(IoDeviceTest, QueueDepthBoundsConcurrentService) {
  Simulation sim;
  CostModel costs;
  IoDevice device(sim, costs, "dev", /*queue_depth=*/2);
  std::vector<SimTime> done(4, 0);
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulation& s, IoDevice& d, SimTime* out) -> Task<void> {
      ScopedResource slot = co_await d.queue().scoped();
      co_await s.delay(d.service_time(0));
      *out = s.now();
    }(sim, device, &done[i]));
  }
  sim.run();
  // Two waves of two: 25us and 50us.
  EXPECT_EQ(done[0], costs.io_request_service);
  EXPECT_EQ(done[1], costs.io_request_service);
  EXPECT_EQ(done[2], 2 * costs.io_request_service);
  EXPECT_EQ(done[3], 2 * costs.io_request_service);
}

}  // namespace
}  // namespace pvm
