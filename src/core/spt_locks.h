// Shadow-page-table locking (paper §3.3.2, optimization 3).
//
// KVM's classic shadow MMU serializes every SPT mutation on one per-VM
// "mmu_lock". PVM splits SPT data into three groups, each with its own lock:
//   - inter-shadow-page structure (parent/child links, page collections):
//     one "meta_lock",
//   - intra-shadow-page data (the PTEs inside one shadow page): a per-shadow-
//     page "pt_lock",
//   - reverse mappings (gfn -> SPT entries): a per-gfn "rmap_lock".
// Concurrent page faults on different shadow pages / gfns then proceed in
// parallel; only structural changes serialize. In coarse mode every accessor
// returns the single mmu_lock, so benchmarks can ablate the optimization.

#ifndef PVM_SRC_CORE_SPT_LOCKS_H_
#define PVM_SRC_CORE_SPT_LOCKS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "src/sim/flat_map.h"
#include "src/sim/resource.h"
#include "src/sim/simulation.h"

namespace pvm {

class SptLockSet {
 public:
  SptLockSet(Simulation& sim, std::string name, bool fine_grained)
      : sim_(&sim),
        fine_grained_(fine_grained),
        mmu_lock_(sim, name + ".mmu_lock"),
        meta_lock_(sim, name + ".meta_lock"),
        pt_locks_(name + ".pt_lock."),
        rmap_locks_(name + ".rmap_lock.") {}

  bool fine_grained() const { return fine_grained_; }

  // The single coarse lock (always valid; in fine-grained mode it is unused
  // by the fault paths but still guards rare whole-table operations).
  Resource& mmu_lock() { return mmu_lock_; }

  // Lock guarding inter-shadow-page structure.
  Resource& meta_lock() { return fine_grained_ ? meta_lock_ : mmu_lock_; }

  // Lock guarding the PTEs of the shadow page backed by `shadow_table_frame`.
  Resource& pt_lock(std::uint64_t shadow_table_frame) {
    return fine_grained_ ? pt_locks_.get(*sim_, shadow_table_frame) : mmu_lock_;
  }

  // Lock guarding the reverse map of guest frame number `gfn`.
  Resource& rmap_lock(std::uint64_t gfn) {
    return fine_grained_ ? rmap_locks_.get(*sim_, gfn) : mmu_lock_;
  }

  std::size_t pt_lock_count() const { return pt_locks_.size(); }
  std::size_t rmap_lock_count() const { return rmap_locks_.size(); }

  // True when nothing holds or queues on `gfn`'s rmap lock (fine-grained
  // mode; a lock object that was never created has trivially no holder).
  // Reclaim uses this to skip gfns with a fill or zap in flight. Coarse-mode
  // callers must not rely on it — there the single mmu_lock is typically
  // held by the caller itself.
  bool rmap_lock_idle(std::uint64_t gfn) const {
    const Resource* lock = rmap_locks_.find(gfn);
    return lock == nullptr || (lock->available() && lock->queue_depth() == 0);
  }

 private:
  // The lazily created locks of one kind, named prefix + key. A Resource is
  // linked into its Simulation's registry and awaited by address, so it must
  // never move: a deque's emplace_back leaves existing elements in place, and
  // a FlatMap maps each key to its creation index.
  class LazyLocks {
   public:
    explicit LazyLocks(std::string prefix) : prefix_(std::move(prefix)) {}
    LazyLocks(const LazyLocks&) = delete;
    LazyLocks& operator=(const LazyLocks&) = delete;
    // Newest first. Freed oldest first, the newest locks and names would be
    // the last chunks freed and would merge into the heap top, which glibc
    // then returns to the kernel, so the next lock set page-faults it back.
    ~LazyLocks() {
      while (!locks_.empty()) {
        locks_.pop_back();
      }
    }

    Resource& get(Simulation& sim, std::uint64_t key) {
      if (const std::uint32_t* index = index_.find(key)) {
        return locks_[*index];
      }
      Resource& lock = locks_.emplace_back(sim, prefix_ + std::to_string(key));
      index_.try_emplace(key, static_cast<std::uint32_t>(locks_.size() - 1));
      return lock;
    }

    const Resource* find(std::uint64_t key) const {
      const std::uint32_t* index = index_.find(key);
      return index == nullptr ? nullptr : &locks_[*index];
    }

    std::size_t size() const { return locks_.size(); }

   private:
    std::string prefix_;
    FlatMap<std::uint64_t, std::uint32_t, IdentityHash> index_;
    std::deque<Resource> locks_;
  };

  Simulation* sim_;
  bool fine_grained_;
  Resource mmu_lock_;
  Resource meta_lock_;
  LazyLocks pt_locks_;
  LazyLocks rmap_locks_;
};

}  // namespace pvm

#endif  // PVM_SRC_CORE_SPT_LOCKS_H_
