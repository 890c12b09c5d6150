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
#include <string>

#include "src/sim/resource.h"
#include "src/sim/simulation.h"

namespace pvm {

// One lock class per lock kind, as the paper presents them: the mmu_lock and
// the meta_lock are singletons, and the pt_locks and rmap_locks are keyed
// classes whose instances are created on first use. Statistics are per
// class ("vm0.rmap_lock"); an instance is named "vm0.rmap_lock.<gfn>" only
// where a name is printed.
class SptLockSet {
 public:
  SptLockSet(Simulation& sim, const std::string& name, bool fine_grained)
      : fine_grained_(fine_grained),
        mmu_lock_(sim, name + ".mmu_lock"),
        meta_lock_(sim, name + ".meta_lock"),
        pt_locks_(sim, name + ".pt_lock"),
        rmap_locks_(sim, name + ".rmap_lock") {}

  bool fine_grained() const { return fine_grained_; }

  // The single coarse lock (always valid; in fine-grained mode it is unused
  // by the fault paths but still guards rare whole-table operations).
  Resource& mmu_lock() { return mmu_lock_; }

  // Lock guarding inter-shadow-page structure.
  Resource& meta_lock() { return fine_grained_ ? meta_lock_ : mmu_lock_; }

  // Lock guarding the PTEs of the shadow page backed by `shadow_table_frame`.
  Resource& pt_lock(std::uint64_t shadow_table_frame) {
    return fine_grained_ ? pt_locks_.instance(shadow_table_frame) : mmu_lock_;
  }

  // Lock guarding the reverse map of guest frame number `gfn`.
  Resource& rmap_lock(std::uint64_t gfn) {
    return fine_grained_ ? rmap_locks_.instance(gfn) : mmu_lock_;
  }

  // The keyed classes, for their statistics and instance counts.
  const LockClass& pt_lock_class() const { return pt_locks_; }
  const LockClass& rmap_lock_class() const { return rmap_locks_; }

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
  bool fine_grained_;
  Resource mmu_lock_;
  Resource meta_lock_;
  LockClass pt_locks_;
  LockClass rmap_locks_;
};

}  // namespace pvm

#endif  // PVM_SRC_CORE_SPT_LOCKS_H_
