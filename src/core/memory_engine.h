// PVM's shadow-paging engine for one L2 guest VM (paper §3.3.2).
//
// Maintains, per guest process, a *dual* pair of shadow page tables — one for
// the guest user (v_ring3) and one for the guest kernel (v_ring0) — mapping
// GVA_L2 directly to GPA_L1, simulating KPTI for the guest. A per-VM
// `gpa_map` (KVM memslots analogue) translates GPA_L2 to GPA_L1, allocating
// L1 backing frames on demand. A reverse map (gfn -> SPT entries) supports
// zapping when the guest frees or write-protects pages.
//
// The three PVM optimizations are switchable:
//   - prefault: fill the SPT on the guest's iret path so the retried access
//     does not fault again,
//   - PCID mapping: give each (process, ring) shadow space its own hardware
//     PCID so world switches flush nothing,
//   - fine-grained locks: meta/pt/rmap locks instead of one mmu_lock.
//
// Lock order (fine-grained mode): rmap_lock(gfn) may be held while acquiring
// meta_lock or a pt_lock; never the reverse. bulk_zap takes meta_lock alone,
// so a fill that slept on meta_lock revalidates its leaf backpointer before
// installing (the analogue of KVM's mmu_notifier sequence retry) and aborts
// if a bulk zap raced past it.
//
// Coherence oracle: when enabled, after every mutation that completes while
// no other mutation is in flight, the engine re-verifies its structural
// invariants — SPT leaves, the gfn backpointer map, and the rmap form exact
// bijections, leaves agree with gpa_map, and the dual-SPT (KPTI) user table
// holds no guest-kernel-half translations. A *strict* check additionally
// verifies every shadow leaf agrees with guest-PT∘gpa_map; it is only sound
// at quiescent points (simcheck runs it between workload phases) and is
// skipped for backends with deferred PT-sync rings.

#ifndef PVM_SRC_CORE_MEMORY_ENGINE_H_
#define PVM_SRC_CORE_MEMORY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/arch/cost_model.h"
#include "src/arch/page_table.h"
#include "src/arch/physical_memory.h"
#include "src/arch/tlb.h"
#include "src/core/pcid_mapper.h"
#include "src/core/spt_locks.h"
#include "src/metrics/counters.h"
#include "src/sim/arena.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/wal/wal.h"

namespace pvm {

// Start of the guest-kernel half of the address space (mirrors
// GuestProcess::kKernelBase; duplicated so core/ does not depend on guest/).
inline constexpr std::uint64_t kGuestKernelHalfBase = 0xffff800000000000ull;

// The semantic effect of a trapped guest page-table store.
enum class GptStoreKind {
  kInstall,       // new leaf installed (demand paging, COW break)
  kClear,         // leaf cleared (munmap)
  kWriteProtect,  // leaf write bit dropped (COW arm)
  kMakeWritable,  // leaf write bit raised (COW break, sole owner)
  kTableAlloc,    // intermediate table page installed
};

// Thrown by the coherence oracle when an SPT invariant is violated. The
// message carries the full list of violations.
class SptCoherenceError : public std::runtime_error {
 public:
  explicit SptCoherenceError(const std::string& what) : std::runtime_error(what) {}
};

class PvmMemoryEngine {
 public:
  struct Options {
    bool prefault = true;
    bool pcid_mapping = true;
    bool fine_grained_locks = true;
    bool dual_spt = true;  // separate user/kernel shadow tables (KPTI-like)
  };

  PvmMemoryEngine(Simulation& sim, const CostModel& costs, CounterSet& counters,
                  FrameAllocator& l1_frames, std::string name, const Options& options);

  const Options& options() const { return options_; }
  SptLockSet& locks() { return locks_; }
  PcidMapper& pcid_mapper() { return pcid_mapper_; }
  PageTable& gpa_map() { return gpa_map_; }

  // ---- Process lifecycle ----

  // `guest_pt` (optional) is the process's guest page table; the strict
  // oracle checks shadow leaves against it. The engine never mutates it.
  void create_process(std::uint64_t pid, const PageTable* guest_pt = nullptr);
  void destroy_process(std::uint64_t pid, Tlb& tlb, std::uint16_t vpid);

  // Whether the engine tracks shadow tables for `pid`. False both before
  // create_process and in configurations that use the engine only for PCID
  // bookkeeping (direct paging has no shadow dimension).
  bool has_process(std::uint64_t pid) const { return shadows_.contains(pid); }

  // The active shadow table for (process, ring). With dual_spt disabled the
  // kernel table serves both rings.
  PageTable& spt(std::uint64_t pid, bool kernel_ring);
  const PageTable& spt(std::uint64_t pid, bool kernel_ring) const;

  // ---- Fault-path operations (coroutines charging virtual time) ----

  // Fills the SPT leaf for `gva` from the guest's present GPT leaf
  // `gpt_leaf`: translates GPA_L2 -> GPA_L1 through gpa_map (allocating
  // backing on demand), installs the SPT entry under the configured locks,
  // and records the reverse mapping. `is_prefault` only affects accounting.
  //
  // Returns true when the leaf is installed OR the fill benignly raced a
  // concurrent zap (Counter::kSptFillRaced; the next access refaults and
  // retries). Returns false only on backing exhaustion: the L1 allocator is
  // empty and a reclaim pass recovered nothing — the caller should OOM-kill
  // in the guest rather than retry.
  Task<bool> fill_spt(std::uint64_t pid, std::uint64_t gva, bool kernel_ring, Pte gpt_leaf,
                      bool is_prefault);

  // Emulates a trapped write to the guest page table and keeps the shadow
  // tables coherent (zap on clear/write-protect, and on install over an
  // existing shadow leaf — the COW-break case, as in kvm_mmu_pte_write).
  // `emulation_work_ns` is the scheme's instruction-emulation cost, charged
  // under the meta/mmu lock. Does not include the world switches — the
  // backend wraps this in the trap protocol.
  Task<void> emulate_gpt_store(std::uint64_t pid, std::uint64_t gva, GptStoreKind kind,
                               Tlb& tlb, std::uint16_t vpid,
                               std::uint64_t emulation_work_ns);

  // Lets the engine know how many vCPUs share the guest's address spaces:
  // remote TLB shootdowns on shadow zaps scale with it (the quadratic cost
  // traditional shadow paging pays under concurrency).
  void set_vcpu_count_provider(std::function<std::size_t()> provider) {
    vcpu_count_ = std::move(provider);
  }

  // Drops any shadow translations for (pid, gva) in both rings and flushes
  // matching TLB entries. Free when nothing is mapped.
  Task<void> zap_gva(std::uint64_t pid, std::uint64_t gva, Tlb& tlb, std::uint16_t vpid);

  // Bulk teardown: drops both of a process's shadow tables wholesale and
  // flushes its TLB footprint. Backs the PVM bulk-teardown hypercall; cost
  // scales with the number of populated shadow leaves.
  Task<void> bulk_zap(std::uint64_t pid, Tlb& tlb, std::uint16_t vpid);

  // Activates (process, ring) on a vCPU: returns the hardware PCID to run
  // with. Without PCID mapping, performs the traditional full-VPID flush.
  Task<std::uint16_t> activate(std::uint64_t pid, bool kernel_ring, Tlb& tlb,
                               std::uint16_t vpid);

  // Translates a guest-physical page to its L1 backing frame, allocating on
  // demand (cold path charged). Non-coroutine variant used inside locks.
  // Throws on allocator exhaustion (legacy behavior; fault paths use the
  // checked variant below).
  std::uint64_t translate_or_allocate_gpa(std::uint64_t gpa_frame, bool* allocated);

  // One frame-pressure reclaim pass (see translate_or_allocate_gpa_checked).
  struct ReclaimStats {
    std::uint64_t frames = 0;         // backing frames recovered
    std::uint64_t leaves_zapped = 0;  // live shadow leaves dropped to get them
  };

  // Like translate_or_allocate_gpa but degrades instead of throwing: when
  // the allocator refuses (exhaustion, injected pressure), the engine runs a
  // synchronous reclaim pass — evicting cold gpa_map translations first, then
  // stealing warm ones by zapping their shadow leaves through the rmap — and
  // hands the first recovered frame straight to this request. Returns
  // nullopt only when even reclaim found nothing (true exhaustion). `stats`
  // (optional) reports what the pass did so the caller can charge its cost.
  std::optional<std::uint64_t> translate_or_allocate_gpa_checked(std::uint64_t gpa_frame,
                                                                 bool* allocated,
                                                                 ReclaimStats* stats);

  // Called (synchronously) after a reclaim pass that zapped live shadow
  // leaves; the platform wires a conservative full-VPID TLB flush over every
  // vCPU running this engine's guest. The time is charged by the fill that
  // triggered the reclaim, under Phase::kReclaim.
  void set_reclaim_flush(std::function<void()> flush) { reclaim_flush_ = std::move(flush); }

  std::uint64_t spt_leaves(std::uint64_t pid, bool kernel_ring) const;

  // Total 4 KiB table pages held by all shadow tables plus the gpa_map —
  // the memory cost of the dual-SPT design the paper's §5 discusses.
  std::uint64_t shadow_table_frames() const;

  // Aggregated slab accounting across this engine's arenas: rmap chain
  // nodes plus the node slabs of gpa_map and every live shadow table. Feeds
  // the opt-in `alloc` section of the bench export (--alloc-stats).
  SlabStats alloc_stats() const;

  // ---- WAL checkpoint / restore (pvm::wal) ----

  // Serializes the engine's durable structure — gpa_map translations and
  // every installed shadow leaf with its gfn backpointer — as a record
  // stream ending in a checkpoint record. Deterministic: gpa_map leaves in
  // ascending GPA order, shadow leaves in leaf_gfn_ (pid, ring, gva) order.
  void checkpoint_to_wal(wal::Log& log) const;

  // Rebuilds gpa_map, shadow tables, backpointers, and the rmap from a
  // recovered record stream (as produced by checkpoint_to_wal). Restore
  // into a *fresh* engine: existing state is not cleared. Unknown record
  // types are skipped (the stream may interleave migration dirty-log
  // records). Returns false and sets `error` on a malformed payload; the
  // caller should then discard the engine. On success the result is
  // verify_coherence(strict=false)-clean by construction — the recovery
  // tests assert exactly that against a torn-tail stream.
  bool restore_from_records(const std::vector<wal::Record>& records, std::string* error);

  // ---- Coherence oracle ----

  // Turns on post-mutation structural checking. `strict_gpt` additionally
  // arms the guest-PT agreement check for explicit quiescent-point calls
  // (disable for backends whose PT sync is legitimately deferred).
  void enable_coherence_oracle(bool strict_gpt = true) {
    oracle_enabled_ = true;
    oracle_strict_ = strict_gpt;
  }
  bool coherence_oracle_enabled() const { return oracle_enabled_; }
  bool coherence_oracle_strict() const { return oracle_strict_; }

  // Verifies the invariants; returns a (possibly empty) list of violations.
  // `strict` adds the guest-PT agreement check — only meaningful when no
  // mutation is in flight and the backend has no deferred sync pending.
  std::vector<std::string> check_coherence(bool strict) const;

  // check_coherence + throw SptCoherenceError if anything is wrong.
  void verify_coherence(bool strict) const;

  // ---- Test hooks (mutation testing of the oracle; never used by the
  // protocol paths) ----

  // Redirects an existing shadow leaf to a bogus frame (breaks the
  // leaf-vs-gpa_map agreement). Returns false if no leaf exists.
  bool debug_corrupt_spt_leaf(std::uint64_t pid, bool kernel_ring, std::uint64_t gva);

  // Plants one deterministic coherence violation: corrupts the first tracked
  // shadow leaf in (pid, ring, gva) order (the backpointer index is an
  // ordered map, so the choice is interleaving-independent), or — when no
  // leaf survived, e.g. at a post-teardown quiescent point — inserts a
  // dangling backpointer that the structural oracle reports as
  // "backpointer for destroyed process". Used by the sweep determinism
  // tests to make the oracle fail on demand. Always returns true.
  bool debug_plant_violation();

  // Erases the rmap entry for an existing leaf but keeps the leaf (creates a
  // missing-rmap-entry violation). Returns false if no entry exists.
  bool debug_drop_rmap_entry(std::uint64_t pid, bool kernel_ring, std::uint64_t gva);

  // Duplicates the rmap entry for an existing leaf (creates a stale/dup
  // violation). Returns false if no entry exists.
  bool debug_duplicate_rmap_entry(std::uint64_t pid, bool kernel_ring, std::uint64_t gva);

  // Installs a guest-kernel-half translation into the *user* shadow table
  // (violates the dual-SPT KPTI invariant). No-op unless dual_spt.
  bool debug_install_kernel_leaf_in_user_spt(std::uint64_t pid, std::uint64_t gva);

 private:
  struct ProcessShadow {
    std::unique_ptr<PageTable> user_spt;
    std::unique_ptr<PageTable> kernel_spt;
    const PageTable* guest_pt = nullptr;  // strict-oracle reference, not owned
  };

  struct RmapEntry {
    std::uint64_t pid;
    bool kernel_ring;
    std::uint64_t gva;

    bool operator==(const RmapEntry&) const = default;
  };

  struct RmapNode {
    RmapEntry entry;
    RmapNode* next = nullptr;
  };

  // Insertion-order-preserving chain of slab-allocated rmap entries — the
  // KVM pte_list idiom. Entries churn on every fill/zap cycle; the shared
  // per-engine slab recycles nodes through its free list instead of paying
  // vector reallocation per gfn. Iteration yields entries oldest-first, the
  // exact order the previous std::vector gave, which the coherence oracle
  // and reclaim sweep depend on for determinism. Mutators take the owning
  // slab explicitly: the chain is a dumb intrusive list, the engine owns the
  // storage. Chains destroyed non-empty (engine teardown) leak nothing —
  // the slab frees all node memory wholesale.
  class RmapChain {
   public:
    RmapChain() = default;
    RmapChain(const RmapChain&) = delete;
    RmapChain& operator=(const RmapChain&) = delete;
    RmapChain(RmapChain&& other) noexcept : head_(other.head_), tail_(other.tail_) {
      other.head_ = nullptr;
      other.tail_ = nullptr;
    }
    RmapChain& operator=(RmapChain&& other) noexcept {
      std::swap(head_, other.head_);
      std::swap(tail_, other.tail_);
      return *this;
    }

    struct Iterator {
      const RmapNode* node;
      const RmapEntry& operator*() const { return node->entry; }
      Iterator& operator++() {
        node = node->next;
        return *this;
      }
      bool operator==(const Iterator&) const = default;
    };
    Iterator begin() const { return Iterator{head_}; }
    Iterator end() const { return Iterator{nullptr}; }
    bool empty() const { return head_ == nullptr; }

    void push_back(const RmapEntry& entry, SlabAllocator<RmapNode>& slab) {
      RmapNode* node = slab.acquire(RmapNode{entry, nullptr});
      if (tail_ == nullptr) {
        head_ = node;
      } else {
        tail_->next = node;
      }
      tail_ = node;
    }

    // Unlinks and recycles every entry matching `match`; returns the count.
    std::size_t erase(const RmapEntry& match, SlabAllocator<RmapNode>& slab) {
      return erase_if([&match](const RmapEntry& entry) { return entry == match; }, slab);
    }

    template <typename Pred>
    std::size_t erase_if(Pred pred, SlabAllocator<RmapNode>& slab) {
      std::size_t erased = 0;
      RmapNode** link = &head_;
      RmapNode* prev = nullptr;
      while (*link != nullptr) {
        RmapNode* node = *link;
        if (pred(node->entry)) {
          *link = node->next;
          slab.release(node);
          ++erased;
        } else {
          prev = node;
          link = &node->next;
        }
      }
      tail_ = prev;
      return erased;
    }

    std::size_t count(const RmapEntry& match) const {
      std::size_t matches = 0;
      for (const RmapNode* node = head_; node != nullptr; node = node->next) {
        matches += node->entry == match ? 1 : 0;
      }
      return matches;
    }

    void clear(SlabAllocator<RmapNode>& slab) {
      while (head_ != nullptr) {
        RmapNode* node = head_;
        head_ = node->next;
        slab.release(node);
      }
      tail_ = nullptr;
    }

   private:
    RmapNode* head_ = nullptr;
    RmapNode* tail_ = nullptr;
  };

  // (pid, kernel_ring, gva) — one shadow leaf. std::map for deterministic
  // iteration order in the oracle and in bulk erases.
  using LeafKey = std::tuple<std::uint64_t, bool, std::uint64_t>;

  // RAII marker for a mutation in flight; the oracle only auto-fires when
  // the completing mutator is the sole one (a half-applied concurrent
  // mutation is not a violation).
  struct MutationScope {
    PvmMemoryEngine* engine;
    explicit MutationScope(PvmMemoryEngine* e) : engine(e) { ++engine->inflight_mutations_; }
    MutationScope(const MutationScope&) = delete;
    MutationScope& operator=(const MutationScope&) = delete;
    ~MutationScope() { --engine->inflight_mutations_; }
  };

  ProcessShadow& shadow_for(std::uint64_t pid);

  // Runs the structural check if the oracle is on and the caller is the only
  // mutation in flight. Called at the end of every mutator (throws through
  // the coroutine promise on violation).
  void maybe_check_after_mutation() const;

  // Zaps one (pid, gva) in one ring: unmaps the leaf and erases its rmap
  // entry and backpointer, revalidating after each lock wait.
  Task<void> zap_one_ring(std::uint64_t pid, std::uint64_t gva, bool kernel_ring, Tlb& tlb,
                          std::uint16_t vpid);

  // Erases all backpointers and rmap entries belonging to `pid` (bulk
  // teardown / process destruction; caller holds the structural lock).
  void erase_process_rmap_state(std::uint64_t pid);

  // Feeds the live-shadow-leaves gauge when a time-series collector is
  // attached; every leaf_gfn_ mutation reports its delta through here so the
  // gauge tracks the backpointer map exactly.
  void note_leaves(std::int64_t delta);

  // The synchronous reclaim sweep behind translate_or_allocate_gpa_checked.
  // Runs without suspending, so it is atomic w.r.t. every other task: the
  // only in-flight state it must respect is a fill/zap suspended while
  // *holding* a gfn's rmap lock (its translation is stale the moment we evict
  // that gfn) — in fine-grained mode those gfns are skipped via
  // rmap_lock_idle; in coarse mode the single mmu_lock serializes mutators,
  // so the caller itself is the only one mid-mutation. Returns the first
  // recovered frame (for direct reuse by the requester — immune to injected
  // allocator pressure); extra frames go back to the allocator.
  std::optional<std::uint64_t> reclaim_backing_frame(std::uint64_t requesting_gfn,
                                                     ReclaimStats* stats);

  Simulation* sim_;
  const CostModel* costs_;
  CounterSet* counters_;
  FrameAllocator* l1_frames_;
  std::string name_;
  Options options_;

  std::function<std::size_t()> vcpu_count_;
  SptLockSet locks_;
  PcidMapper pcid_mapper_;
  PageTable gpa_map_;  // GPA_L2 page -> GPA_L1 frame (memslots)
  std::unordered_map<std::uint64_t, ProcessShadow> shadows_;
  std::unordered_map<std::uint64_t, RmapChain> rmap_;
  SlabAllocator<RmapNode> rmap_slab_{64};
  // Backpointers: which gfn each installed shadow leaf translates. Keeps the
  // rmap exact (zaps erase precisely their own entry) and lets fills detect
  // that a concurrent zap invalidated them.
  std::map<LeafKey, std::uint64_t> leaf_gfn_;

  std::function<void()> reclaim_flush_;

  bool oracle_enabled_ = false;
  bool oracle_strict_ = true;
  int inflight_mutations_ = 0;
};

}  // namespace pvm

#endif  // PVM_SRC_CORE_MEMORY_ENGINE_H_
