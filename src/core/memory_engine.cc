#include "src/core/memory_engine.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/fault/fault.h"
#include "src/obs/flight.h"
#include "src/obs/span.h"
#include "src/obs/step.h"
#include "src/obs/ts.h"

namespace pvm {

PvmMemoryEngine::PvmMemoryEngine(Simulation& sim, const CostModel& costs, CounterSet& counters,
                                 FrameAllocator& l1_frames, std::string name,
                                 const Options& options)
    : sim_(&sim),
      costs_(&costs),
      counters_(&counters),
      l1_frames_(&l1_frames),
      name_(std::move(name)),
      options_(options),
      locks_(sim, name_, options.fine_grained_locks),
      gpa_map_(name_ + ".gpa_map", nullptr) {}

void PvmMemoryEngine::create_process(std::uint64_t pid, const PageTable* guest_pt) {
  ProcessShadow shadow;
  shadow.kernel_spt =
      std::make_unique<PageTable>(name_ + ".spt_k." + std::to_string(pid), l1_frames_);
  if (options_.dual_spt) {
    shadow.user_spt =
        std::make_unique<PageTable>(name_ + ".spt_u." + std::to_string(pid), l1_frames_);
  }
  shadow.guest_pt = guest_pt;
  shadows_[pid] = std::move(shadow);
}

void PvmMemoryEngine::note_leaves(std::int64_t delta) {
  if (delta == 0) {
    return;
  }
  if (ts::Collector* ts = sim_->ts()) {
    ts->gauge_add("live_shadow_leaves", delta);
  }
}

std::vector<PvmMemoryEngine::LeafKey> PvmMemoryEngine::sorted_leaf_keys() const {
  std::vector<LeafKey> keys;
  keys.reserve(leaf_gfn_.size());
  leaf_gfn_.for_each([&keys](const LeafKey& key, std::uint64_t) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

void PvmMemoryEngine::erase_process_rmap_state(std::uint64_t pid) {
  // Every rmap entry of a live leaf has a backpointer naming its gfn, so
  // the backpointers find exactly the chains that hold this process's
  // entries. Erasing from a chain keeps the survivors' order.
  const std::size_t erased = leaf_gfn_.erase_if([&](const LeafKey& key, std::uint64_t gfn) {
    const auto& [key_pid, kernel_ring, gva] = key;
    if (key_pid != pid) {
      return false;
    }
    if (const auto rit = rmap_.find(gfn); rit != rmap_.end()) {
      rit->second.erase(RmapEntry{pid, kernel_ring, gva}, rmap_slab_);
    }
    return true;
  });
  note_leaves(-static_cast<std::int64_t>(erased));
}

void PvmMemoryEngine::destroy_process(std::uint64_t pid, Tlb& tlb, std::uint16_t vpid) {
  auto it = shadows_.find(pid);
  if (it == shadows_.end()) {
    return;
  }
  MutationScope mutation(this);
  erase_process_rmap_state(pid);
  // Flush any TLB entries tagged with the process's mapped PCIDs. Without
  // PCID mapping all processes share the VPID tag, so flush it whole.
  if (options_.pcid_mapping) {
    const PcidMapper::Mapping kernel = pcid_mapper_.map(pid, true);
    tlb.flush_pcid(vpid, kernel.hw_pcid);
    if (options_.dual_spt) {
      const PcidMapper::Mapping user = pcid_mapper_.map(pid, false);
      tlb.flush_pcid(vpid, user.hw_pcid);
    }
    pcid_mapper_.release(pid);
  } else {
    tlb.flush_vpid(vpid);
  }
  shadows_.erase(it);
  maybe_check_after_mutation();
}

PvmMemoryEngine::ProcessShadow& PvmMemoryEngine::shadow_for(std::uint64_t pid) {
  auto it = shadows_.find(pid);
  if (it == shadows_.end()) {
    throw std::logic_error(name_ + ": no shadow tables for pid " + std::to_string(pid));
  }
  return it->second;
}

PageTable& PvmMemoryEngine::spt(std::uint64_t pid, bool kernel_ring) {
  ProcessShadow& shadow = shadow_for(pid);
  if (!kernel_ring && options_.dual_spt) {
    return *shadow.user_spt;
  }
  return *shadow.kernel_spt;
}

const PageTable& PvmMemoryEngine::spt(std::uint64_t pid, bool kernel_ring) const {
  auto it = shadows_.find(pid);
  if (it == shadows_.end()) {
    throw std::logic_error(name_ + ": no shadow tables for pid " + std::to_string(pid));
  }
  if (!kernel_ring && options_.dual_spt) {
    return *it->second.user_spt;
  }
  return *it->second.kernel_spt;
}

std::uint64_t PvmMemoryEngine::spt_leaves(std::uint64_t pid, bool kernel_ring) const {
  return spt(pid, kernel_ring).present_leaf_count();
}

std::uint64_t PvmMemoryEngine::shadow_table_frames() const {
  std::uint64_t total = gpa_map_.node_count();
  for (const auto& [pid, shadow] : shadows_) {
    total += shadow.kernel_spt->node_count();
    if (shadow.user_spt) {
      total += shadow.user_spt->node_count();
    }
  }
  return total;
}

SlabStats PvmMemoryEngine::alloc_stats() const {
  SlabStats stats = rmap_slab_.stats();
  stats += gpa_map_.node_alloc_stats();
  for (const auto& [pid, shadow] : shadows_) {
    stats += shadow.kernel_spt->node_alloc_stats();
    if (shadow.user_spt) {
      stats += shadow.user_spt->node_alloc_stats();
    }
  }
  return stats;
}

std::optional<std::uint64_t> PvmMemoryEngine::translate_or_allocate_gpa_checked(
    std::uint64_t gpa_frame, bool* allocated, ReclaimStats* stats) {
  const std::uint64_t gpa = gpa_frame << kPageShift;
  if (const Pte* existing = gpa_map_.find_pte(gpa); existing != nullptr && existing->present()) {
    if (allocated != nullptr) {
      *allocated = false;
    }
    return existing->frame_number();
  }
  std::optional<std::uint64_t> l1_frame = l1_frames_->allocate();
  if (!l1_frame.has_value()) {
    counters_->add(Counter::kFrameReclaim);
    l1_frame = reclaim_backing_frame(gpa_frame, stats);
    if (!l1_frame.has_value()) {
      return std::nullopt;
    }
  }
  gpa_map_.map(gpa, *l1_frame, PteFlags::rw_kernel());
  if (allocated != nullptr) {
    *allocated = true;
  }
  return l1_frame;
}

std::optional<std::uint64_t> PvmMemoryEngine::reclaim_backing_frame(std::uint64_t requesting_gfn,
                                                                    ReclaimStats* stats) {
  // Victim selection in deterministic (gpa_map traversal) order. Cold gfns
  // — no rmap entries, hence no shadow leaf caches them — go first: evicting
  // one drops only the gpa_map translation. Warm gfns cost a leaf zap per
  // rmap entry plus the TLB flush below.
  constexpr std::size_t kReclaimBatch = 32;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cold;  // (gfn, frame)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> warm;
  gpa_map_.for_each_leaf([&](std::uint64_t gpa, const Pte& pte) {
    const std::uint64_t gfn = gpa >> kPageShift;
    if (gfn == requesting_gfn) {
      return;  // never evict the translation being established
    }
    if (options_.fine_grained_locks && !locks_.rmap_lock_idle(gfn)) {
      // A fill or zap in flight for this gfn holds a translation it took
      // before suspending; evicting the gfn under it would let the resumed
      // task install a leaf over a recycled frame.
      return;
    }
    const auto rit = rmap_.find(gfn);
    auto& bucket = (rit == rmap_.end() || rit->second.empty()) ? cold : warm;
    if (bucket.size() < kReclaimBatch) {
      bucket.emplace_back(gfn, pte.frame_number());
    }
  });

  std::vector<std::uint64_t> recovered;
  std::uint64_t leaves_zapped = 0;
  std::int64_t leaves_erased = 0;
  const auto evict = [&](std::uint64_t gfn, std::uint64_t frame) {
    if (const auto rit = rmap_.find(gfn); rit != rmap_.end()) {
      for (const RmapEntry& entry : rit->second) {
        spt(entry.pid, entry.kernel_ring).unmap(entry.gva);
        leaves_erased += leaf_gfn_.erase(LeafKey{entry.pid, entry.kernel_ring, entry.gva}) ? 1 : 0;
        ++leaves_zapped;
      }
      rit->second.clear(rmap_slab_);
      rmap_.erase(rit);
    }
    gpa_map_.unmap(gfn << kPageShift);
    recovered.push_back(frame);
  };
  for (const auto& [gfn, frame] : cold) {
    if (recovered.size() >= kReclaimBatch) {
      break;
    }
    evict(gfn, frame);
  }
  for (const auto& [gfn, frame] : warm) {
    if (recovered.size() >= kReclaimBatch) {
      break;
    }
    evict(gfn, frame);
  }
  note_leaves(-leaves_erased);
  if (recovered.empty()) {
    return std::nullopt;
  }
  counters_->add(Counter::kFramesReclaimed, recovered.size());
  if (stats != nullptr) {
    stats->frames += recovered.size();
    stats->leaves_zapped += leaves_zapped;
  }
  // The first frame goes straight to the requester — routing it through the
  // allocator could see the same injected pressure that forced the reclaim.
  // The rest refill the free list.
  for (std::size_t i = 1; i < recovered.size(); ++i) {
    l1_frames_->free(recovered[i]);
  }
  if (leaves_zapped > 0 && reclaim_flush_) {
    reclaim_flush_();
  }
  return recovered.front();
}

Task<bool> PvmMemoryEngine::fill_spt(std::uint64_t pid, std::uint64_t gva, bool kernel_ring,
                                     Pte gpt_leaf, bool is_prefault) {
  obs::SpanScope span(sim_->spans(),
                      is_prefault ? obs::Phase::kPrefault : obs::Phase::kSptFill, gva);
  MutationScope mutation(this);
  if (fault::FaultInjector* faults = sim_->faults(); faults != nullptr) {
    if (faults->spurious_spt_inval(name_)) {
      // Injected spurious invalidation: behaves exactly like losing a race
      // with a concurrent zap — nothing installed, the access refaults.
      counters_->add(Counter::kSptFillRaced);
      obs::fault_injected(*sim_, *counters_, fault::FaultKind::kSpuriousSptInval, gva);
      if (flight::FlightRecorder* flight = sim_->flight()) {
        flight->record(flight::EventKind::kSptFill, gva, pid, 2);
      }
      co_return true;
    }
  }
  PageTable& table = spt(pid, kernel_ring);
  const std::uint64_t gfn = gpt_leaf.frame_number();
  const LeafKey key{pid, kernel_ring, gva};

  // Phase 1 (lock-free, one of PVM's optimizations): walk the shadow table
  // to find out whether this fill is structural (needs new shadow pages) or
  // a plain leaf install.
  const WalkResult probe = table.walk(gva, AccessType::kRead, false);
  const bool structural = probe.missing_level > 1;
  co_await sim_->delay(static_cast<std::uint64_t>(probe.levels_walked) * costs_->walk_load);

  // Phase 2: translate GPA_L2 -> GPA_L1 and record the reverse mapping under
  // the gfn's rmap lock. The lock stays held through the install (lock order
  // rmap -> meta/pt), so a zap of the same gfn cannot interleave between the
  // rmap update and the leaf store.
  Resource& rmap_lock = locks_.rmap_lock(gfn);
  ScopedResource rmap_guard = co_await rmap_lock.scoped();
  bool allocated = false;
  ReclaimStats reclaim;
  const std::optional<std::uint64_t> backing =
      translate_or_allocate_gpa_checked(gfn, &allocated, &reclaim);
  if (!backing.has_value()) {
    // True exhaustion: the allocator is empty and reclaim found no victim.
    // The caller escalates (guest OOM kill); installing nothing keeps the
    // shadow state coherent.
    counters_->add(Counter::kBackingFail);
    co_return false;
  }
  const std::uint64_t l1_frame = *backing;
  if (reclaim.frames > 0) {
    // The sweep itself ran synchronously (atomic w.r.t. other tasks); charge
    // its cost here, attributed to a reclaim phase for obs.
    if (flight::FlightRecorder* flight = sim_->flight()) {
      flight->record(flight::EventKind::kReclaim, reclaim.frames, reclaim.leaves_zapped);
    }
    obs::SpanScope reclaim_span(sim_->spans(), obs::Phase::kReclaim, gva);
    co_await sim_->delay(costs_->spt_fill +
                         reclaim.leaves_zapped * costs_->spt_bulk_zap_per_page +
                         costs_->tlb_shootdown);
  }
  if (allocated) {
    co_await sim_->delay(costs_->gpa_map_fill);
  }
  co_await sim_->delay(costs_->spt_sync_check);
  bool fresh = false;
  {
    // Revalidate against the live guest PT (the mmu_notifier-sequence
    // analogue): the caller's GPT read may predate a protect/clear whose zap
    // has already completed, and installing from it would resurrect a dead
    // or widened-away translation. Any zap ordered *after* this point is
    // either serialized behind our rmap lock or caught by the backpointer
    // recheck below, so the window is closed.
    if (const PageTable* guest_pt = shadow_for(pid).guest_pt; guest_pt != nullptr) {
      const Pte* current = guest_pt->find_pte(gva);
      if (current == nullptr || !current->present() || current->frame_number() != gfn ||
          (gpt_leaf.writable() && !current->writable())) {
        counters_->add(Counter::kSptFillRaced);
        if (flight::FlightRecorder* flight = sim_->flight()) {
          flight->record(flight::EventKind::kSptFill, gva, pid, 2);
        }
        co_return true;
      }
    }
    const std::uint64_t* bp = leaf_gfn_.find(key);
    if (bp != nullptr && *bp != gfn) {
      // The leaf already translates a different gfn; this fill read a guest
      // PTE that has since been overwritten. Abort — the refault retries
      // against the current guest state.
      counters_->add(Counter::kSptFillRaced);
      if (flight::FlightRecorder* flight = sim_->flight()) {
        flight->record(flight::EventKind::kSptFill, gva, pid, 2);
      }
      co_return true;
    }
    if (bp == nullptr) {
      fresh = true;
      leaf_gfn_.try_emplace(key, gfn);
      note_leaves(+1);
      rmap_.try_emplace(gfn).first->second.push_back(RmapEntry{pid, kernel_ring, gva},
                                                     rmap_slab_);
    }
  }

  // Phase 3: install the SPT leaf. Structural changes take the meta lock;
  // plain leaf stores only the per-shadow-page pt_lock.
  // (Deliberately an if/else, not a conditional expression: GCC 12
  // miscompiles `cond ? co_await a : co_await b` into an extra release.)
  {
    // In coarse mode every accessor is the one mmu_lock, which phase 2
    // already holds — the whole fault then runs under it, as in KVM.
    Resource& install_lock =
        structural ? locks_.meta_lock() : locks_.pt_lock(probe.node_frames[kPageTableLevels - 1]);
    ScopedResource guard;
    if (&install_lock != &rmap_lock) {
      guard = co_await install_lock.scoped();
    }
    // Revalidate: a bulk zap or teardown (which takes only the meta lock)
    // may have swept this translation away while we slept on the lock above
    // — the analogue of KVM's mmu_notifier sequence retry. Installing now
    // would resurrect a dead leaf, so abort and let the refault retry.
    const std::uint64_t* recheck = leaf_gfn_.find(key);
    if (recheck == nullptr || *recheck != gfn) {
      if (fresh) {
        if (auto rit = rmap_.find(gfn); rit != rmap_.end()) {
          rit->second.erase(RmapEntry{pid, kernel_ring, gva}, rmap_slab_);
        }
      }
      counters_->add(Counter::kSptFillRaced);
      if (flight::FlightRecorder* flight = sim_->flight()) {
        flight->record(flight::EventKind::kSptFill, gva, pid, 2);
      }
      co_return true;
    }
    PteFlags flags = gpt_leaf.flags();
    flags.present = true;
    // The guest user must never reach kernel-half translations; the shadow
    // tables inherit the guest's user bit as-is.
    table.map(gva, l1_frame, flags);
    counters_->add(Counter::kSptEntryFilled);
    if (is_prefault) {
      counters_->add(Counter::kPrefaultFill);
    }
    co_await sim_->delay(costs_->spt_fill);
  }
  if (flight::FlightRecorder* flight = sim_->flight()) {
    flight->record(flight::EventKind::kSptFill, gva, pid, is_prefault ? 1 : 0);
  }
  maybe_check_after_mutation();
  co_return true;
}

Task<void> PvmMemoryEngine::emulate_gpt_store(std::uint64_t pid, std::uint64_t gva,
                                              GptStoreKind kind, Tlb& tlb, std::uint16_t vpid,
                                              std::uint64_t emulation_work_ns) {
  obs::SpanScope span(sim_->spans(), obs::Phase::kGptEmulate, gva);
  MutationScope mutation(this);
  counters_->add(Counter::kGptWriteProtectTrap);
  if (flight::FlightRecorder* flight = sim_->flight()) {
    flight->record(flight::EventKind::kGptEmulate, gva, pid,
                   static_cast<std::uint8_t>(kind));
  }
  // Decode + emulate the store under the structural lock, as KVM's
  // kvm_mmu_pte_write does under mmu_lock.
  {
    ScopedResource guard = co_await locks_.meta_lock().scoped();
    co_await sim_->delay(emulation_work_ns + costs_->spt_sync_check);
  }
  switch (kind) {
    case GptStoreKind::kTableAlloc:
    case GptStoreKind::kMakeWritable:
      // Widened guest mapping: any existing shadow leaf is merely stricter
      // than the guest's, which is safe; the SPT widens lazily on the next
      // write fault (or via prefault).
      break;
    case GptStoreKind::kInstall:
      // A store over an already-shadowed slot (COW break installing a new
      // frame) must drop the stale leaf, as kvm_mmu_pte_write does. For the
      // common demand-paging case nothing is shadowed yet and the zap falls
      // through at zero cost.
    case GptStoreKind::kClear:
    case GptStoreKind::kWriteProtect:
      // Narrowing change: the shadow tables must not outlive the guest
      // mapping. Zap and flush.
      co_await zap_gva(pid, gva, tlb, vpid);
      break;
  }
  maybe_check_after_mutation();
}

Task<void> PvmMemoryEngine::zap_one_ring(std::uint64_t pid, std::uint64_t gva, bool kernel_ring,
                                         Tlb& tlb, std::uint16_t vpid) {
  obs::SpanScope span(sim_->spans(), obs::Phase::kZap, gva);
  PageTable& table = spt(pid, kernel_ring);
  const LeafKey key{pid, kernel_ring, gva};
  for (;;) {
    const std::uint64_t* bp = leaf_gfn_.find(key);
    if (bp == nullptr) {
      // Nothing shadowed (backpointer and leaf are created/destroyed
      // together under the rmap lock), so the zap is free.
      co_return;
    }
    const std::uint64_t gfn = *bp;
    Resource& rmap_lock = locks_.rmap_lock(gfn);
    ScopedResource rmap_guard = co_await rmap_lock.scoped();
    // Revalidate after the wait: another zap (or a bulk teardown) may have
    // removed or replaced the translation while we slept.
    const std::uint64_t* recheck = leaf_gfn_.find(key);
    if (recheck == nullptr || *recheck != gfn) {
      continue;  // re-read the backpointer under current state
    }
    const WalkResult probe = table.walk(gva, AccessType::kRead, false);
    Resource& pt_lock = locks_.pt_lock(probe.node_frames[kPageTableLevels - 1]);
    ScopedResource pt_guard;
    if (&pt_lock != &rmap_lock) {  // coarse mode: one mmu_lock, already held
      pt_guard = co_await pt_lock.scoped();
    }
    // A bulk zap takes only the meta lock, so it can still sweep past while
    // we wait for the pt lock — check once more before mutating.
    const std::uint64_t* post = leaf_gfn_.find(key);
    if (post == nullptr || *post != gfn) {
      co_return;
    }
    table.unmap(gva);
    if (auto rit = rmap_.find(gfn); rit != rmap_.end()) {
      rit->second.erase(RmapEntry{pid, kernel_ring, gva}, rmap_slab_);
    }
    leaf_gfn_.erase(key);
    note_leaves(-1);
    if (flight::FlightRecorder* flight = sim_->flight()) {
      flight->record(flight::EventKind::kZap, gva, pid);
    }
    co_await sim_->delay(costs_->spt_fill);
    const std::size_t vcpus = vcpu_count_ ? vcpu_count_() : 1;
    obs::SpanScope shootdown(sim_->spans(), obs::Phase::kTlbShootdown);
    if (options_.pcid_mapping) {
      const PcidMapper::Mapping mapping = pcid_mapper_.map(pid, kernel_ring);
      tlb.flush_page(vpid, mapping.hw_pcid, page_number(gva));
      // Targeted INVLPG shootdown: one IPI burst, constant-ish cost.
      co_await sim_->delay(costs_->tlb_shootdown / 4);
    } else {
      tlb.flush_page(vpid, 0, page_number(gva));
      // Traditional shadow paging flushes the shared VPID tag on every vCPU
      // running this guest: the shootdown scales with concurrency.
      co_await sim_->delay(costs_->tlb_shootdown +
                           (vcpus > 1 ? (vcpus - 1) * (costs_->tlb_shootdown / 2) : 0));
    }
    co_return;
  }
}

Task<void> PvmMemoryEngine::zap_gva(std::uint64_t pid, std::uint64_t gva, Tlb& tlb,
                                    std::uint16_t vpid) {
  MutationScope mutation(this);
  co_await zap_one_ring(pid, gva, true, tlb, vpid);
  if (options_.dual_spt) {
    co_await zap_one_ring(pid, gva, false, tlb, vpid);
  }
  maybe_check_after_mutation();
}

Task<void> PvmMemoryEngine::bulk_zap(std::uint64_t pid, Tlb& tlb, std::uint16_t vpid) {
  obs::SpanScope span(sim_->spans(), obs::Phase::kZap);
  MutationScope mutation(this);
  ProcessShadow& shadow = shadow_for(pid);
  ScopedResource guard = co_await locks_.meta_lock().scoped();
  std::uint64_t leaves = shadow.kernel_spt->present_leaf_count();
  shadow.kernel_spt->clear();
  if (options_.dual_spt) {
    leaves += shadow.user_spt->present_leaf_count();
    shadow.user_spt->clear();
  }
  erase_process_rmap_state(pid);
  if (flight::FlightRecorder* flight = sim_->flight()) {
    flight->record(flight::EventKind::kBulkZap, leaves, pid);
  }
  co_await sim_->delay(costs_->spt_fill + leaves * costs_->spt_bulk_zap_per_page);
  if (options_.pcid_mapping) {
    tlb.flush_pcid(vpid, pcid_mapper_.map(pid, true).hw_pcid);
    if (options_.dual_spt) {
      tlb.flush_pcid(vpid, pcid_mapper_.map(pid, false).hw_pcid);
    }
  } else {
    tlb.flush_vpid(vpid);
  }
  maybe_check_after_mutation();
}

Task<std::uint16_t> PvmMemoryEngine::activate(std::uint64_t pid, bool kernel_ring, Tlb& tlb,
                                              std::uint16_t vpid) {
  co_await sim_->delay(costs_->cr3_write);
  if (options_.pcid_mapping) {
    const PcidMapper::Mapping mapping = pcid_mapper_.map(pid, kernel_ring);
    if (mapping.stolen) {
      // Recycled slot: its previous owner's entries must not be visible.
      tlb.flush_pcid(vpid, mapping.hw_pcid);
      counters_->add(Counter::kTlbFlushPcid);
    } else {
      counters_->add(Counter::kTlbFlushAvoided);
    }
    co_return mapping.hw_pcid;
  }
  // Traditional shadow paging: all of the guest shares the VPID tag, so the
  // switch flushes everything the guest had in the TLB.
  tlb.flush_vpid(vpid);
  counters_->add(Counter::kTlbFlushAll);
  co_return 0;
}

// ---- Coherence oracle ----

void PvmMemoryEngine::maybe_check_after_mutation() const {
  // Only fire when the completing mutator is the sole one in flight: a
  // half-applied concurrent mutation is pending work, not a violation.
  if (!oracle_enabled_ || inflight_mutations_ > 1) {
    return;
  }
  verify_coherence(false);
}

void PvmMemoryEngine::verify_coherence(bool strict) const {
  const std::vector<std::string> violations = check_coherence(strict);
  if (violations.empty()) {
    return;
  }
  std::string what = name_ + ": SPT coherence violated (" +
                     std::to_string(violations.size()) + " finding(s)):";
  for (const std::string& v : violations) {
    what += "\n  - " + v;
  }
  throw SptCoherenceError(what);
}

std::vector<std::string> PvmMemoryEngine::check_coherence(bool strict) const {
  std::vector<std::string> violations;
  auto describe = [](std::uint64_t pid, bool kernel_ring, std::uint64_t gva) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%llx", static_cast<unsigned long long>(gva));
    return "pid=" + std::to_string(pid) + (kernel_ring ? " ring0" : " ring3") + " gva=" + hex;
  };

  std::vector<std::uint64_t> pids;
  pids.reserve(shadows_.size());
  for (const auto& [pid, shadow] : shadows_) {
    pids.push_back(pid);
  }
  std::sort(pids.begin(), pids.end());

  // 1. Every installed shadow leaf has a backpointer, agrees with
  //    gpa_map(gfn), and (dual-SPT) the user table holds no kernel-half gva.
  for (const std::uint64_t pid : pids) {
    const auto& shadow = shadows_.at(pid);
    const PageTable* tables[2] = {shadow.kernel_spt.get(), shadow.user_spt.get()};
    const bool rings[2] = {true, false};
    for (int i = 0; i < 2; ++i) {
      if (tables[i] == nullptr) {
        continue;
      }
      const bool kernel_ring = rings[i];
      tables[i]->for_each_leaf([&](std::uint64_t gva, const Pte& pte) {
        const std::uint64_t* bp = leaf_gfn_.find(LeafKey{pid, kernel_ring, gva});
        if (bp == nullptr) {
          violations.push_back("shadow leaf without gfn backpointer: " +
                               describe(pid, kernel_ring, gva));
        } else {
          const Pte* mapping = gpa_map_.find_pte(*bp << kPageShift);
          if (mapping == nullptr || !mapping->present()) {
            violations.push_back("shadow leaf gfn missing from gpa_map: " +
                                 describe(pid, kernel_ring, gva) + " gfn=" +
                                 std::to_string(*bp));
          } else if (mapping->frame_number() != pte.frame_number()) {
            violations.push_back("shadow leaf frame disagrees with gpa_map∘gfn: " +
                                 describe(pid, kernel_ring, gva) + " leaf->" +
                                 std::to_string(pte.frame_number()) + " gpa_map->" +
                                 std::to_string(mapping->frame_number()));
          }
        }
        if (!kernel_ring && gva >= kGuestKernelHalfBase) {
          violations.push_back("KPTI violated: kernel-half translation in user SPT: " +
                               describe(pid, kernel_ring, gva));
        }
      });
    }
  }

  // 2. Every backpointer has a present leaf and exactly one rmap entry.
  for (const LeafKey& key : sorted_leaf_keys()) {
    const auto [pid, kernel_ring, gva] = key;
    const std::uint64_t gfn = *leaf_gfn_.find(key);
    const auto shadow_it = shadows_.find(pid);
    if (shadow_it == shadows_.end()) {
      violations.push_back("backpointer for destroyed process: " +
                           describe(pid, kernel_ring, gva));
      continue;
    }
    const Pte* leaf = spt(pid, kernel_ring).find_pte(gva);
    if (leaf == nullptr || !leaf->present()) {
      violations.push_back("backpointer without shadow leaf: " +
                           describe(pid, kernel_ring, gva));
    }
    std::size_t matches = 0;
    if (const auto rit = rmap_.find(gfn); rit != rmap_.end()) {
      matches = rit->second.count(RmapEntry{pid, kernel_ring, gva});
    }
    if (matches != 1) {
      violations.push_back("rmap entry count for leaf is " + std::to_string(matches) +
                           " (want 1): " + describe(pid, kernel_ring, gva) + " gfn=" +
                           std::to_string(gfn));
    }
  }

  // 3. Every rmap entry corresponds to a live backpointer for the same gfn
  //    (no stale entries left behind by zaps or teardowns).
  std::vector<std::uint64_t> gfns;
  gfns.reserve(rmap_.size());
  for (const auto& [gfn, entries] : rmap_) {
    gfns.push_back(gfn);
  }
  std::sort(gfns.begin(), gfns.end());
  for (const std::uint64_t gfn : gfns) {
    for (const RmapEntry& entry : rmap_.at(gfn)) {
      const std::uint64_t* bp = leaf_gfn_.find(LeafKey{entry.pid, entry.kernel_ring, entry.gva});
      if (bp == nullptr || *bp != gfn) {
        violations.push_back("stale rmap entry: " +
                             describe(entry.pid, entry.kernel_ring, entry.gva) + " gfn=" +
                             std::to_string(gfn));
      }
    }
  }

  // 4. Strict (quiescent points only): every shadow leaf agrees with
  //    guest-PT ∘ gpa_map — the gfn it caches is what the guest currently
  //    maps, and it is never more permissive than the guest.
  if (strict) {
    for (const std::uint64_t pid : pids) {
      const auto& shadow = shadows_.at(pid);
      if (shadow.guest_pt == nullptr) {
        continue;  // no reference table registered; structural checks only
      }
      const PageTable* tables[2] = {shadow.kernel_spt.get(), shadow.user_spt.get()};
      const bool rings[2] = {true, false};
      for (int i = 0; i < 2; ++i) {
        if (tables[i] == nullptr) {
          continue;
        }
        const bool kernel_ring = rings[i];
        tables[i]->for_each_leaf([&](std::uint64_t gva, const Pte& pte) {
          const Pte* guest = shadow.guest_pt->find_pte(gva);
          if (guest == nullptr || !guest->present()) {
            violations.push_back("shadow leaf outlives guest mapping: " +
                                 describe(pid, kernel_ring, gva));
            return;
          }
          const std::uint64_t* bp = leaf_gfn_.find(LeafKey{pid, kernel_ring, gva});
          if (bp != nullptr && *bp != guest->frame_number()) {
            violations.push_back("shadow leaf caches gfn " + std::to_string(*bp) +
                                 " but guest maps gfn " +
                                 std::to_string(guest->frame_number()) + ": " +
                                 describe(pid, kernel_ring, gva));
          }
          if (pte.writable() && !guest->writable()) {
            violations.push_back("shadow leaf writable but guest mapping read-only: " +
                                 describe(pid, kernel_ring, gva));
          }
        });
      }
    }
  }
  return violations;
}

// ---- Test hooks ----

bool PvmMemoryEngine::debug_corrupt_spt_leaf(std::uint64_t pid, bool kernel_ring,
                                             std::uint64_t gva) {
  PageTable& table = spt(pid, kernel_ring);
  return table.update_pte(gva, [](Pte& pte) {
    pte = Pte::make(pte.frame_number() + 1, pte.flags());
  });
}

bool PvmMemoryEngine::debug_plant_violation() {
  // Prefer corrupting a live tracked leaf (first in (pid, ring, gva) order,
  // so the choice is interleaving-independent). At a fully torn-down
  // quiescent point there may be none left; fall back to planting a
  // dangling backpointer, which the structural oracle reports as
  // "backpointer for destroyed process".
  for (const LeafKey& key : sorted_leaf_keys()) {
    const auto& [pid, kernel_ring, gva] = key;
    if (debug_corrupt_spt_leaf(pid, kernel_ring, gva)) {
      return true;
    }
  }
  leaf_gfn_.try_emplace(LeafKey{std::numeric_limits<std::uint64_t>::max(), false, 0}, 0);
  return true;
}

bool PvmMemoryEngine::debug_drop_rmap_entry(std::uint64_t pid, bool kernel_ring,
                                            std::uint64_t gva) {
  const std::uint64_t* bp = leaf_gfn_.find(LeafKey{pid, kernel_ring, gva});
  if (bp == nullptr) {
    return false;
  }
  const auto rit = rmap_.find(*bp);
  if (rit == rmap_.end()) {
    return false;
  }
  return rit->second.erase(RmapEntry{pid, kernel_ring, gva}, rmap_slab_) > 0;
}

bool PvmMemoryEngine::debug_duplicate_rmap_entry(std::uint64_t pid, bool kernel_ring,
                                                 std::uint64_t gva) {
  const std::uint64_t* bp = leaf_gfn_.find(LeafKey{pid, kernel_ring, gva});
  if (bp == nullptr) {
    return false;
  }
  rmap_.try_emplace(*bp)
      .first->second.push_back(RmapEntry{pid, kernel_ring, gva}, rmap_slab_);
  return true;
}

bool PvmMemoryEngine::debug_install_kernel_leaf_in_user_spt(std::uint64_t pid,
                                                            std::uint64_t gva) {
  if (!options_.dual_spt || gva < kGuestKernelHalfBase) {
    return false;
  }
  ProcessShadow& shadow = shadow_for(pid);
  shadow.user_spt->map(gva, /*frame_number=*/1, PteFlags::rw_user());
  return true;
}

void PvmMemoryEngine::checkpoint_to_wal(wal::Log& log) const {
  log.append(wal::RecordType::kSnapshotBegin, name_);
  // gpa_map in ascending GPA order (for_each_leaf walks the radix tree in
  // address order).
  gpa_map_.for_each_leaf([&log](std::uint64_t va, const Pte& pte) {
    std::string payload;
    wal::put_u64(payload, va);
    wal::put_u64(payload, pte.frame_number());
    wal::put_u64(payload, pte.raw());
    log.append(wal::RecordType::kGpaMapEntry, payload);
  });
  // Shadow leaves in (pid, ring, gva) backpointer order — the same
  // deterministic order the oracle uses.
  for (const LeafKey& key : sorted_leaf_keys()) {
    const auto& [pid, kernel_ring, gva] = key;
    const std::uint64_t gfn = *leaf_gfn_.find(key);
    const Pte* leaf = spt(pid, kernel_ring).find_pte(gva);
    if (leaf == nullptr || !leaf->present()) {
      continue;  // mid-zap backpointer; the refault after restore refills it
    }
    std::string payload;
    wal::put_u64(payload, pid);
    wal::put_u64(payload, kernel_ring ? 1 : 0);
    wal::put_u64(payload, gva);
    wal::put_u64(payload, leaf->frame_number());
    wal::put_u64(payload, leaf->raw());
    wal::put_u64(payload, gfn);
    log.append(wal::RecordType::kShadowLeaf, payload);
  }
  log.append_checkpoint(name_);
}

bool PvmMemoryEngine::restore_from_records(const std::vector<wal::Record>& records,
                                           std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  for (const wal::Record& record : records) {
    std::size_t cursor = 0;
    switch (record.type) {
      case wal::RecordType::kGpaMapEntry: {
        std::uint64_t va = 0, frame = 0, raw = 0;
        if (!wal::get_u64(record.payload, &cursor, &va) ||
            !wal::get_u64(record.payload, &cursor, &frame) ||
            !wal::get_u64(record.payload, &cursor, &raw)) {
          return fail("short gpa-map record at seq " + std::to_string(record.seq));
        }
        gpa_map_.map(va, frame, Pte(raw).flags());
        break;
      }
      case wal::RecordType::kShadowLeaf: {
        std::uint64_t pid = 0, ring = 0, gva = 0, frame = 0, raw = 0, gfn = 0;
        if (!wal::get_u64(record.payload, &cursor, &pid) ||
            !wal::get_u64(record.payload, &cursor, &ring) ||
            !wal::get_u64(record.payload, &cursor, &gva) ||
            !wal::get_u64(record.payload, &cursor, &frame) ||
            !wal::get_u64(record.payload, &cursor, &raw) ||
            !wal::get_u64(record.payload, &cursor, &gfn)) {
          return fail("short shadow-leaf record at seq " + std::to_string(record.seq));
        }
        if (!has_process(pid)) {
          // The guest PT reference does not survive a crash; restored
          // processes verify under the structural (non-strict) oracle.
          create_process(pid);
        }
        const bool kernel_ring = ring != 0;
        spt(pid, kernel_ring).map(gva, frame, Pte(raw).flags());
        leaf_gfn_.insert_or_assign(LeafKey{pid, kernel_ring, gva}, gfn);
        rmap_.try_emplace(gfn).first->second.push_back(RmapEntry{pid, kernel_ring, gva},
                                                       rmap_slab_);
        note_leaves(+1);
        break;
      }
      default:
        // Snapshot framing, migration dirty-log records, and checkpoint
        // markers interleave freely in the same stream; ignore them here.
        break;
    }
  }
  return true;
}

}  // namespace pvm
