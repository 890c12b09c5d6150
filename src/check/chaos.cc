#include "src/check/chaos.h"

#include <set>
#include <vector>

#include "src/core/memory_engine.h"
#include "src/guest/guest_kernel.h"
#include "src/guest/process.h"
#include "src/sim/random.h"

namespace pvm {

Task<void> chaos_zap_storm(SecureContainer& container, Vcpu& vcpu, GuestProcess& proc,
                           ChaosParams params) {
  PvmMemoryEngine* engine = container.shadow_engine();
  if (engine == nullptr || !engine->has_process(proc.pid())) {
    // EPT modes have no shadow engine; direct paging has one (PCID reuse)
    // but never populates shadow tables. Either way: nothing to invalidate.
    co_return;
  }
  Simulation& sim = container.sim();
  const std::uint16_t vpid = container.mem().vpid();
  Xoshiro256 rng(params.seed);
  // Each page is target-zapped at most once: unbounded re-zapping of one page
  // can outpace a backend's bounded fault-retry loop (harness-induced
  // livelock, not a protocol defect). Repeat invalidation pressure on a page
  // comes from the bulk zaps instead, whose spacing leaves room to refault.
  std::set<std::uint64_t> zapped;
  for (int round = 0; round < params.rounds; ++round) {
    co_await sim.delay(params.interval_ns);
    if (rng.next_bool(params.bulk_zap_probability)) {
      // Whole-process teardown racing whatever fills are in flight.
      co_await engine->bulk_zap(proc.pid(), vcpu.tlb, vpid);
      continue;
    }
    // Snapshot the currently guest-mapped pages, then zap a random subset.
    // The set may shift under us while we await — zapping a since-unmapped
    // page is exactly the kind of benign no-op the protocol must tolerate.
    std::vector<std::uint64_t> pages;
    proc.gpt().for_each_leaf([&pages](std::uint64_t gva, const Pte& pte) {
      (void)pte;
      pages.push_back(gva);
    });
    for (const std::uint64_t gva : pages) {
      if (rng.next_bool(params.zap_probability) && zapped.insert(gva).second) {
        co_await engine->zap_gva(proc.pid(), gva, vcpu.tlb, vpid);
      }
    }
  }
}

Task<void> chaos_retouch(SecureContainer& container, Vcpu& vcpu, GuestProcess& proc,
                         ChaosParams params) {
  Simulation& sim = container.sim();
  GuestKernel& kernel = container.kernel();
  Xoshiro256 rng(params.seed ^ 0xa0761d6478bd642full);
  // A private arena no workload ever munmaps, so touches cannot segfault no
  // matter how the schedule interleaves them with the workload's releases.
  const std::uint64_t arena = co_await kernel.sys_mmap(
      vcpu, proc, static_cast<std::uint64_t>(params.retouch_pages) << kPageShift);
  for (int round = 0; round < params.rounds; ++round) {
    co_await sim.delay(params.interval_ns / 2 + rng.next_below(params.interval_ns + 1));
    for (int p = 0; p < params.retouch_pages; ++p) {
      if (rng.next_bool(params.touch_probability)) {
        const std::uint64_t gva = arena + (static_cast<std::uint64_t>(p) << kPageShift);
        co_await kernel.touch(vcpu, proc, gva, /*write=*/rng.next_bool(0.5));
      }
    }
  }
}

Task<void> chaos_process_churn(SecureContainer& container, Vcpu& vcpu, ChaosParams params) {
  GuestProcess* init = container.init_process();
  if (init == nullptr) {
    co_return;
  }
  Simulation& sim = container.sim();
  GuestKernel& kernel = container.kernel();
  Xoshiro256 rng(params.seed ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < params.churn_iterations; ++i) {
    co_await sim.delay(params.interval_ns + params.interval_ns * rng.next_below(3));
    GuestProcess* child = co_await kernel.sys_fork(vcpu, *init);
    if (child == nullptr) {
      continue;
    }
    if (rng.next_bool(0.5)) {
      co_await kernel.sys_exec(vcpu, *child, params.churn_pages);
    } else {
      // Touch a few inherited pages: write faults break the COW shares the
      // fork just armed, racing any concurrent fills on the parent's frames.
      for (int p = 0; p < params.churn_pages; ++p) {
        const std::uint64_t gva = GuestProcess::kCodeBase + (rng.next_below(8) << kPageShift);
        co_await kernel.touch(vcpu, *child, gva, /*write=*/true);
      }
    }
    co_await sim.delay(params.interval_ns);
    co_await kernel.sys_exit(vcpu, *child);
  }
}

fault::FaultPlan faultstorm_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.name = "faultstorm";
  plan.seed = seed;
  Xoshiro256 rng(seed * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull);
  // Allocation pressure is always on: it is the spec that drives the reclaim
  // sweep and the guest OOM killer, the recovery paths the oracle must hold
  // through. The rest of the storm is drawn per seed.
  {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kFramePressure;
    spec.trigger.probability = 0.01 + rng.next_double() * 0.05;
    plan.specs.push_back(spec);
  }
  if (rng.next_bool(0.7)) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kLockHandoffDelay;
    spec.trigger.probability = 0.02 + rng.next_double() * 0.08;
    spec.delay_ns = 500 + static_cast<std::uint64_t>(rng.next_double() * 2500.0);
    plan.specs.push_back(spec);
  }
  if (rng.next_bool(0.5)) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kExitLatencySpike;
    spec.trigger.probability = 0.02 + rng.next_double() * 0.08;
    spec.delay_ns = kNsPerUs + static_cast<std::uint64_t>(rng.next_double() * 4000.0);
    plan.specs.push_back(spec);
  }
  if (rng.next_bool(0.5)) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kVmresumeFail;
    spec.trigger.probability = 0.01 + rng.next_double() * 0.04;
    spec.fail_count = rng.next_bool(0.5) ? 2 : 1;
    plan.specs.push_back(spec);
  }
  if (rng.next_bool(0.5)) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kSpuriousSptInval;
    spec.trigger.probability = 0.01 + rng.next_double() * 0.04;
    plan.specs.push_back(spec);
  }
  return plan;
}

}  // namespace pvm
