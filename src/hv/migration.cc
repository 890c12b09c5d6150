#include "src/hv/migration.h"

#include <cmath>

#include "src/fault/fault.h"
#include "src/obs/flight.h"
#include "src/obs/span.h"
#include "src/obs/step.h"
#include "src/wal/wal.h"

namespace pvm {

namespace {

// Stop-and-copy also ships vCPU/device state: a fixed pause on top of the
// page copy. Post-copy pays exactly this as its whole downtime.
constexpr SimTime kStateShipNs = 200 * kNsPerUs;

void record_flight(Simulation& sim, flight::EventKind kind, std::uint64_t a, std::uint64_t b,
                   std::uint8_t code = 0) {
  if (flight::FlightRecorder* flight = sim.flight()) {
    flight->record(kind, a, b, code);
  }
}

}  // namespace

SimTime MigrationEngine::copy_time(std::uint64_t pages, const MigrationParams& params) {
  if (pages == 0) {
    return 0;
  }
  const double ns = static_cast<double>(pages) * kPageSize /
                    params.bandwidth_bytes_per_sec * 1e9;
  const SimTime ceiled = static_cast<SimTime>(std::ceil(ns));
  return ceiled > 0 ? ceiled : 1;
}

Task<MigrationResult> MigrationEngine::migrate(HostHypervisor::Vm& vm,
                                               const MigrationParams& params) {
  MigrationResult result;
  if (vm.nested_vmx_active()) {
    // KVM refuses to save/restore live nested state: the merged VMCS02 and
    // shadow EPT02 at L0 have no migratable representation (§2.3).
    result.failure_reason =
        "VM '" + vm.name() + "' has active nested-VMX state (L2 guests running); "
        "hardware-assisted nested virtualization pins it to this host";
    co_return result;
  }

  // One op.migration span covers the whole call — pre-copy rounds, retries,
  // and any post-copy continuation — so the profiler sees each migrate() as
  // one operation instance (and dirty-tracking spans on vCPU tracks that
  // overlap it fold into this op's critical path).
  obs::SpanScope op_span(l0_->sim().spans(), obs::Phase::kOpMigration);
  const SimTime start = l0_->sim().now();
  DirtyTracker& tracker = vm.dirty_tracker();
  tracker.arm(params.protocol);
  tracker.set_wal(params.wal);
  // Harvest the tracker's protocol counters into the result; the tracker is
  // disarmed (and its totals reset on the next arm) when migration ends.
  const auto finish = [&](MigrationResult& r) {
    r.wp_faults = tracker.wp_faults();
    r.pml_appends = tracker.pml_appends();
    r.pml_flushes = tracker.pml_flushes();
    tracker.set_wal(nullptr);
    tracker.disarm();
    r.total_time = l0_->sim().now() - start;
  };

  // The resident set is whatever EPT01 currently backs; an idle VM still
  // ships its device/vCPU state as one page-equivalent.
  const std::uint64_t resident = std::max<std::uint64_t>(vm.ept().present_leaf_count(), 1);

  if (params.mode == MigrationMode::kPostCopy) {
    // Straight post-copy: the hot set is unknown up front — budget the
    // stop-copy threshold's worth of demand fetches.
    result = co_await post_copy(vm, params, std::move(result), resident,
                                std::min<std::uint64_t>(resident, params.stop_copy_pages),
                                start);
    finish(result);
    co_return result;
  }

  for (int attempt = 0;; ++attempt) {
    // Pre-copy: round 0 streams the whole resident set; every later round
    // streams exactly what the guest dirtied while the previous one copied
    // (the tracker sees those stores through the backends' fault paths).
    std::uint64_t to_copy = resident;
    int divergent = 0;
    int attempt_rounds = 0;
    bool converged = false;
    while (true) {
      SimTime round_time = copy_time(to_copy, params);
      bool stalled = false;
      if (fault::FaultInjector* faults = l0_->sim().faults(); faults != nullptr) {
        const SimTime stall = faults->migration_stall(vm.name());
        if (stall > 0) {
          obs::fault_injected(l0_->sim(), l0_->counters(), fault::FaultKind::kMigrationStall,
                              stall);
          round_time += stall;
          stalled = true;
        }
      }
      {
        obs::SpanScope copy_span(l0_->sim().spans(), obs::Phase::kMigrationCopy, to_copy);
        co_await l0_->sim().delay(round_time);
      }
      result.pages_copied += to_copy;

      const std::vector<std::uint64_t> dirty = tracker.collect_round();
      result.pages_dirtied += dirty.size();
      record_flight(l0_->sim(), flight::EventKind::kMigrationRound, to_copy, dirty.size(),
                    static_cast<std::uint8_t>(attempt_rounds & 0xff));
      ++result.rounds;
      ++attempt_rounds;

      const std::uint64_t prev = to_copy;
      to_copy = dirty.size();
      if (to_copy <= params.stop_copy_pages) {
        converged = true;
        break;
      }
      // A stalled round copied nothing extra in practice; it still counts
      // against convergence (the guest kept dirtying all the while).
      divergent = (to_copy >= prev || stalled) ? divergent + 1 : 0;
      if (divergent >= params.divergence_rounds || attempt_rounds >= params.max_rounds) {
        break;
      }
    }

    const SimTime projected = copy_time(to_copy, params) + kStateShipNs;
    const bool cap_blown =
        params.max_downtime_ns > 0 && projected > params.max_downtime_ns;

    if (!converged || cap_blown) {
      if (params.mode == MigrationMode::kAuto) {
        // Graceful degradation: everything already streamed stays valid;
        // only `to_copy` pages (the live dirty set — the hot working set by
        // construction) remain to fetch on demand.
        result.fell_back_postcopy = true;
        l0_->counters().add(Counter::kMigrationFallback);
        record_flight(l0_->sim(), flight::EventKind::kMigrationFallback, to_copy, 0);
        result = co_await post_copy(vm, params, std::move(result), to_copy, to_copy, start);
        finish(result);
        co_return result;
      }
      if (!converged) {
        result.failure_reason =
            "pre-copy diverged: dirty rate exceeded copy rate for " +
            std::to_string(divergent) + " round(s) with " + std::to_string(to_copy) +
            " page(s) outstanding";
        finish(result);
        co_return result;
      }
      // Converged but capped: retry the pre-copy pass after an exponential
      // backoff (letting the dirtying burst — or injected stalls — pass).
      if (attempt >= params.max_retries) {
        result.capped = true;
        result.failure_reason =
            "projected downtime " + std::to_string(projected) + "ns exceeds cap " +
            std::to_string(params.max_downtime_ns) + "ns after " +
            std::to_string(result.retries) + " retries";
        finish(result);
        co_return result;
      }
      ++result.retries;
      l0_->counters().add(Counter::kMigrationRetry);
      co_await l0_->sim().delay(params.retry_backoff_ns << attempt);
      continue;
    }

    // Stop-and-copy: pause the VM, ship the rest + vCPU/device state.
    const SimTime pause_start = l0_->sim().now();
    {
      obs::SpanScope copy_span(l0_->sim().spans(), obs::Phase::kMigrationCopy, to_copy);
      co_await l0_->sim().delay(projected);
    }
    result.pages_copied += to_copy;
    result.downtime = l0_->sim().now() - pause_start;
    record_flight(l0_->sim(), flight::EventKind::kMigrationStopCopy, to_copy,
                  result.downtime);
    if (params.wal != nullptr) {
      params.wal->append_checkpoint();
    }
    result.succeeded = true;
    ++result.rounds;
    finish(result);
    co_return result;
  }
}

Task<MigrationResult> MigrationEngine::post_copy(HostHypervisor::Vm& vm,
                                                 const MigrationParams& params,
                                                 MigrationResult result,
                                                 std::uint64_t remaining,
                                                 std::uint64_t hot_pages, SimTime start) {
  (void)vm;
  (void)start;
  // Pause only long enough to ship vCPU/device state; the VM resumes on the
  // destination immediately.
  const SimTime pause_start = l0_->sim().now();
  {
    obs::SpanScope copy_span(l0_->sim().spans(), obs::Phase::kMigrationCopy, 1);
    co_await l0_->sim().delay(kStateShipNs);
  }
  result.downtime = l0_->sim().now() - pause_start;
  record_flight(l0_->sim(), flight::EventKind::kMigrationStopCopy, 0, result.downtime);

  // The hot working set faults on the destination before the background
  // stream reaches it: each fetch pays a wire round trip. The rest arrives
  // with the background transfer at full bandwidth.
  const std::uint64_t fetched = std::min(hot_pages, remaining);
  result.remote_faults = fetched;
  if (fetched > 0) {
    l0_->counters().add(Counter::kMigrationRemoteFault, fetched);
    co_await l0_->sim().delay(static_cast<SimTime>(fetched) * params.remote_fault_latency_ns);
  }
  {
    obs::SpanScope copy_span(l0_->sim().spans(), obs::Phase::kMigrationCopy,
                             remaining - fetched);
    co_await l0_->sim().delay(copy_time(remaining - fetched, params));
  }
  result.pages_copied += remaining;
  ++result.rounds;
  if (params.wal != nullptr) {
    params.wal->append_checkpoint();
  }
  result.succeeded = true;
  co_return result;
}

}  // namespace pvm
