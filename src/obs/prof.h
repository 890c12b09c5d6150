// pvm::prof — deterministic critical-path profiler on the virtual clock.
//
// For every completed operation a SpanRecorder saw (page fault, syscall, GPT
// store, boot, migration — any root span tree), fold_profile() reconstructs
// the span tree from the recorder's close-ordered record stream and
// decomposes the operation's end-to-end latency into *exclusive* time per
// phase path (the chain of phases/lock-waits that actually bounded the
// latency; within one root task execution is strictly sequential, so every
// nanosecond of an operation belongs to exactly the innermost open span).
// Lock-wait spans are renamed "lock_wait:<resource>" using the recorder's
// lock-track mirror records, so contention blame names the lock.
//
// Cross-track attribution: a dirty-tracking span (Phase::kDirtyTrack) charged
// to a guest vCPU while a migration operation is in flight is folded into
// that migration op's profile ("op.migration;dirty_track;...") — the
// source-side cost of keeping the dirty log belongs to the migration, not to
// the vCPU that happened to pay it. Those contributions add paths but never
// latency samples, so "sum of path exclusive ns" can exceed the op's own
// latency total exactly when cross-track work was charged.
//
// Aggregation is per op kind (per sweep coordinate once prefixed):
//   - a mergeable latency histogram of the op instances (p50/p99),
//   - paths: path -> {exclusive_ns, count} over every instance,
//   - tail_paths: the same sum restricted to the tail cohort — instances
//     whose latency >= the fold-time p99 (the bucketed quantile). Tail
//     membership is decided *per source run* before any merge, so merging
//     shards is element-wise map addition and stays order-independent.
//
// Documents follow the sweep merge discipline (prefix per cell coordinate,
// merge in cell-index order): pvm-matrix --profile at --jobs 8 is
// byte-identical to --jobs 1. Schema pvm.profile.v1; render/parse round-trip
// byte-identically.

#ifndef PVM_SRC_OBS_PROF_H_
#define PVM_SRC_OBS_PROF_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/metrics/histogram.h"

namespace pvm::obs {
class SpanRecorder;
}  // namespace pvm::obs

namespace pvm::prof {

inline constexpr std::string_view kProfileSchemaVersion = "pvm.profile.v1";

// One collapsed-stack row: exclusive virtual ns attributed to a phase path,
// and how many spans contributed it.
struct PathStat {
  std::uint64_t exclusive_ns = 0;
  std::uint64_t count = 0;

  bool operator==(const PathStat&) const = default;
};

// Everything aggregated about one operation kind (one ops-map key).
struct OpProfile {
  // End-to-end latency of every instance (mergeable: fixed bucket bounds).
  MergeableHistogram latency;
  // Phase-path -> exclusive time, over all instances. Keys start with the
  // op's root phase name ("op.page_fault;spt_fill;lock_wait:mmu_lock").
  std::map<std::string, PathStat> paths;
  // The same decomposition restricted to the tail cohort (instances with
  // latency >= tail_threshold_ns at fold time).
  std::map<std::string, PathStat> tail_paths;
  // The fold-time p99 the tail cohort was cut at; merge keeps the max.
  std::uint64_t tail_threshold_ns = 0;
  // The single worst instance — replay anchor for the tail (begin_ns/track
  // locate it in a --trace export of the same run).
  std::uint64_t worst_ns = 0;
  std::uint64_t worst_begin_ns = 0;
  std::int64_t worst_track = -1;

  bool operator==(const OpProfile&) const = default;
};

// A full profile document: everything pvm.profile.v1 serializes.
struct ProfDoc {
  // Key: "<prefix><op root phase name>", e.g. "pvm (NST)/32p/op.page_fault".
  std::map<std::string, OpProfile, std::less<>> ops;
  // Raw-span buffer overflow in the source recorder(s): when nonzero the
  // fold is a lower bound, not a census.
  std::uint64_t dropped_spans = 0;

  bool empty() const { return ops.empty() && dropped_spans == 0; }

  bool operator==(const ProfDoc&) const = default;
};

// Folds a completed run's recorder state into a profile document (the
// critical-path fold described above). The recorder is read, not modified.
// `first_span` skips records already folded by an earlier call — a recorder
// that outlives several runs folds each run's increment exactly once (all
// spans close at run boundaries, so an offset never splits a tree).
ProfDoc fold_profile(const obs::SpanRecorder& recorder, std::size_t first_span = 0);

// Adds `from` into `into` (histogram merge, path-map addition, worst-of for
// exemplar/threshold fields). Always succeeds; `error` is reserved for
// future schema constraints and is left untouched today.
bool merge_profile(ProfDoc* into, const ProfDoc& from, std::string* error);

// Returns a copy of `doc` with every ops key prefixed — the per-cell
// coordinate step of the sweep merge discipline.
ProfDoc prefix_profile(const ProfDoc& doc, std::string_view prefix);

// pvm.profile.v1 serialization. Deterministic: names sort, integers only.
std::string render_profile_json(const ProfDoc& doc);
bool parse_profile_json(std::string_view text, ProfDoc* out, std::string* error);

// Collapsed-stack flamegraph output, one "<op-key>[;rest-of-path] <ns>" line
// per path, consumable by standard flamegraph tooling (weights are exclusive
// virtual ns).
std::string render_collapsed_stacks(const ProfDoc& doc);

// Human-readable blame table: per op, count/p50/p99/max plus the top-k paths
// by exclusive share over all instances and over the tail cohort. The first
// path row of each op is its dominant critical-path phase.
struct BlameOptions {
  std::size_t top_k = 10;
  // Substring filter on op keys; empty keeps everything.
  std::string filter;
};

std::string render_blame(const ProfDoc& doc, const BlameOptions& options);

}  // namespace pvm::prof

#endif  // PVM_SRC_OBS_PROF_H_
