// pvm::prof unit tests: the critical-path fold over hand-built recorder
// streams, lock-wait naming, cross-track migration attribution, the tail
// cohort, merge order-independence, and render/parse round-trip identity.

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/prof.h"
#include "src/obs/span.h"

namespace pvm {
namespace {

using obs::Phase;
using obs::SpanRecorder;

// Drives a SpanRecorder with a hand-cranked virtual clock and active root —
// the same binding Simulation::set_spans performs, minus the simulator.
struct Rig {
  std::uint64_t now = 0;
  std::int64_t root = 0;
  SpanRecorder rec;

  Rig() {
    rec.bind(&now, &root);
    rec.set_enabled(true);
  }

  SpanRecorder::Token begin(Phase phase) { return rec.begin(phase); }
  void end(SpanRecorder::Token token) { rec.end(token); }
};

const prof::OpProfile& only_op(const prof::ProfDoc& doc, const std::string& key) {
  const auto it = doc.ops.find(key);
  EXPECT_NE(it, doc.ops.end()) << "missing op " << key;
  static const prof::OpProfile empty;
  return it == doc.ops.end() ? empty : it->second;
}

TEST(ProfFold, DecomposesExclusiveTimePerPath) {
  Rig rig;
  // op.page_fault [0, 100): spt_fill [10, 70) with lock_wait [20, 50) inside.
  auto op = rig.begin(Phase::kOpPageFault);
  rig.now = 10;
  auto fill = rig.begin(Phase::kSptFill);
  rig.now = 20;
  auto wait = rig.begin(Phase::kLockWait);
  rig.now = 50;
  rig.rec.end_lock_wait(wait, "mmu_lock");
  rig.now = 70;
  rig.end(fill);
  rig.now = 100;
  rig.end(op);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  ASSERT_EQ(doc.ops.size(), 1u);
  const prof::OpProfile& pf = only_op(doc, "op.page_fault");
  EXPECT_EQ(pf.latency.count(), 1u);
  EXPECT_EQ(pf.latency.sum(), 100u);
  // Exclusive decomposition: 100 total = 40 root + 30 fill + 30 lock wait.
  EXPECT_EQ(pf.paths.at("op.page_fault").exclusive_ns, 40u);
  EXPECT_EQ(pf.paths.at("op.page_fault;spt_fill").exclusive_ns, 30u);
  EXPECT_EQ(pf.paths.at("op.page_fault;spt_fill;lock_wait:mmu_lock").exclusive_ns, 30u);
  std::uint64_t total = 0;
  for (const auto& [path, stat] : pf.paths) {
    total += stat.exclusive_ns;
  }
  EXPECT_EQ(total, 100u);  // no nanosecond lost or double-counted
  EXPECT_EQ(pf.worst_ns, 100u);
  EXPECT_EQ(pf.worst_begin_ns, 0u);
  EXPECT_EQ(pf.worst_track, 0);
}

TEST(ProfFold, ZeroLengthSiblingsStaySiblings) {
  Rig rig;
  // op.gpt_store [0, 100): gpt_emulate [10, 90) runs two zaps back to back,
  // the first zero-length at t=20 and the second [20, 50). Both zaps are
  // children of gpt_emulate; the second began when the first closed, but
  // it never enclosed it.
  auto op = rig.begin(Phase::kOpGptStore);
  rig.now = 10;
  auto emulate = rig.begin(Phase::kGptEmulate);
  rig.now = 20;
  auto empty_zap = rig.begin(Phase::kZap);
  rig.end(empty_zap);
  auto zap = rig.begin(Phase::kZap);
  rig.now = 50;
  rig.end(zap);
  rig.now = 90;
  rig.end(emulate);
  rig.now = 100;
  rig.end(op);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& pf = only_op(doc, "op.gpt_store");
  EXPECT_FALSE(pf.paths.contains("op.gpt_store;gpt_emulate;zap;zap"));
  ASSERT_TRUE(pf.paths.contains("op.gpt_store;gpt_emulate;zap"));
  EXPECT_EQ(pf.paths.at("op.gpt_store;gpt_emulate;zap").count, 2u);
  EXPECT_EQ(pf.paths.at("op.gpt_store;gpt_emulate;zap").exclusive_ns, 30u);
  EXPECT_EQ(pf.paths.at("op.gpt_store;gpt_emulate").exclusive_ns, 50u);
  EXPECT_EQ(pf.paths.at("op.gpt_store").exclusive_ns, 20u);
}

TEST(ProfFold, OrphansOfUnclosedSpansFoldInTrackOrder) {
  Rig rig;
  // Tracks 2 and 1 each leave an spt_fill open; inside each, one 10 ns
  // fault closes, track 2's first. Orphaned subtrees are walked by track, so
  // the tie for worst instance goes to track 1's fault.
  rig.root = 2;
  auto open2 = rig.begin(Phase::kSptFill);
  rig.root = 1;
  auto open1 = rig.begin(Phase::kSptFill);
  rig.root = 2;
  rig.now = 10;
  auto fault2 = rig.begin(Phase::kOpPageFault);
  rig.now = 20;
  rig.end(fault2);
  rig.root = 1;
  rig.now = 30;
  auto fault1 = rig.begin(Phase::kOpPageFault);
  rig.now = 40;
  rig.end(fault1);
  EXPECT_TRUE(open2.valid() && open1.valid());

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& pf = only_op(doc, "op.page_fault");
  EXPECT_EQ(pf.latency.count(), 2u);
  EXPECT_EQ(pf.worst_ns, 10u);
  EXPECT_EQ(pf.worst_track, 1);
  EXPECT_EQ(pf.worst_begin_ns, 30u);
}

TEST(ProfFold, NamesLockWaitsViaMirrorRecords) {
  Rig rig;
  auto op = rig.begin(Phase::kOpSyscall);
  rig.now = 5;
  auto wait_a = rig.begin(Phase::kLockWait);
  rig.now = 15;
  rig.rec.end_lock_wait(wait_a, "pt_lock");
  rig.now = 20;
  auto wait_b = rig.begin(Phase::kLockWait);
  rig.now = 21;
  rig.end(wait_b);  // anonymous wait: no mirror, keeps the bare phase name
  rig.now = 30;
  rig.end(op);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& pf = only_op(doc, "op.syscall");
  EXPECT_TRUE(pf.paths.contains("op.syscall;lock_wait:pt_lock"));
  EXPECT_TRUE(pf.paths.contains("op.syscall;lock_wait"));
  EXPECT_EQ(pf.paths.at("op.syscall;lock_wait:pt_lock").exclusive_ns, 10u);
}

TEST(ProfFold, RedirectsDirtyTrackingIntoOverlappingMigration) {
  Rig rig;
  // Track 0: op.migration [0, 1000). Track 1: one dirty_track span inside the
  // migration window and one after it; only the first is redirected.
  auto mig = rig.begin(Phase::kOpMigration);

  rig.root = 1;
  rig.now = 100;
  auto op = rig.begin(Phase::kOpPageFault);
  rig.now = 150;
  auto dirty = rig.begin(Phase::kDirtyTrack);
  rig.now = 170;
  rig.end(dirty);
  rig.now = 200;
  rig.end(op);

  rig.root = 0;
  rig.now = 1000;
  rig.end(mig);

  rig.root = 1;
  rig.now = 1100;
  auto late_op = rig.begin(Phase::kOpPageFault);
  rig.now = 1150;
  auto late_dirty = rig.begin(Phase::kDirtyTrack);
  rig.now = 1180;
  rig.end(late_dirty);
  rig.now = 1200;
  rig.end(late_op);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& mig_pf = only_op(doc, "op.migration");
  const prof::OpProfile& fault_pf = only_op(doc, "op.page_fault");

  // The in-window dirty span (20 ns) moved to the migration op's profile...
  ASSERT_TRUE(mig_pf.paths.contains("op.migration;dirty_track"));
  EXPECT_EQ(mig_pf.paths.at("op.migration;dirty_track").exclusive_ns, 20u);
  // ...as paths only: the migration's latency histogram stays one instance.
  EXPECT_EQ(mig_pf.latency.count(), 1u);
  // The in-window fault no longer carries the dirty_track path; only the
  // out-of-window span's 30 ns remain under op.page_fault. Both instances'
  // latencies are untouched (100 ns each).
  ASSERT_TRUE(fault_pf.paths.contains("op.page_fault;dirty_track"));
  EXPECT_EQ(fault_pf.paths.at("op.page_fault;dirty_track").exclusive_ns, 30u);
  EXPECT_EQ(fault_pf.paths.at("op.page_fault;dirty_track").count, 1u);
  EXPECT_EQ(fault_pf.latency.count(), 2u);
  // The out-of-window dirty span stays charged to its own op.
  std::uint64_t fault_excl = 0;
  for (const auto& [path, stat] : fault_pf.paths) {
    fault_excl += stat.exclusive_ns;
  }
  // 2 faults x 100 ns, minus the 20 ns redirected to the migration.
  EXPECT_EQ(fault_excl, 180u);
}

TEST(ProfFold, TailCohortIsolatesSlowInstances) {
  Rig rig;
  // 100 fast ops (16 ns, pure root) and one slow op (1000 ns, all lock wait).
  // 16 ns lands in histogram bucket [16, 17], so the fold-time p99 threshold
  // (the bucket's upper bound, 17) strictly exceeds the fast latency — the
  // tail cohort is exactly the slow instance.
  for (int i = 0; i < 100; ++i) {
    auto op = rig.begin(Phase::kOpGptStore);
    rig.now += 16;
    rig.end(op);
  }
  auto slow = rig.begin(Phase::kOpGptStore);
  auto wait = rig.begin(Phase::kLockWait);
  rig.now += 1000;
  rig.rec.end_lock_wait(wait, "mmu_lock");
  rig.end(slow);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& pf = only_op(doc, "op.gpt_store");
  EXPECT_EQ(pf.latency.count(), 101u);
  EXPECT_GT(pf.tail_threshold_ns, 16u);
  // The tail cohort is the slow instance alone: all lock wait, no fast roots.
  ASSERT_TRUE(pf.tail_paths.contains("op.gpt_store;lock_wait:mmu_lock"));
  EXPECT_EQ(pf.tail_paths.at("op.gpt_store;lock_wait:mmu_lock").exclusive_ns, 1000u);
  const auto root_tail = pf.tail_paths.find("op.gpt_store");
  if (root_tail != pf.tail_paths.end()) {
    EXPECT_EQ(root_tail->second.exclusive_ns, 0u);
  }
  EXPECT_EQ(pf.worst_ns, 1000u);
}

TEST(ProfFold, FirstSpanOffsetFoldsOnlyTheIncrement) {
  Rig rig;
  auto op1 = rig.begin(Phase::kOpSyscall);
  rig.now = 10;
  rig.end(op1);
  const std::size_t cut = rig.rec.spans().size();

  rig.now = 20;
  auto op2 = rig.begin(Phase::kOpSyscall);
  rig.now = 50;
  rig.end(op2);

  const prof::ProfDoc inc_doc = prof::fold_profile(rig.rec, cut);
  const prof::OpProfile& inc = only_op(inc_doc, "op.syscall");
  EXPECT_EQ(inc.latency.count(), 1u);
  EXPECT_EQ(inc.latency.sum(), 30u);

  const prof::ProfDoc full_doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& full = only_op(full_doc, "op.syscall");
  EXPECT_EQ(full.latency.count(), 2u);
}

// ---- Property: the fold agrees with the generator's own trees -------------
//
// Random span forests on several tracks are replayed through a SpanRecorder;
// the reference profile is computed from the generated trees (parent, depth
// and children known by construction), never from the record stream.

// One generated span. Times are absolute virtual ns.
struct GenSpan {
  Phase phase = Phase::kCount;
  std::string lock;  // lock waits: resource name; empty = anonymous wait
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::int64_t track = 0;
  std::uint32_t depth = 0;
  int run = 0;
  std::size_t parent = SIZE_MAX;
  std::vector<std::size_t> children;
  // Set by the replay.
  SpanRecorder::Token token;
  bool closed = false;
  std::uint64_t close_seq = 0;
  bool kept = false;         // its record fit under the raw-span cap
  bool mirror_kept = false;  // and so did its lock-track mirror record
};

struct GenEvent {
  std::uint64_t time;
  std::int64_t track;
  std::size_t seq;  // order within the track
  std::size_t span;
  bool open;
};

class ForestGen {
 public:
  explicit ForestGen(std::uint64_t seed) : rng_(seed) {}

  std::vector<GenSpan> spans;

  // One run: a few trees per track from `start`. With `truncate`, most
  // tracks stop partway through their last tree, leaving spans open.
  std::vector<GenEvent> add_run(int run, const std::vector<std::int64_t>& tracks,
                                std::uint64_t start, bool truncate, std::uint64_t* run_end) {
    std::vector<GenEvent> events;
    *run_end = start;
    for (std::int64_t track : tracks) {
      std::vector<GenEvent> track_events;
      std::uint64_t t = start + below(5);
      std::size_t last_root = 0;
      const std::uint64_t roots = 2 + below(4);
      for (std::uint64_t r = 0; r < roots; ++r) {
        last_root = track_events.size();
        t = grow(&track_events, run, track, SIZE_MAX, 0, t) + below(6);
      }
      if (truncate && chance(70)) {
        // Keeps the last root's open and drops at least its close.
        track_events.resize(last_root + 1 + below(track_events.size() - last_root - 1));
      }
      for (std::size_t i = 0; i < track_events.size(); ++i) {
        track_events[i].seq = i;
        events.push_back(track_events[i]);
      }
      *run_end = std::max(*run_end, t);
    }
    std::sort(events.begin(), events.end(), [](const GenEvent& a, const GenEvent& b) {
      return std::tie(a.time, a.track, a.seq) < std::tie(b.time, b.track, b.seq);
    });
    return events;
  }

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  bool chance(std::uint64_t percent) { return below(100) < percent; }

 private:
  Phase pick_phase(std::int64_t track, std::uint32_t depth) {
    static constexpr Phase kOps[] = {Phase::kOpPageFault, Phase::kOpSyscall,
                                     Phase::kOpGptStore, Phase::kOpMigration};
    static constexpr Phase kSteps[] = {Phase::kZap,        Phase::kGptEmulate,
                                       Phase::kSptFill,    Phase::kLockWait,
                                       Phase::kLockWait,   Phase::kDirtyTrack,
                                       Phase::kDirtyTrack, Phase::kDirectSwitch};
    if (track == 0 && depth == 0 && chance(50)) {
      return Phase::kOpMigration;  // long migrations that other tracks overlap
    }
    if (chance(depth == 0 ? 60 : 15)) {
      return kOps[below(depth == 0 ? 3 : 4)];
    }
    return kSteps[below(std::size(kSteps))];
  }

  std::uint64_t grow(std::vector<GenEvent>* out, int run, std::int64_t track,
                     std::size_t parent, std::uint32_t depth, std::uint64_t t) {
    static constexpr const char* kLocks[] = {"mmu_lock", "pt_lock", "meta_lock"};
    const std::size_t id = spans.size();
    GenSpan span;
    span.phase = pick_phase(track, depth);
    if (span.phase == Phase::kLockWait && chance(60)) {
      span.lock = kLocks[below(std::size(kLocks))];
    }
    span.begin = t;
    span.track = track;
    span.depth = depth;
    span.run = run;
    span.parent = parent;
    spans.push_back(span);
    out->push_back(GenEvent{t, track, 0, id, true});
    if (!chance(20)) {  // otherwise a zero-length leaf
      const std::uint64_t kids = depth < 4 ? below(4) : 0;
      t += below(3);
      for (std::uint64_t k = 0; k < kids; ++k) {
        t += chance(40) ? 0 : below(4);  // 0: opens as its sibling closes
        spans[id].children.push_back(spans.size());
        t = grow(out, run, track, id, depth + 1, t);
      }
      t += below(5);
    }
    spans[id].end = t;
    out->push_back(GenEvent{t, track, 0, id, false});
    return t;
  }

  std::mt19937_64 rng_;
};

// Replays `events` through the rig, tracking what the recorder appends: one
// record per close plus a mirror for a named lock wait, dropped once
// `appended` reaches the cap.
void replay(Rig* rig, std::vector<GenSpan>* spans, const std::vector<GenEvent>& events,
            std::size_t cap, std::uint64_t* appended, std::uint64_t* seq) {
  for (const GenEvent& event : events) {
    GenSpan& span = (*spans)[event.span];
    rig->now = event.time;
    rig->root = event.track;
    if (event.open) {
      span.token = rig->begin(span.phase);
      continue;
    }
    if (span.lock.empty()) {
      rig->end(span.token);
    } else {
      rig->rec.end_lock_wait(span.token, span.lock);
    }
    span.closed = true;
    span.close_seq = (*seq)++;
    span.kept = (*appended)++ < cap;
    if (!span.lock.empty()) {
      span.mirror_kept = (*appended)++ < cap;
    }
  }
}

struct Coverage {
  int zero_length_siblings = 0;
  int named_lock_waits = 0;
  int anonymous_lock_waits = 0;
  int redirected_dirty = 0;
  int unredirected_dirty = 0;
  int nested_ops = 0;
  int unclosed = 0;
  int capped_runs = 0;
};

// The critical-path fold restated over the generated trees, with strings.
struct ReferenceFold {
  const std::vector<GenSpan>& spans;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> migrations;
  Coverage* coverage;

  struct Instance {
    std::uint64_t latency = 0;
    std::uint64_t begin = 0;
    std::int64_t track = 0;
    std::vector<std::pair<std::string, std::uint64_t>> contributions;
  };
  std::map<std::string, std::vector<Instance>> instances;
  std::map<std::string, prof::PathStat> redirect;

  std::string component(const GenSpan& span) const {
    if (span.phase == Phase::kLockWait && !span.lock.empty() && span.mirror_kept) {
      return "lock_wait:" + span.lock;
    }
    return std::string(obs::phase_name(span.phase));
  }

  std::uint64_t exclusive(const GenSpan& span) const {
    std::uint64_t child_ns = 0;
    for (std::size_t child : span.children) {
      child_ns += spans[child].end - spans[child].begin;
    }
    const std::uint64_t total = span.end - span.begin;
    return total > child_ns ? total - child_ns : 0;
  }

  bool in_migration(std::uint64_t t) const {
    return std::any_of(migrations.begin(), migrations.end(),
                       [t](const auto& m) { return t >= m.first && t < m.second; });
  }

  void redirect_subtree(std::size_t id, const std::string& path) {
    prof::PathStat& stat = redirect[path];
    stat.exclusive_ns += exclusive(spans[id]);
    ++stat.count;
    for (std::size_t child : spans[id].children) {
      redirect_subtree(child, path + ";" + component(spans[child]));
    }
  }

  void visit(std::size_t id, Instance* op, bool in_migration_op, const std::string& path) {
    const GenSpan& span = spans[id];
    if (span.phase == Phase::kDirtyTrack) {
      if (!in_migration_op && in_migration(span.begin)) {
        ++coverage->redirected_dirty;
        redirect_subtree(id, "op.migration;" + component(span));
        return;
      }
      ++coverage->unredirected_dirty;
    }
    Instance local;
    Instance* current = op;
    std::string current_path = path;
    if (obs::phase_is_op(span.phase)) {
      coverage->nested_ops += op != nullptr ? 1 : 0;
      local = Instance{span.end - span.begin, span.begin, span.track, {}};
      current = &local;
      current_path = component(span);
      in_migration_op = span.phase == Phase::kOpMigration;
    } else if (current != nullptr) {
      current_path += ";" + component(span);
    }
    // The fold walks a span's children latest-opened first; the post-order
    // that yields decides which of two equally slow instances is worst.
    for (auto child = span.children.rbegin(); child != span.children.rend(); ++child) {
      visit(*child, current, in_migration_op, current_path);
    }
    if (current != nullptr) {
      current->contributions.emplace_back(current_path, exclusive(span));
    }
    if (current == &local) {
      instances[std::string(obs::phase_name(span.phase))].push_back(std::move(local));
    }
  }
};

// The profile of runs >= first_run. A span is visible to the fold when it
// closed and its record fit under the cap. Depth-0 spans are roots in close
// order; visible spans under an invisible (open or dropped) parent follow,
// by track, then close order.
prof::ProfDoc reference_profile(const std::vector<GenSpan>& spans, int first_run,
                                std::uint64_t dropped, Coverage* coverage) {
  const auto visible = [&](std::size_t id) {
    return spans[id].run >= first_run && spans[id].closed && spans[id].kept;
  };
  ReferenceFold fold{spans, {}, coverage, {}, {}};
  std::vector<std::size_t> roots;
  std::vector<std::size_t> orphans;
  for (std::size_t id = 0; id < spans.size(); ++id) {
    if (!visible(id)) {
      continue;
    }
    const GenSpan& span = spans[id];
    if (span.phase == Phase::kOpMigration) {
      fold.migrations.emplace_back(span.begin, span.end);
    }
    if (span.lock.empty() && span.phase == Phase::kLockWait) {
      ++coverage->anonymous_lock_waits;
    } else if (!span.lock.empty()) {
      ++coverage->named_lock_waits;
    }
    if (span.depth == 0) {
      roots.push_back(id);
    } else if (!visible(span.parent)) {
      orphans.push_back(id);
    }
  }
  std::sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].close_seq < spans[b].close_seq;
  });
  std::sort(orphans.begin(), orphans.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(spans[a].track, spans[a].close_seq) <
           std::tie(spans[b].track, spans[b].close_seq);
  });
  roots.insert(roots.end(), orphans.begin(), orphans.end());
  for (std::size_t root : roots) {
    fold.visit(root, nullptr, false, "");
  }

  prof::ProfDoc doc;
  doc.dropped_spans = dropped;
  for (const auto& [name, list] : fold.instances) {
    prof::OpProfile& profile = doc.ops[name];
    for (const ReferenceFold::Instance& instance : list) {
      profile.latency.record(instance.latency);
      for (const auto& [path, exclusive] : instance.contributions) {
        profile.paths[path].exclusive_ns += exclusive;
        ++profile.paths[path].count;
      }
      if (instance.latency > profile.worst_ns || profile.latency.count() == 1) {
        profile.worst_ns = instance.latency;
        profile.worst_begin_ns = instance.begin;
        profile.worst_track = instance.track;
      }
    }
    profile.tail_threshold_ns = profile.latency.quantile(0.99);
    for (const ReferenceFold::Instance& instance : list) {
      if (instance.latency < profile.tail_threshold_ns) {
        continue;
      }
      for (const auto& [path, exclusive] : instance.contributions) {
        profile.tail_paths[path].exclusive_ns += exclusive;
        ++profile.tail_paths[path].count;
      }
    }
  }
  if (!fold.redirect.empty()) {
    prof::OpProfile& profile = doc.ops["op.migration"];
    for (const auto& [path, stat] : fold.redirect) {
      profile.paths[path].exclusive_ns += stat.exclusive_ns;
      profile.paths[path].count += stat.count;
    }
  }
  return doc;
}

TEST(ProfFoldProperty, MatchesTheGeneratorsTrees) {
  const std::vector<std::int64_t> tracks = {-1, 0, 1, 2, 5};
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    ForestGen gen(seed);
    Rig rig;
    std::size_t cap = SIZE_MAX;
    if (gen.chance(35)) {
      cap = 20 + gen.below(200);
      rig.rec.set_max_spans(cap);
      ++coverage.capped_runs;
    }
    std::uint64_t appended = 0;
    std::uint64_t seq = 0;
    std::uint64_t end = 0;
    // Run 0 closes every span; run 1 may leave some open. The recorder
    // outlives both, so folding from the cut sees run 1 alone.
    replay(&rig, &gen.spans, gen.add_run(0, tracks, 0, /*truncate=*/false, &end), cap,
           &appended, &seq);
    const std::size_t cut = rig.rec.spans().size();
    replay(&rig, &gen.spans, gen.add_run(1, tracks, end + 10, /*truncate=*/true, &end), cap,
           &appended, &seq);
    const std::uint64_t dropped = appended > cap ? appended - cap : 0;

    for (std::size_t i = 0; i < gen.spans.size(); ++i) {
      const GenSpan& span = gen.spans[i];
      coverage.unclosed += span.token.valid() && !span.closed ? 1 : 0;
      if (span.begin == span.end && span.closed && span.parent != SIZE_MAX) {
        const std::vector<std::size_t>& siblings = gen.spans[span.parent].children;
        const auto it = std::find(siblings.begin(), siblings.end(), i);
        coverage.zero_length_siblings +=
            it + 1 != siblings.end() && gen.spans[*(it + 1)].begin == span.end ? 1 : 0;
      }
    }

    const prof::ProfDoc full = prof::fold_profile(rig.rec);
    const prof::ProfDoc full_expected = reference_profile(gen.spans, 0, dropped, &coverage);
    const prof::ProfDoc tail = prof::fold_profile(rig.rec, cut);
    const prof::ProfDoc tail_expected = reference_profile(gen.spans, 1, dropped, &coverage);
    ASSERT_EQ(prof::render_profile_json(full), prof::render_profile_json(full_expected))
        << "seed " << seed;
    ASSERT_EQ(full, full_expected) << "seed " << seed;
    ASSERT_EQ(prof::render_profile_json(tail), prof::render_profile_json(tail_expected))
        << "seed " << seed << " from span " << cut;
    ASSERT_EQ(tail, tail_expected) << "seed " << seed;
  }
  // The generator must have produced every shape the fold special-cases.
  EXPECT_GT(coverage.zero_length_siblings, 100);
  EXPECT_GT(coverage.named_lock_waits, 100);
  EXPECT_GT(coverage.anonymous_lock_waits, 100);
  EXPECT_GT(coverage.redirected_dirty, 100);
  EXPECT_GT(coverage.unredirected_dirty, 100);
  EXPECT_GT(coverage.nested_ops, 100);
  EXPECT_GT(coverage.unclosed, 100);
  EXPECT_GT(coverage.capped_runs, 50);
}

prof::ProfDoc sample_doc(std::uint64_t scale) {
  Rig rig;
  auto op = rig.begin(Phase::kOpPageFault);
  rig.now = 10 * scale;
  auto fill = rig.begin(Phase::kEptFill);
  rig.now = 40 * scale;
  rig.end(fill);
  rig.now = 100 * scale;
  rig.end(op);
  return prof::fold_profile(rig.rec);
}

TEST(ProfDoc, MergeIsOrderIndependent) {
  const prof::ProfDoc a = sample_doc(1);
  const prof::ProfDoc b = sample_doc(7);

  prof::ProfDoc ab;
  ASSERT_TRUE(prof::merge_profile(&ab, a, nullptr));
  ASSERT_TRUE(prof::merge_profile(&ab, b, nullptr));
  prof::ProfDoc ba;
  ASSERT_TRUE(prof::merge_profile(&ba, b, nullptr));
  ASSERT_TRUE(prof::merge_profile(&ba, a, nullptr));

  EXPECT_EQ(prof::render_profile_json(ab), prof::render_profile_json(ba));
  const prof::OpProfile& pf = only_op(ab, "op.page_fault");
  EXPECT_EQ(pf.latency.count(), 2u);
  EXPECT_EQ(pf.worst_ns, 700u);
}

TEST(ProfDoc, PrefixNamespacesOpKeys) {
  const prof::ProfDoc doc = prof::prefix_profile(sample_doc(1), "pvm/32p/");
  EXPECT_EQ(doc.ops.size(), 1u);
  EXPECT_TRUE(doc.ops.contains("pvm/32p/op.page_fault"));
  // Paths inside the op keep their raw phase names — the op key carries the
  // coordinate, so collapsed stacks splice it over the path's first frame.
  EXPECT_TRUE(only_op(doc, "pvm/32p/op.page_fault").paths.contains("op.page_fault;ept_fill"));
}

TEST(ProfDoc, RenderParseRoundTripIsByteIdentical) {
  prof::ProfDoc doc = sample_doc(3);
  doc.dropped_spans = 5;
  const std::string first = prof::render_profile_json(doc);

  prof::ProfDoc parsed;
  std::string error;
  ASSERT_TRUE(prof::parse_profile_json(first, &parsed, &error)) << error;
  EXPECT_EQ(parsed, doc);
  EXPECT_EQ(prof::render_profile_json(parsed), first);
}

TEST(ProfDoc, ParseRejectsWrongSchema) {
  prof::ProfDoc parsed;
  std::string error;
  EXPECT_FALSE(prof::parse_profile_json("{\"schema\":\"pvm.bench.v1\"}", &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ProfDoc, ParseRejectsBucketIndexOutOfRange) {
  // Index 600 is past the last bucket (495); taken as an index it would
  // shift a u64 by 74 bits and widen the count vector past every bucket.
  const auto doc_with_bucket = [](const std::string& index) {
    return R"({"schema":"pvm.profile.v1","dropped_spans":0,"ops":[{"name":"op.page_fault",)"
           R"("count":1,"sum_ns":5,"min_ns":5,"max_ns":5,"buckets":[[)" +
           index + R"(,1]],"paths":[],"tail_paths":[]}]})";
  };
  prof::ProfDoc parsed;
  std::string error;
  ASSERT_TRUE(prof::parse_profile_json(doc_with_bucket("5"), &parsed, &error)) << error;
  EXPECT_EQ(only_op(parsed, "op.page_fault").latency.quantile(1.0), 5u);
  for (const std::string bad : {"600", "496", "-1", "2.5", "\"7\"", "4294967301"}) {
    EXPECT_FALSE(prof::parse_profile_json(doc_with_bucket(bad), &parsed, &error)) << bad;
    EXPECT_EQ(error, "malformed bucket pair in op op.page_fault") << bad;
  }

  // The op's own numbers are checked too: a count of -1 or a fractional sum
  // is malformed, not clamped to 0 or truncated.
  const auto doc_with = [](const std::string& count, const std::string& sum) {
    return R"({"schema":"pvm.profile.v1","dropped_spans":0,"ops":[{"name":"op.page_fault",)"
           R"("count":)" +
           count + R"(,"sum_ns":)" + sum +
           R"(,"min_ns":5,"max_ns":5,"buckets":[[5,1]],"paths":[],"tail_paths":[]}]})";
  };
  ASSERT_TRUE(prof::parse_profile_json(doc_with("1", "5"), &parsed, &error)) << error;
  for (const auto& [count, sum] : {std::pair{"-1", "5"}, std::pair{"1", "2.5"}}) {
    EXPECT_FALSE(prof::parse_profile_json(doc_with(count, sum), &parsed, &error)) << count << sum;
    EXPECT_EQ(error, "malformed op entry") << count << sum;
  }
}

TEST(ProfRender, CollapsedStacksSpliceOpKeyOverRootFrame) {
  const prof::ProfDoc doc = prof::prefix_profile(sample_doc(1), "pvm/1p/");
  const std::string stacks = prof::render_collapsed_stacks(doc);
  EXPECT_NE(stacks.find("pvm/1p/op.page_fault;ept_fill 30\n"), std::string::npos) << stacks;
  EXPECT_NE(stacks.find("pvm/1p/op.page_fault 70\n"), std::string::npos) << stacks;
}

TEST(ProfRender, BlameNamesDominantPhaseFirst) {
  const prof::ProfDoc doc = sample_doc(1);
  const std::string blame = prof::render_blame(doc, prof::BlameOptions{});
  // Root exclusive (70 ns) dominates ept_fill (30 ns): first path row is the
  // dominant critical-path phase.
  const auto root_pos = blame.find("op.page_fault\n");
  const auto fill_pos = blame.find("op.page_fault;ept_fill");
  ASSERT_NE(root_pos, std::string::npos) << blame;
  ASSERT_NE(fill_pos, std::string::npos) << blame;
  EXPECT_LT(root_pos, fill_pos);
}

}  // namespace
}  // namespace pvm
