// Span recorder: RAII spans on the virtual clock, with latency attribution.
//
// A SpanRecorder is bound to a Simulation's clock and active-root pointers
// (Simulation::set_spans does the binding) and keeps one span stack per
// *track*. A track is a root task: per-root execution is strictly sequential
// in the DES, so spans opened and closed by the same root nest properly even
// across co_await suspension points. Lock waits recorded by sim::Resource are
// additionally mirrored onto a per-resource lock track so the Chrome-trace
// export shows each lock's occupancy timeline.
//
// On every span close the recorder aggregates:
//   - exclusive time per phase (duration minus time covered by child spans),
//   - an operation-by-phase matrix (exclusive time charged to the nearest
//     enclosing operation root — see phase.h),
//   - end-to-end latency histograms per operation kind,
//   - a bounded raw-span buffer (with a dropped counter) for trace export.
//
// Everything is integer virtual nanoseconds and deterministic: identical
// (policy, seed, config) runs produce identical recorder state. When no
// recorder is attached (the default) instrumented code paths pay one null
// pointer check; when attached but disabled, one extra bool load.
//
// Header-only; its one link dependency is pvm_metrics (the histogram), which
// src/sim links too, so src/sim can include it.

#ifndef PVM_SRC_OBS_SPAN_H_
#define PVM_SRC_OBS_SPAN_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/obs/phase.h"

namespace pvm::obs {

using TimeNs = std::uint64_t;

struct SpanRecord {
  TimeNs begin_ns;
  TimeNs end_ns;
  std::int64_t track;   // root task index, or kLockTrackBase + lock index
  Phase phase;
  std::uint32_t depth;  // nesting depth on the track at open time
  std::uint64_t detail; // phase-specific payload (gva, gpa, ...), 0 if none
};

class SpanRecorder {
 public:
  // Lock tracks live far above any plausible root-task index.
  static constexpr std::int64_t kLockTrackBase = 1'000'000;

  // Opaque handle returned by begin(); identifies the lane whose stack the
  // span was pushed on, so end() pops the right stack even if called from a
  // context where the active root has moved on.
  struct Token {
    std::int32_t lane = -1;
    bool valid() const { return lane >= 0; }
  };

  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Binds the virtual clock and active-root pointers (owned by Simulation).
  void bind(const TimeNs* now, const std::int64_t* active_root) {
    now_ = now;
    active_root_ = active_root;
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Caps the raw-span buffer (aggregates are unaffected by the cap).
  void set_max_spans(std::size_t max_spans) { max_spans_ = max_spans; }

  // Opens a span on the current root's track. Returns an invalid token when
  // disabled or unbound; end() on an invalid token is a no-op.
  Token begin(Phase phase, std::uint64_t detail = 0) {
    if (!enabled_ || now_ == nullptr) {
      return Token{};
    }
    const std::int64_t root = active_root_ == nullptr ? -1 : *active_root_;
    const auto lane = static_cast<std::int32_t>(root < 0 ? 0 : root + 1);
    if (static_cast<std::size_t>(lane) >= lanes_.size()) {
      lanes_.resize(static_cast<std::size_t>(lane) + 1);
    }
    Lane& stack = lanes_[static_cast<std::size_t>(lane)];
    const auto op = phase_is_op(phase)
                        ? static_cast<std::uint8_t>(phase)
                        : (stack.empty() ? static_cast<std::uint8_t>(Phase::kCount)
                                         : stack.back().op);
    stack.push_back(Open{*now_, detail, /*child_ns=*/0, phase, op});
    return Token{lane};
  }

  // Closes the innermost open span on the token's lane.
  void end(Token token) { close(token, /*lock_name=*/nullptr); }

  // Closes a lock-wait span and mirrors it onto the lock's own track.
  void end_lock_wait(Token token, const std::string& lock_name) {
    close(token, &lock_name);
  }

  // --- Aggregate views -----------------------------------------------------

  struct PhaseStat {
    std::uint64_t count = 0;
    TimeNs exclusive_ns = 0;
  };

  const PhaseStat& phase_stat(Phase phase) const {
    return phase_stats_[static_cast<std::size_t>(phase)];
  }

  // Exclusive nanoseconds of `phase` charged to operation `op`. Pass
  // Phase::kCount as `op` for time outside any operation.
  TimeNs op_phase_ns(Phase op, Phase phase) const {
    return matrix_[op_index(op)][static_cast<std::size_t>(phase)];
  }

  // End-to-end latency histogram of one operation kind.
  const MergeableHistogram& op_latency(Phase op) const {
    return op_latency_[static_cast<std::size_t>(op)];
  }

  TimeNs total_span_ns() const { return total_span_ns_; }

  // --- Raw spans and lock tracks -------------------------------------------

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t dropped_spans() const { return dropped_spans_; }

  // Lock name -> track id (>= kLockTrackBase), in first-seen order; the map
  // itself iterates in name order, which exporters rely on for determinism.
  const std::map<std::string, std::int64_t>& lock_tracks() const { return lock_tracks_; }

  // The currently-open span stack of `root`'s lane, rendered as a
  // semicolon-joined phase path ("op.page_fault;spt_fill;lock_wait").
  // Empty when nothing is open — the tail-exemplar hook (pvm::ts) calls this
  // at observation time to link a histogram sample back to its span context.
  std::string open_path(std::int64_t root) const {
    const auto lane = static_cast<std::size_t>(root < 0 ? 0 : root + 1);
    if (lane >= lanes_.size()) {
      return {};
    }
    std::string path;
    for (const Open& open : lanes_[lane]) {
      if (!path.empty()) {
        path.push_back(';');
      }
      path.append(phase_name(open.phase));
    }
    return path;
  }

  void clear() {
    lanes_.clear();
    spans_.clear();
    dropped_spans_ = 0;
    lock_tracks_.clear();
    total_span_ns_ = 0;
    for (auto& stat : phase_stats_) {
      stat = PhaseStat{};
    }
    for (auto& row : matrix_) {
      row.fill(0);
    }
    for (auto& hist : op_latency_) {
      hist.reset();
    }
  }

 private:
  struct Open {
    TimeNs begin;
    std::uint64_t detail;
    TimeNs child_ns;   // total (inclusive) time of already-closed children
    Phase phase;
    std::uint8_t op;   // Phase index of the nearest enclosing op, kCount if none
  };
  using Lane = std::vector<Open>;

  static std::size_t op_index(Phase op) { return static_cast<std::size_t>(op); }

  void close(Token token, const std::string* lock_name) {
    if (!token.valid() || now_ == nullptr) {
      return;
    }
    Lane& stack = lanes_[static_cast<std::size_t>(token.lane)];
    if (stack.empty()) {
      return;  // enabled() toggled mid-span; drop silently
    }
    const Open open = stack.back();
    stack.pop_back();
    const TimeNs end_ns = *now_;
    const TimeNs total = end_ns - open.begin;
    const TimeNs exclusive = total > open.child_ns ? total - open.child_ns : 0;
    if (!stack.empty()) {
      stack.back().child_ns += total;
    }
    auto& stat = phase_stats_[static_cast<std::size_t>(open.phase)];
    ++stat.count;
    stat.exclusive_ns += exclusive;
    total_span_ns_ += exclusive;
    matrix_[open.op][static_cast<std::size_t>(open.phase)] += exclusive;
    if (phase_is_op(open.phase)) {
      op_latency_[static_cast<std::size_t>(open.phase)].record(total);
    }
    const std::int64_t track = token.lane - 1;  // lane 0 = unattributed (-1)
    append(SpanRecord{open.begin, end_ns, track, open.phase,
                      static_cast<std::uint32_t>(stack.size()), open.detail});
    if (lock_name != nullptr) {
      append(SpanRecord{open.begin, end_ns, lock_track(*lock_name), open.phase, 0, open.detail});
    }
  }

  std::int64_t lock_track(const std::string& name) {
    auto it = lock_tracks_.find(name);
    if (it != lock_tracks_.end()) {
      return it->second;
    }
    const std::int64_t id = kLockTrackBase + static_cast<std::int64_t>(lock_tracks_.size());
    lock_tracks_.emplace(name, id);
    return id;
  }

  void append(const SpanRecord& record) {
    if (spans_.size() >= max_spans_) {
      ++dropped_spans_;
      return;
    }
    spans_.push_back(record);
  }

  const TimeNs* now_ = nullptr;
  const std::int64_t* active_root_ = nullptr;
  bool enabled_ = false;
  std::size_t max_spans_ = 1 << 20;

  std::vector<Lane> lanes_;
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_spans_ = 0;
  std::map<std::string, std::int64_t> lock_tracks_;

  TimeNs total_span_ns_ = 0;
  std::array<PhaseStat, kPhaseCount> phase_stats_{};
  // Row = op (kCount row collects phases outside any op); column = phase.
  std::array<std::array<TimeNs, kPhaseCount>, kPhaseCount + 1> matrix_{};
  std::array<MergeableHistogram, kPhaseCount> op_latency_{};
};

// RAII span: opens on construction (when a recorder is attached and enabled),
// closes on destruction. Safe to hold across co_await — the coroutine frame
// keeps it alive, and per-root execution is sequential.
class SpanScope {
 public:
  SpanScope() = default;
  SpanScope(SpanRecorder* recorder, Phase phase, std::uint64_t detail = 0) {
    if (recorder != nullptr && recorder->enabled()) {
      recorder_ = recorder;
      token_ = recorder->begin(phase, detail);
    }
  }
  SpanScope(SpanScope&& other) noexcept
      : recorder_(std::exchange(other.recorder_, nullptr)), token_(other.token_) {}
  SpanScope& operator=(SpanScope&& other) noexcept {
    if (this != &other) {
      close();
      recorder_ = std::exchange(other.recorder_, nullptr);
      token_ = other.token_;
    }
    return *this;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { close(); }

  void close() {
    if (recorder_ != nullptr) {
      recorder_->end(token_);
      recorder_ = nullptr;
    }
  }

 private:
  SpanRecorder* recorder_ = nullptr;
  SpanRecorder::Token token_{};
};

}  // namespace pvm::obs

#endif  // PVM_SRC_OBS_SPAN_H_
