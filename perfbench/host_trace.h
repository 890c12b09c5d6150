// Host-time spans around the calls the benchmark makes into each layer.
//
// Every timed call (VirtualPlatform construction, Simulation::run,
// ~VirtualPlatform, fleet::run_node, the obs renderers, ...) goes through
// HostTrace::time(), which reads std::chrono::steady_clock before and after.
// With tracing off that is all it does. With tracing on it also keeps a span
// (name, start, end, parent, cell label) in memory; spans are written out
// once, at exit, and per-layer self times are derived from them afterwards.
// Span names are "<layer>.<call>", so a layer's host time is the sum over
// the spans whose name starts with its module name.

#ifndef PVM_PERFBENCH_HOST_TRACE_H_
#define PVM_PERFBENCH_HOST_TRACE_H_

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct HostSpan {
  std::string name;  // "<layer>.<call>", e.g. "sim.run"
  std::string cell;  // the cell (one platform run) the call belongs to
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  // index of the enclosing span, -1 at top level
};

class HostTrace {
 public:
  explicit HostTrace(bool enabled, Clock::time_point epoch = Clock::now())
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }

  // One open span. finish() closes it and returns its host seconds; a scope
  // left by an exception closes in its destructor, so the stack stays whole.
  class Scope {
   public:
    Scope(HostTrace& trace, const char* name, const std::string& cell)
        : trace_(trace), id_(trace.open(name, cell)), start_(Clock::now()) {}
    ~Scope() { finish(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double finish() {
      if (!open_) {
        return 0;
      }
      open_ = false;
      const Clock::time_point end = Clock::now();
      trace_.close(id_, start_, end);
      return seconds_between(start_, end);
    }

   private:
    HostTrace& trace_;
    int id_;
    Clock::time_point start_;
    bool open_ = true;
  };

  // Runs `fn` and returns its host seconds; records a span when enabled.
  template <typename Fn>
  double time(const char* name, const std::string& cell, Fn&& fn) {
    Scope scope(*this, name, cell);
    std::forward<Fn>(fn)();
    return scope.finish();
  }

  const std::vector<HostSpan>& spans() const { return spans_; }

  // Self time per span name: each span's duration minus the part of it its
  // child spans cover.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const HostSpan& span : spans_) {
      if (span.parent >= 0) {
        child[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

 private:
  int open(const char* name, const std::string& cell) {
    if (!enabled_) {
      return -1;
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(HostSpan{name, cell, 0, 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id, Clock::time_point start, Clock::time_point end) {
    if (id < 0) {
      return;
    }
    HostSpan& span = spans_[static_cast<std::size_t>(id)];
    span.start_s = seconds_between(epoch_, start);
    span.end_s = seconds_between(epoch_, end);
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<HostSpan> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench

#endif  // PVM_PERFBENCH_HOST_TRACE_H_
