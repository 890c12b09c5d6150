// pvm::flight tests: ring wraparound semantics, run-to-run determinism of
// the recorder and both postmortem renderings (the acceptance bar: a
// coherence violation and a watchdog kill each dump byte-identically across
// two same-seed runs), and the Chrome-trace flight overlay under an active
// faultstorm plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ranges>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/backends/platform.h"
#include "src/check/chaos.h"
#include "src/check/simcheck.h"
#include "src/fault/fault.h"
#include "src/fault/watchdog.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/flight.h"
#include "src/obs/json_parse.h"
#include "src/obs/span.h"
#include "src/workloads/memstress.h"

namespace pvm {
namespace {

// --- Ring semantics ----------------------------------------------------

TEST(FlightRingTest, WraparoundKeepsNewestAndCountsDropped) {
  std::uint64_t now = 0;
  std::int64_t track = 7;
  flight::FlightRecorder recorder;
  recorder.bind(&now, &track);
  recorder.set_capacity(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    now = i * 100;
    recorder.record(flight::EventKind::kZap, /*a=*/i, /*b=*/0);
  }

  EXPECT_EQ(recorder.total_events(), 20u);
  EXPECT_EQ(recorder.dropped_events(), 12u);
  ASSERT_EQ(std::ranges::distance(recorder.rings()), 1);
  ASSERT_NE(recorder.ring(7), nullptr);
  const flight::FlightRecorder::Ring& ring = *recorder.ring(7);
  EXPECT_EQ(ring.total, 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  // The snapshot holds exactly the last `capacity` events, oldest first.
  const std::vector<flight::Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i);
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].t, (12 + i) * 100);
    EXPECT_EQ(events[i].track, 7);
  }
}

TEST(FlightRingTest, EventsAreAttributedToTheActiveTrack) {
  std::uint64_t now = 5;
  std::int64_t track = 0;
  flight::FlightRecorder recorder;
  recorder.bind(&now, &track);
  recorder.record(flight::EventKind::kReclaim, 1, 2);
  track = 3;
  recorder.record(flight::EventKind::kReclaim, 3, 4);
  track = -1;  // outside any root task
  recorder.record(flight::EventKind::kReclaim, 5, 6);

  ASSERT_EQ(std::ranges::distance(recorder.rings()), 3);
  for (const std::int64_t t : {0, 3, -1}) {
    ASSERT_NE(recorder.ring(t), nullptr) << "track " << t;
    EXPECT_EQ(recorder.ring(t)->total, 1u);
  }
  EXPECT_EQ(recorder.ring(1), nullptr);

  // merged() interleaves the per-track rings back into execution order.
  const std::vector<flight::Event> merged = recorder.merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].seq, 0u);
  EXPECT_EQ(merged[1].track, 3);
  EXPECT_EQ(merged[2].track, -1);
}

TEST(FlightRingTest, DisabledRecorderRecordsNothing) {
  std::uint64_t now = 0;
  std::int64_t track = 0;
  flight::FlightRecorder recorder;
  recorder.bind(&now, &track);
  recorder.set_enabled(false);
  recorder.record(flight::EventKind::kZap, 1, 2);
  EXPECT_EQ(recorder.total_events(), 0u);
}

// --- Reference model ---------------------------------------------------

// Every field of an event, for whole-event comparisons.
auto fields(const flight::Event& e) {
  return std::tuple(e.t, e.seq, e.a, e.b, e.track, e.kind, e.code);
}

void expect_same_events(const std::vector<flight::Event>& actual,
                        const std::vector<flight::Event>& expected, const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(fields(actual[i]), fields(expected[i])) << what << " event " << i;
  }
}

// The recorder as a naive model: each track keeps every event it ever
// recorded and the capacity its ring was created with; the last `capacity`
// events survive.
struct ReferenceTrack {
  std::size_t capacity = 0;
  std::vector<flight::Event> all;

  std::vector<flight::Event> surviving() const {
    const std::size_t keep = std::min(all.size(), capacity);
    return std::vector<flight::Event>(all.end() - static_cast<std::ptrdiff_t>(keep), all.end());
  }
};

TEST(FlightRingTest, MatchesReferenceModelAcrossTracksCapacitiesAndWraps) {
  std::uint64_t now = 0;
  std::int64_t track = 0;
  flight::FlightRecorder recorder;
  recorder.bind(&now, &track);

  // Each ring's capacity is set just before its track's first event: 1 and
  // non-powers of two. 220 interleaved events wrap every ring at least 8 times.
  const std::map<std::int64_t, std::size_t> capacity = {{-1, 5}, {0, 1}, {3, 7}, {200, 3}};
  const std::int64_t interleaving[] = {-1, 0, 3, 200, 3, 0, 200, -1, 3, 3, 0};
  std::map<std::int64_t, ReferenceTrack> reference;
  for (std::uint64_t step = 0; step < 220; ++step) {
    track = interleaving[step % std::size(interleaving)];
    now = 1000 + 10 * step;
    ReferenceTrack& model = reference[track];
    if (model.capacity == 0) {
      model.capacity = capacity.at(track);
      recorder.set_capacity(model.capacity);
    }
    const auto kind = static_cast<flight::EventKind>(step % flight::kEventKindCount);
    const auto code = static_cast<std::uint8_t>(step % 3);
    recorder.record(kind, step, 2 * step, code);
    model.all.push_back(flight::Event{now, step, step, 2 * step, track, kind, code});
  }

  std::vector<std::int64_t> ring_tracks;
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
  std::vector<flight::Event> surviving;
  for (const flight::FlightRecorder::Ring& ring : recorder.rings()) {
    ring_tracks.push_back(ring.track);
    const ReferenceTrack& model = reference.at(ring.track);
    const std::string what = "track " + std::to_string(ring.track);
    ASSERT_GE(model.all.size(), 4 * model.capacity) << what;
    EXPECT_EQ(ring.capacity, model.capacity) << what;
    EXPECT_EQ(ring.total, model.all.size()) << what;
    EXPECT_EQ(ring.dropped(), model.all.size() - model.capacity) << what;
    EXPECT_EQ(recorder.ring(ring.track), &ring) << what;
    expect_same_events(ring.snapshot(), model.surviving(), what);
    total += model.all.size();
    dropped += model.all.size() - model.capacity;
    const std::vector<flight::Event> kept = model.surviving();
    surviving.insert(surviving.end(), kept.begin(), kept.end());
  }
  EXPECT_EQ(ring_tracks, (std::vector<std::int64_t>{-1, 0, 3, 200}));
  for (const std::int64_t unused : {1, 2, 199, 201, 5000}) {
    EXPECT_EQ(recorder.ring(unused), nullptr) << "track " << unused;
  }
  EXPECT_EQ(recorder.total_events(), total);
  EXPECT_EQ(recorder.dropped_events(), dropped);
  std::sort(surviving.begin(), surviving.end(),
            [](const flight::Event& x, const flight::Event& y) { return x.seq < y.seq; });
  expect_same_events(recorder.merged(), surviving, "merged");

  // The postmortem lists the same rings, in the same order, event for event.
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(flight::render_postmortem_json(recorder, nullptr, "model", ""),
                              &doc, &error))
      << error;
  EXPECT_EQ(doc.find("total_events")->number, static_cast<double>(total));
  EXPECT_EQ(doc.find("dropped_events")->number, static_cast<double>(dropped));
  const obs::JsonValue& tracks = *doc.find("tracks");
  ASSERT_EQ(tracks.array.size(), reference.size());
  auto model = reference.begin();
  for (const obs::JsonValue& ring : tracks.array) {
    const std::string what = "postmortem track " + std::to_string(model->first);
    EXPECT_EQ(ring.find("track")->number, static_cast<double>(model->first)) << what;
    EXPECT_EQ(ring.find("name")->string, model->first < 0 ? "<unattributed>"
                                                          : "track#" + std::to_string(model->first))
        << what;
    EXPECT_EQ(ring.find("total")->number, static_cast<double>(model->second.all.size())) << what;
    EXPECT_EQ(ring.find("dropped")->number,
              static_cast<double>(model->second.all.size() - model->second.capacity))
        << what;
    const std::vector<flight::Event> kept = model->second.surviving();
    const std::vector<obs::JsonValue>& events = ring.find("events")->array;
    ASSERT_EQ(events.size(), kept.size()) << what;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(events[i].find("t")->number, static_cast<double>(kept[i].t)) << what;
      EXPECT_EQ(events[i].find("seq")->number, static_cast<double>(kept[i].seq)) << what;
      EXPECT_EQ(events[i].find("kind")->string, flight::event_kind_name(kept[i].kind)) << what;
      EXPECT_EQ(events[i].find("a")->number, static_cast<double>(kept[i].a)) << what;
      EXPECT_EQ(events[i].find("b")->number, static_cast<double>(kept[i].b)) << what;
      EXPECT_EQ(events[i].find("code")->number, static_cast<double>(kept[i].code)) << what;
    }
    ++model;
  }
}

TEST(FlightInternTest, IdsFollowFirstUseOrderAcrossLockAndSiteNames) {
  flight::FlightRecorder recorder;
  // A naive interner: the id of a name is the position of its first use.
  std::vector<std::string> first_use;
  auto expected_id = [&first_use](const std::string& name) {
    const auto it = std::find(first_use.begin(), first_use.end(), name);
    if (it != first_use.end()) {
      return static_cast<std::uint64_t>(it - first_use.begin());
    }
    first_use.push_back(name);
    return static_cast<std::uint64_t>(first_use.size() - 1);
  };
  // Lock names, fault-site names, an empty name and names that are prefixes
  // of one another, each repeated after later first uses.
  const std::vector<std::string> names = {
      "c0.mmu_lock",      "c0.rmap_lock.1",    "exit_spike", "c0.rmap_lock.1",
      "c0.rmap_lock.12",  "",                  "c0.pt_lock.7", "exit_spike",
      "vmresume_failure", "c0.rmap_lock.12",   "c0.mmu_lock",  "c",
      "",                 "migration_stall",   "c0.pt_lock.7", "c0.rmap_lock.123"};
  for (const std::string& name : names) {
    EXPECT_EQ(recorder.intern(name), expected_id(name)) << "\"" << name << "\"";
  }
  for (std::uint64_t id = 0; id < first_use.size(); ++id) {
    EXPECT_EQ(recorder.name(id), first_use[id]);
  }
  EXPECT_EQ(recorder.name(first_use.size()), "?");

  // Enough per-gfn lock names that some share the 32-bit hash the recorder
  // indexes by: each keeps its own id, and every repeat resolves to the
  // first one.
  const std::uint64_t base = first_use.size();
  constexpr std::uint64_t kLocks = 300000;
  std::unordered_map<std::uint32_t, std::uint64_t> gfn_by_hash;
  std::size_t shared_hashes = 0;
  std::vector<std::uint64_t> repeats;  // both gfns of each shared hash, every 7th gfn
  for (std::uint64_t gfn = 0; gfn < kLocks; ++gfn) {
    const std::string name = "c1.rmap_lock." + std::to_string(gfn);
    const auto hash = static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
    if (const auto [earlier, inserted] = gfn_by_hash.try_emplace(hash, gfn); !inserted) {
      ++shared_hashes;
      repeats.push_back(earlier->second);
      repeats.push_back(gfn);
    } else if (gfn % 7 == 0) {
      repeats.push_back(gfn);
    }
    ASSERT_EQ(recorder.intern(name), base + gfn);
  }
  ASSERT_GT(shared_hashes, 0u) << "no two names share a 32-bit hash";
  for (const std::uint64_t gfn : repeats) {
    const std::string name = "c1.rmap_lock." + std::to_string(gfn);
    ASSERT_EQ(recorder.intern(name), base + gfn);
    ASSERT_EQ(recorder.name(base + gfn), name);
  }
  EXPECT_EQ(recorder.intern("exit_spike"), expected_id("exit_spike"));
}

// --- Recorder determinism on a real platform ---------------------------

std::string run_workload_timeline() {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot());
  platform.sim().run();
  MemStressParams stress;
  stress.total_bytes = 1ull << 20;
  platform.sim().spawn(
      memstress_process(container, container.vcpu(0), *container.init_process(), stress));
  platform.sim().run();
  EXPECT_GT(platform.flight().total_events(), 0u);
  return flight::render_flight_timeline(platform.flight(), &platform.sim());
}

TEST(FlightDeterminismTest, TimelineIsByteIdenticalAcrossIdenticalRuns) {
  const std::string first = run_workload_timeline();
  const std::string second = run_workload_timeline();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("flight timeline"), std::string::npos);
  EXPECT_NE(first.find("spt-fill"), std::string::npos);
}

// --- Coherence-violation postmortem ------------------------------------

// Boots a container, touches a few heap pages, corrupts one shadow leaf the
// way the oracle mutation tests do, and captures the dump the moment
// verify_coherence() throws — the same path simcheck takes on a violation.
std::pair<std::string, std::string> coherence_violation_postmortem() {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  config.coherence_oracle = true;
  VirtualPlatform platform(config);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot());
  platform.sim().run();
  GuestProcess& proc = *container.init_process();
  proc.vmas()[GuestProcess::kHeapBase] = Vma{GuestProcess::kHeapBase, 1ull << 20, true};
  platform.sim().spawn([](SecureContainer& c, GuestProcess& p) -> Task<void> {
    for (std::uint64_t i = 0; i < 16; ++i) {
      co_await c.kernel().touch(c.vcpu(0), p, GuestProcess::kHeapBase + i * kPageSize,
                                true);
    }
  }(container, proc));
  platform.sim().run();

  PvmMemoryEngine* engine = container.shadow_engine();
  EXPECT_NE(engine, nullptr);
  EXPECT_TRUE(engine->debug_corrupt_spt_leaf(proc.pid(), false, GuestProcess::kHeapBase));
  std::string reason;
  try {
    engine->verify_coherence(false);
  } catch (const SptCoherenceError&) {
    reason = "coherence violation";
  }
  EXPECT_EQ(reason, "coherence violation");

  SimcheckCase repro;  // the case whose reproduce line the dump embeds
  repro.schedule_seed = 42;
  return {flight::render_flight_timeline(platform.flight(), &platform.sim()),
          flight::render_postmortem_json(platform.flight(), &platform.sim(), reason,
                                         simcheck_reproduce_line(repro))};
}

TEST(PostmortemTest, CoherenceViolationDumpIsByteIdentical) {
  const auto [text1, json1] = coherence_violation_postmortem();
  const auto [text2, json2] = coherence_violation_postmortem();
  EXPECT_EQ(text1, text2);
  EXPECT_EQ(json1, json2);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(json1, &doc, &error)) << error;
  ASSERT_TRUE(doc.find("schema") != nullptr);
  EXPECT_EQ(doc.find("schema")->string, "pvm.postmortem.v1");
  EXPECT_EQ(doc.find("reason")->string, "coherence violation");
  // The embedded reproduce line replays the case bit-for-bit.
  EXPECT_NE(doc.find("reproduce")->string.find("simcheck --modes pvm"),
            std::string::npos);
  EXPECT_NE(doc.find("reproduce")->string.find("--first-seed 42"), std::string::npos);
  ASSERT_TRUE(doc.find("tracks") != nullptr);
  EXPECT_FALSE(doc.find("tracks")->array.empty());
}

// --- Watchdog-kill postmortem ------------------------------------------

// The wedged-vCPU pattern from fault_test.cc: nothing runs after boot, the
// watchdog escalates kick -> reset -> kill and dumps at the moment of death.
std::pair<std::string, std::string> watchdog_kill_postmortem() {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot());
  platform.sim().run();
  fault::WatchdogParams params;
  params.check_interval_ns = kNsPerMs;
  fault::Watchdog watchdog(platform, container, params);
  platform.sim().spawn(watchdog.run());
  platform.sim().run();
  EXPECT_TRUE(watchdog.killed());
  return {watchdog.postmortem_text(), watchdog.postmortem_json()};
}

TEST(PostmortemTest, WatchdogKillDumpIsByteIdentical) {
  const auto [text1, json1] = watchdog_kill_postmortem();
  const auto [text2, json2] = watchdog_kill_postmortem();
  EXPECT_EQ(text1, text2);
  EXPECT_EQ(json1, json2);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(json1, &doc, &error)) << error;
  EXPECT_EQ(doc.find("schema")->string, "pvm.postmortem.v1");
  EXPECT_NE(doc.find("reason")->string.find("watchdog kill"), std::string::npos);
  // Rendered before the kill's own teardown, so the escalation ladder is
  // still in the rings rather than wrapped out by OOM traffic.
  EXPECT_NE(json1.find("\"watchdog\""), std::string::npos);
  EXPECT_NE(text1.find("watchdog kill vcpu=0"), std::string::npos);
}

// --- Chrome trace under a faultstorm -----------------------------------

// One observed run under simcheck's faultstorm plan; returns the rendered
// Chrome trace (with the flight overlay) and the number of faults injected.
std::pair<std::string, std::uint64_t> faultstorm_trace() {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  // Unwrapped rings: the overlay draws from the surviving ring contents, and
  // this test wants every injected fault of the run, not just the tail.
  platform.flight().set_capacity(1u << 16);
  fault::FaultInjector injector;
  // Seed pinned to a storm that draws exit-spike / spurious-inval specs —
  // the kinds the flight recorder marks (frame pressure and lock handoff
  // surface through counters and span latencies instead of instant events).
  injector.arm(faultstorm_plan(2));
  platform.arm_faults(&injector);
  obs::SpanRecorder recorder;
  recorder.set_enabled(true);
  platform.sim().set_spans(&recorder);

  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot());
  platform.sim().run();
  MemStressParams stress;
  stress.total_bytes = 1ull << 20;
  platform.sim().spawn(
      memstress_process(container, container.vcpu(0), *container.init_process(), stress));
  platform.sim().run();
  EXPECT_TRUE(platform.sim().all_tasks_done());
  return {obs::export_chrome_trace(recorder, platform.sim(), platform.sim().flight()),
          injector.total_fired()};
}

TEST(ChromeTraceFlightTest, FaultstormTraceIsValidJsonWithInjectedFaultInstants) {
  const auto [trace, fired] = faultstorm_trace();
  ASSERT_GT(fired, 0u);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(trace, &doc, &error)) << error;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());

  // Every injected fault the flight recorder retained shows up as an
  // instant event in the "flight" category.
  std::uint64_t instants = 0;
  for (const obs::JsonValue& event : events->array) {
    const obs::JsonValue* cat = event.find("cat");
    if (cat == nullptr || cat->string != "flight") {
      continue;
    }
    EXPECT_EQ(event.find("ph")->string, "i");
    if (event.find("name")->string == "fault-injected") {
      ++instants;
    }
  }
  EXPECT_GT(instants, 0u);
}

TEST(ChromeTraceFlightTest, FaultstormTraceIsByteIdenticalOnReplay) {
  const auto [trace1, fired1] = faultstorm_trace();
  const auto [trace2, fired2] = faultstorm_trace();
  EXPECT_EQ(fired1, fired2);
  EXPECT_EQ(trace1, trace2);
}

}  // namespace
}  // namespace pvm
