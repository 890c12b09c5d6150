// pvm::wal crash-consistency tests: framed-record round trips, the
// truncate-at-first-bad-checksum recovery rule, checkpoint prefixes,
// fault-injected torn appends, and the shadow-engine checkpoint/restore
// path replaying to an oracle-clean state (including from a torn tail).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <optional>

#include "src/core/memory_engine.h"
#include "src/fault/fault.h"
#include "src/wal/wal.h"

namespace pvm {
namespace {

TEST(WalTest, AppendRecoverRoundTrip) {
  wal::Log log;
  std::string p0;
  wal::put_u64(p0, 0xdeadbeefull);
  log.append(wal::RecordType::kData, p0);
  log.append(wal::RecordType::kDirtyPage, "page");
  log.append_checkpoint("ck");

  const wal::RecoveryResult r = wal::recover(log.bytes());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.bytes_truncated, 0u);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].type, wal::RecordType::kData);
  EXPECT_EQ(r.records[0].payload, p0);
  EXPECT_EQ(r.records[0].seq, 0u);
  EXPECT_EQ(r.records[1].type, wal::RecordType::kDirtyPage);
  EXPECT_EQ(r.records[1].payload, "page");
  EXPECT_EQ(r.records[2].type, wal::RecordType::kCheckpoint);
  EXPECT_EQ(r.records[2].seq, 2u);
  ASSERT_TRUE(r.last_checkpoint.has_value());
  EXPECT_EQ(*r.last_checkpoint, 2u);
}

TEST(WalTest, EmptyStreamRecoversToNothing) {
  const wal::RecoveryResult r = wal::recover("");
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_FALSE(r.last_checkpoint.has_value());
  EXPECT_TRUE(r.checkpointed_prefix().empty());
}

TEST(WalTest, DeterministicBytes) {
  // Same append sequence, identical bytes — the property checkpoint-resume
  // byte-identity rests on.
  wal::Log a;
  wal::Log b;
  for (int i = 0; i < 5; ++i) {
    std::string payload;
    wal::put_u64(payload, static_cast<std::uint64_t>(i) * 7919);
    a.append(wal::RecordType::kData, payload);
    b.append(wal::RecordType::kData, payload);
  }
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(WalTest, TruncatesAtFirstBadChecksum) {
  wal::Log log;
  log.append(wal::RecordType::kData, "first");
  log.append(wal::RecordType::kData, "second");
  log.append(wal::RecordType::kData, "third");

  // Flip one payload byte inside the second record: recovery must keep the
  // first record and drop everything from the corruption onward.
  std::string bytes = log.bytes();
  const std::size_t second_start = wal::kRecordHeaderBytes + 5;
  bytes[second_start + wal::kRecordHeaderBytes] ^= 0x40;

  const wal::RecoveryResult r = wal::recover(bytes);
  EXPECT_TRUE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].payload, "first");
  EXPECT_GT(r.bytes_truncated, 0u);
  EXPECT_NE(r.detail.find("checksum"), std::string::npos) << r.detail;
}

TEST(WalTest, TruncatesShortTail) {
  wal::Log log;
  log.append(wal::RecordType::kData, "one");
  log.append(wal::RecordType::kData, "two");
  // Cut mid-way through the second record's payload (a torn write).
  const std::string bytes =
      log.bytes().substr(0, wal::kRecordHeaderBytes + 3 + wal::kRecordHeaderBytes + 1);
  const wal::RecoveryResult r = wal::recover(bytes);
  EXPECT_TRUE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].payload, "one");
}

TEST(WalTest, CheckpointedPrefixStopsAtLastCheckpoint) {
  wal::Log log;
  log.append(wal::RecordType::kData, "a");
  log.append_checkpoint();
  log.append(wal::RecordType::kData, "b");
  log.append_checkpoint();
  log.append(wal::RecordType::kData, "uncommitted");

  const wal::RecoveryResult r = wal::recover(log.bytes());
  ASSERT_EQ(r.records.size(), 5u);
  const std::vector<wal::Record> prefix = r.checkpointed_prefix();
  ASSERT_EQ(prefix.size(), 4u);
  EXPECT_EQ(prefix.back().type, wal::RecordType::kCheckpoint);
}

TEST(WalTest, InjectedTornWriteKillsLogAndRecoveryCopes) {
  fault::FaultInjector injector;
  fault::FaultPlan plan;
  fault::FaultSpec torn;
  torn.kind = fault::FaultKind::kWalTornWrite;
  torn.target = "wal";
  torn.trigger.at_op = 3;  // the third append dies mid-payload
  plan.specs.push_back(torn);
  injector.arm(std::move(plan));

  wal::Log log;
  log.set_faults(&injector);
  log.append(wal::RecordType::kData, "payload-zero");
  log.append(wal::RecordType::kData, "payload-one");
  EXPECT_FALSE(log.torn());
  log.append(wal::RecordType::kData, "payload-two");  // torn mid-write
  EXPECT_TRUE(log.torn());
  // The owning process is dead: further appends are dropped.
  const std::uint64_t count = log.record_count();
  log.append(wal::RecordType::kData, "after-death");
  EXPECT_EQ(log.record_count(), count);

  const wal::RecoveryResult r = wal::recover(log.bytes());
  EXPECT_TRUE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[1].payload, "payload-one");
  EXPECT_GT(r.bytes_truncated, 0u);
}

TEST(WalTest, WalcrashPresetParsesAndTargetsWalSites) {
  const fault::FaultPlan plan = fault::FaultPlan::parse("walcrash");
  EXPECT_EQ(plan.name, "walcrash");
  ASSERT_EQ(plan.specs.size(), 2u);
  EXPECT_EQ(plan.specs[0].kind, fault::FaultKind::kWalTornWrite);
  EXPECT_EQ(plan.specs[1].kind, fault::FaultKind::kWalPartialAppend);
  for (const fault::FaultSpec& spec : plan.specs) {
    EXPECT_EQ(spec.target, "wal");
  }
}

// ---- Sweep checkpoint-resume (ResumeLog) ----

// A checkpoint path of the calling test's own, with no file behind it yet.
std::string fresh_checkpoint(const std::string& name) {
  const std::string path =
      testing::TempDir() + "resume_" + name + "_" + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  return path;
}

wal::ResumeLog resume_log(const std::string& path, std::size_t jobs,
                          const std::string& fingerprint = "sweep;seeds=4") {
  return wal::ResumeLog("simcheck", "case", path, wal::RecordType::kCaseResult, fingerprint, jobs);
}

// Loads `log`, returning what it replayed by job index; `reject` names a
// payload the replay callback refuses to decode.
std::map<std::size_t, std::string> replay_all(wal::ResumeLog& log, wal::ResumeLog::Status* status,
                                              std::string_view reject = {}) {
  std::map<std::size_t, std::string> replayed;
  *status = log.load([&](std::size_t index, std::string_view payload) {
    if (!reject.empty() && payload == reject) {
      return false;
    }
    replayed[index] = std::string(payload);
    return true;
  });
  return replayed;
}

std::string read_file(const std::string& path) {
  std::string bytes;
  std::string error;
  EXPECT_TRUE(wal::load_file(path, &bytes, &error)) << error;
  return bytes;
}

TEST(ResumeLogTest, MissingFileIsAFreshLog) {
  const std::string path = fresh_checkpoint("fresh");
  wal::ResumeLog log = resume_log(path, 4);
  wal::ResumeLog::Status status;
  EXPECT_TRUE(replay_all(log, &status).empty());
  EXPECT_EQ(status, wal::ResumeLog::Status::kOk);
  EXPECT_EQ(log.replayed(), 0u);

  // Saved, the fresh log is its header alone: the fingerprint, first.
  log.save();
  const wal::RecoveryResult r = wal::recover(read_file(path));
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].type, wal::RecordType::kHeader);
  std::size_t cursor = 0;
  std::string fingerprint;
  ASSERT_TRUE(wal::get_string(r.records[0].payload, &cursor, &fingerprint));
  EXPECT_EQ(fingerprint, "sweep;seeds=4");
  std::remove(path.c_str());
}

TEST(ResumeLogTest, ReplayReturnsPayloadsByIndex) {
  const std::string path = fresh_checkpoint("replay");
  wal::ResumeLog::Status status;
  {
    wal::ResumeLog first = resume_log(path, 4);
    replay_all(first, &status);
    first.append(2, "two");  // jobs finish out of index order
    first.append(0, "zero");
  }
  wal::ResumeLog resumed = resume_log(path, 4);
  const std::map<std::size_t, std::string> replayed = replay_all(resumed, &status);
  EXPECT_EQ(status, wal::ResumeLog::Status::kOk);
  EXPECT_EQ(replayed, (std::map<std::size_t, std::string>{{0, "zero"}, {2, "two"}}));
  EXPECT_EQ(resumed.replayed(), 2u);

  // A completed sweep is rewritten in index order, whatever order its jobs
  // finished in: the same bytes as one that appended them in order.
  const auto payload = [](std::size_t i) { return "job" + std::to_string(i); };
  resumed.append(3, "three");
  resumed.complete(payload);
  const std::string in_order_path = fresh_checkpoint("replay_in_order");
  wal::ResumeLog in_order = resume_log(in_order_path, 4);
  replay_all(in_order, &status);
  for (std::size_t i = 0; i < 4; ++i) {
    in_order.append(i, payload(i));
  }
  in_order.complete(payload);
  EXPECT_EQ(read_file(path), read_file(in_order_path));
  const wal::RecoveryResult r = wal::recover(read_file(path));
  ASSERT_EQ(r.records.size(), 6u);  // header, four jobs, checkpoint
  EXPECT_EQ(r.records[5].type, wal::RecordType::kCheckpoint);
  std::remove(path.c_str());
  std::remove(in_order_path.c_str());
}

TEST(ResumeLogTest, CompleteLeavesOutJobsWithoutAPayload) {
  const std::string path = fresh_checkpoint("complete_skip");
  wal::ResumeLog::Status status;
  wal::ResumeLog log = resume_log(path, 4);
  replay_all(log, &status);
  // Job 3 ran, as a parallel sweep runs past a failure, but the sweep's
  // merge read only jobs 0 and 1.
  log.append(3, "three");
  log.append(1, "one");
  log.append(0, "zero");
  log.complete([](std::size_t i) -> std::optional<std::string> {
    if (i >= 2) {
      return std::nullopt;
    }
    return "job" + std::to_string(i);
  });
  const wal::RecoveryResult r = wal::recover(read_file(path));
  ASSERT_EQ(r.records.size(), 4u);  // header, jobs 0 and 1, checkpoint
  EXPECT_EQ(r.records[3].type, wal::RecordType::kCheckpoint);
  // A resume replays exactly the jobs the completed file kept.
  wal::ResumeLog resumed = resume_log(path, 4);
  EXPECT_EQ(replay_all(resumed, &status),
            (std::map<std::size_t, std::string>{{0, "job0"}, {1, "job1"}}));
  EXPECT_EQ(status, wal::ResumeLog::Status::kOk);
  EXPECT_EQ(resumed.replayed(), 2u);
  std::remove(path.c_str());
}

TEST(ResumeLogTest, RecordCutMidPayloadIsDroppedAsTornTail) {
  const std::string path = fresh_checkpoint("torn");
  wal::ResumeLog::Status status;
  {
    wal::ResumeLog first = resume_log(path, 4);
    replay_all(first, &status);
    first.append(0, "zero");
    first.append(1, "one");
    first.append(2, "two");
  }
  // Cut the last record two bytes into its payload (u64 index + "two"), as
  // a crash mid-append would.
  const std::string bytes = read_file(path);
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::string torn = bytes.substr(0, bytes.size() - (8 + 3) + 2);
    std::fwrite(torn.data(), 1, torn.size(), file);
    std::fclose(file);
  }
  wal::ResumeLog resumed = resume_log(path, 4);
  testing::internal::CaptureStderr();
  const std::map<std::size_t, std::string> replayed = replay_all(resumed, &status);
  const std::string report = testing::internal::GetCapturedStderr();
  EXPECT_EQ(status, wal::ResumeLog::Status::kOk);
  EXPECT_EQ(replayed, (std::map<std::size_t, std::string>{{0, "zero"}, {1, "one"}}));
  EXPECT_NE(report.find("simcheck: checkpoint tail truncated (torn payload at offset"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("); rerunning the affected case(s)\n"), std::string::npos) << report;
  std::remove(path.c_str());
}

TEST(ResumeLogTest, HeaderOfAnotherSweepIsStale) {
  const std::string path = fresh_checkpoint("stale");
  wal::ResumeLog::Status status;
  {
    wal::ResumeLog first = resume_log(path, 4, "sweep;seeds=4");
    replay_all(first, &status);
    first.append(1, "one");
  }
  const std::string before = read_file(path);
  wal::ResumeLog other = resume_log(path, 4, "sweep;seeds=8");
  EXPECT_TRUE(replay_all(other, &status).empty());
  EXPECT_EQ(status, wal::ResumeLog::Status::kStale);
  EXPECT_EQ(other.replayed(), 0u);
  // Loading writes nothing: a tool that refuses a stale file leaves it be.
  EXPECT_EQ(read_file(path), before);
  std::remove(path.c_str());
}

TEST(ResumeLogTest, SkipsOutOfRangeAndUndecodableRecords) {
  const std::string path = fresh_checkpoint("skip");
  wal::ResumeLog::Status status;
  {
    wal::ResumeLog wide = resume_log(path, 8);
    replay_all(wide, &status);
    wide.append(1, "one");
    wide.append(2, "garbage");
    wide.append(6, "six");  // in range for 8 jobs, not for 4
  }
  wal::ResumeLog narrow = resume_log(path, 4);
  const std::map<std::size_t, std::string> replayed = replay_all(narrow, &status, "garbage");
  EXPECT_EQ(status, wal::ResumeLog::Status::kOk);
  EXPECT_EQ(replayed, (std::map<std::size_t, std::string>{{1, "one"}}));
  EXPECT_EQ(narrow.replayed(), 1u);
  // Skipped records do not survive into the rebuilt log.
  narrow.save();
  EXPECT_EQ(wal::recover(read_file(path)).records.size(), 2u);  // header, job 1
  std::remove(path.c_str());
}

// ---- Shadow-engine checkpoint/restore on the WAL ----

struct EngineHarness {
  EngineHarness() : frames("l1", 1u << 20) {
    PvmMemoryEngine::Options options;
    engine = std::make_unique<PvmMemoryEngine>(sim, costs, counters, frames, "eng", options);
  }

  void run(Task<void> task) {
    sim.spawn(std::move(task));
    sim.run();
    ASSERT_TRUE(sim.all_tasks_done());
  }

  Simulation sim;
  CostModel costs;
  CounterSet counters;
  FrameAllocator frames;
  std::unique_ptr<PvmMemoryEngine> engine;
};

Pte user_leaf(std::uint64_t gfn) { return Pte::make(gfn, PteFlags::rw_user()); }

void populate(EngineHarness& h, int processes, int pages_per_process) {
  for (int pid = 1; pid <= processes; ++pid) {
    h.engine->create_process(static_cast<std::uint64_t>(pid));
  }
  h.run([](EngineHarness& hh, int procs, int pages) -> Task<void> {
    for (int pid = 1; pid <= procs; ++pid) {
      for (int page = 0; page < pages; ++page) {
        co_await hh.engine->fill_spt(static_cast<std::uint64_t>(pid),
                                     0x10000ull + static_cast<std::uint64_t>(page) * 0x1000,
                                     /*kernel_ring=*/false,
                                     user_leaf(static_cast<std::uint64_t>(pid * 100 + page)),
                                     false);
      }
    }
  }(h, processes, pages_per_process));
}

TEST(WalEngineCheckpointTest, RestoreReplaysToCoherentIdenticalState) {
  EngineHarness src;
  populate(src, 3, 8);

  wal::Log log;
  src.engine->checkpoint_to_wal(log);
  const wal::RecoveryResult r = wal::recover(log.bytes());
  EXPECT_FALSE(r.torn_tail);
  ASSERT_TRUE(r.last_checkpoint.has_value());

  EngineHarness dst;
  std::string error;
  ASSERT_TRUE(dst.engine->restore_from_records(r.checkpointed_prefix(), &error)) << error;
  for (std::uint64_t pid = 1; pid <= 3; ++pid) {
    EXPECT_EQ(dst.engine->spt_leaves(pid, false), src.engine->spt_leaves(pid, false));
    for (int page = 0; page < 8; ++page) {
      const std::uint64_t gva = 0x10000ull + static_cast<std::uint64_t>(page) * 0x1000;
      const Pte* a = src.engine->spt(pid, false).find_pte(gva);
      const Pte* b = dst.engine->spt(pid, false).find_pte(gva);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(a->raw(), b->raw());
    }
  }
  // The restored engine satisfies the structural SPT oracle (guest PTs do
  // not survive a crash, so the strict guest-agreement mode does not apply).
  EXPECT_NO_THROW(dst.engine->verify_coherence(false));
}

TEST(WalEngineCheckpointTest, TornTailRestoresCoherentPrefix) {
  EngineHarness src;
  populate(src, 2, 16);

  wal::Log log;
  src.engine->checkpoint_to_wal(log);
  // Crash mid-write: drop the checkpoint record and half of the final leaf
  // record. Recovery truncates; restore of the surviving records must still
  // produce an oracle-clean (partial) shadow state.
  const std::string torn = log.bytes().substr(0, log.bytes().size() - 60);
  const wal::RecoveryResult r = wal::recover(torn);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_FALSE(r.records.empty());

  EngineHarness dst;
  std::string error;
  ASSERT_TRUE(dst.engine->restore_from_records(r.records, &error)) << error;
  EXPECT_NO_THROW(dst.engine->verify_coherence(false));
  EXPECT_LE(dst.engine->spt_leaves(1, false) + dst.engine->spt_leaves(2, false),
            src.engine->spt_leaves(1, false) + src.engine->spt_leaves(2, false));
  EXPECT_GT(dst.engine->spt_leaves(1, false), 0u);
}

TEST(WalEngineCheckpointTest, RestoreRejectsMalformedRecord) {
  EngineHarness dst;
  wal::Record bad;
  bad.type = wal::RecordType::kShadowLeaf;
  bad.payload = "short";
  std::string error;
  EXPECT_FALSE(dst.engine->restore_from_records({bad}, &error));
  EXPECT_NE(error.find("shadow-leaf"), std::string::npos) << error;
}

TEST(WalEngineCheckpointTest, InjectedCrashDuringCheckpointRecovers) {
  EngineHarness src;
  populate(src, 2, 12);

  // The walcrash preset tears the append at ~1 virtual ms; at time zero the
  // at_op trigger fires instead: first spec (torn write) hits append #1.
  fault::FaultInjector injector;
  fault::FaultPlan plan;
  fault::FaultSpec torn;
  torn.kind = fault::FaultKind::kWalTornWrite;
  torn.target = "wal";
  torn.trigger.at_op = 10;
  plan.specs.push_back(torn);
  injector.arm(std::move(plan));

  wal::Log log;
  log.set_faults(&injector);
  src.engine->checkpoint_to_wal(log);
  EXPECT_TRUE(log.torn());

  const wal::RecoveryResult r = wal::recover(log.bytes());
  EXPECT_TRUE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 9u);  // appends 1..9 survived, #10 tore

  EngineHarness dst;
  std::string error;
  ASSERT_TRUE(dst.engine->restore_from_records(r.records, &error)) << error;
  EXPECT_NO_THROW(dst.engine->verify_coherence(false));
}

}  // namespace
}  // namespace pvm
