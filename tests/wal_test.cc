// pvm::wal crash-consistency tests: framed-record round trips, the
// truncate-at-first-bad-checksum recovery rule, checkpoint prefixes,
// fault-injected torn appends, and the shadow-engine checkpoint/restore
// path replaying to an oracle-clean state (including from a torn tail).

#include <gtest/gtest.h>

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
