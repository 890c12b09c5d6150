// Fleet-level behavior of pvm::fleet — above all the Fig. 12 contrast at
// region scale: under a flash-crowd bootstorm, a kvm-ept (NST) fleet
// OOM-crashes launches because L1 cannot reclaim EPT12 backing, while the
// pvm fleet sheds the same load by reclaiming cold shadow pages and
// restoring sandboxes from the wal snapshot template — zero crashes and a
// bounded boot tail. The test asserts the *differential*, not absolute
// numbers, so it survives calibration changes that move both modes.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/obs/json_parse.h"
#include "src/obs/ts.h"

namespace pvm::fleet {
namespace {

// The pvm-fleet "flashcrowd" scenario, sized to the smallest configuration
// that reliably exhausts the ept nodes (2000 launches across 2 hosts).
FleetSpec flashcrowd_spec() {
  FleetSpec spec;
  spec.arrival.kind = ArrivalKind::kBurst;
  spec.arrival.rate_per_sec = 1000.0;
  spec.arrival.burst_factor = 10.0;
  spec.arrival.burst_every_ns = 2'000'000'000ull;
  spec.arrival.burst_len_ns = 250'000'000ull;
  spec.fault_plan = "bootstorm";
  spec.launches = 2000;
  spec.nodes = 2;
  spec.modes = {DeployMode::kKvmEptNst, DeployMode::kPvmNst};
  return spec;
}

std::uint64_t total(const ts::TsDoc& doc, const std::string& name) {
  const auto it = doc.series.find(name);
  return it == doc.series.end() ? 0 : it->second.total;
}

TEST(FleetTest, Fig12AtScaleEptCrashesWherePvmServes) {
  const FleetSpec spec = flashcrowd_spec();
  const FleetResult result = run_fleet(spec, 2, {});
  ASSERT_EQ(result.groups.size(), 2u);
  const FleetGroup& ept = result.groups[0];
  const FleetGroup& pvm = result.groups[1];
  ASSERT_EQ(ept.mode, DeployMode::kKvmEptNst);
  ASSERT_EQ(pvm.mode, DeployMode::kPvmNst);
  for (const FleetGroup& group : result.groups) {
    for (const NodeOutcome& node : group.nodes) {
      ASSERT_TRUE(node.ok) << node.error;
    }
  }

  // The headline differential: the ept fleet OOM-kills strictly more
  // launches than pvm (which must stay clean), and loses completions.
  const std::uint64_t ept_oom = total(ept.rollup, "fleet/oom_kills");
  const std::uint64_t pvm_oom = total(pvm.rollup, "fleet/oom_kills");
  EXPECT_GT(ept_oom, pvm_oom);
  EXPECT_EQ(pvm_oom, 0u);
  EXPECT_GT(total(ept.rollup, "fleet/crashes"), 0u);
  EXPECT_EQ(total(pvm.rollup, "fleet/crashes"), 0u);
  EXPECT_EQ(total(pvm.rollup, "fleet/completions"), spec.launches);
  EXPECT_LT(total(ept.rollup, "fleet/completions"), spec.launches);

  // pvm keeps the boot tail bounded: start P99 within the start deadline.
  const auto it = pvm.rollup.hists.find("fleet/start_ns");
  ASSERT_NE(it, pvm.rollup.hists.end());
  const MergeableHistogram starts = it->second.cumulative();
  ASSERT_GT(starts.count(), 0u);
  EXPECT_LE(starts.quantile(0.99),
            static_cast<double>(spec.deadline_ns));

  // Launch accounting closes on both sides: every arrival either
  // completed or crashed (OOM, deadline, or starved-in-queue).
  for (const FleetGroup& group : result.groups) {
    EXPECT_EQ(total(group.rollup, "fleet/completions") +
                  total(group.rollup, "fleet/crashes"),
              spec.launches)
        << deploy_mode_token(group.mode);
  }
}

TEST(FleetTest, SnapshotRestoreOnlyOnShadowPagingModes) {
  FleetSpec spec = flashcrowd_spec();
  spec.launches = 600;  // enough to exercise the warm/restore paths
  const FleetResult result = run_fleet(spec, 2, {});
  const FleetGroup& ept = result.groups[0];
  const FleetGroup& pvm = result.groups[1];

  // pvm checkpoints the template through the wal and restores from it.
  for (const NodeOutcome& node : pvm.nodes) {
    EXPECT_GT(node.snapshot_bytes, 0u) << "pvm node " << node.node;
    EXPECT_GT(node.snapshot_records, 0u) << "pvm node " << node.node;
  }
  EXPECT_GT(total(pvm.rollup, "fleet/restore_starts"), 0u);

  // ept has no shadow engine, so no snapshot: every miss is a full boot.
  for (const NodeOutcome& node : ept.nodes) {
    EXPECT_EQ(node.snapshot_bytes, 0u) << "ept node " << node.node;
  }
  EXPECT_EQ(total(ept.rollup, "fleet/restore_starts"), 0u);
  EXPECT_GT(total(ept.rollup, "fleet/cold_starts"), 0u);

  // --no-restore flattens pvm back to cold boots.
  FleetSpec cold = spec;
  cold.snapshot_restore = false;
  cold.modes = {DeployMode::kPvmNst};
  const FleetResult cold_result = run_fleet(cold, 2, {});
  EXPECT_EQ(total(cold_result.groups[0].rollup, "fleet/restore_starts"), 0u);
  EXPECT_GT(total(cold_result.groups[0].rollup, "fleet/cold_starts"), 0u);
}

TEST(FleetTest, SloGateSeparatesTheModes) {
  const FleetSpec spec = flashcrowd_spec();
  std::vector<ts::SloSpec> slos;
  std::string error;
  ts::SloSpec slo;
  ASSERT_TRUE(ts::parse_slo_spec("oom-pvm:pvm/fleet/oom_kills:total<=0",
                                 &slo, &error))
      << error;
  slos.push_back(slo);
  ASSERT_TRUE(ts::parse_slo_spec("oom-ept:ept/fleet/oom_kills:total<=0",
                                 &slo, &error))
      << error;
  slos.push_back(slo);

  const FleetResult result = run_fleet(spec, 2, slos);
  ASSERT_EQ(result.slos.size(), 2u);
  bool saw_pvm = false, saw_ept = false;
  for (const ts::SloResult& verdict : result.slos) {
    if (verdict.name == "oom-pvm") {
      EXPECT_TRUE(verdict.pass) << verdict.metric;
      saw_pvm = true;
    } else if (verdict.name == "oom-ept") {
      EXPECT_FALSE(verdict.pass) << verdict.metric;
      saw_ept = true;
    }
  }
  EXPECT_TRUE(saw_pvm);
  EXPECT_TRUE(saw_ept);
}

TEST(FleetTest, RenderedDocumentIsValidFleetV1) {
  FleetSpec spec = flashcrowd_spec();
  spec.launches = 300;
  const FleetResult result = run_fleet(spec, 2, {});
  const std::string document = render_fleet_json(spec, result);

  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::json_parse(document, &root, &error)) << error;
  ASSERT_NE(root.find("schema"), nullptr);
  EXPECT_EQ(root.find("schema")->string, kFleetSchemaVersion);
  ASSERT_NE(root.find("groups"), nullptr);
  ASSERT_EQ(root.find("groups")->array.size(), 2u);
  for (const obs::JsonValue& group : root.find("groups")->array) {
    ASSERT_NE(group.find("rollup"), nullptr);
    ASSERT_NE(group.find("nodes"), nullptr);
    ASSERT_EQ(group.find("nodes")->array.size(), spec.nodes);
    for (const obs::JsonValue& node : group.find("nodes")->array) {
      // Each node cell embeds its own pvm.bench.v1 document.
      const obs::JsonValue* bench = node.find("bench");
      ASSERT_NE(bench, nullptr);
      ASSERT_NE(bench->find("schema"), nullptr);
      EXPECT_EQ(bench->find("schema")->string, "pvm.bench.v1");
    }
  }
  // Spec round-trip: the embedded arrival spec re-parses to the input.
  const obs::JsonValue* spec_obj = root.find("spec");
  ASSERT_NE(spec_obj, nullptr);
  ArrivalSpec parsed;
  ASSERT_TRUE(parse_arrival_spec(spec_obj->find("arrival")->string, &parsed,
                                 &error))
      << error;
  EXPECT_EQ(parsed, spec.arrival);
}

TEST(FleetTest, RejectsDegenerateSpecs) {
  FleetSpec no_nodes = flashcrowd_spec();
  no_nodes.nodes = 0;
  EXPECT_THROW(run_fleet(no_nodes, 1, {}), std::invalid_argument);

  FleetSpec no_modes = flashcrowd_spec();
  no_modes.modes.clear();
  EXPECT_THROW(run_fleet(no_modes, 1, {}), std::invalid_argument);

  // A malformed fault plan is a per-node failure, not a fleet abort: the
  // document still renders, with the parse error recorded on every cell.
  FleetSpec bad_plan = flashcrowd_spec();
  bad_plan.launches = 50;
  bad_plan.fault_plan = "bootstorm:sneed=7";
  const FleetResult result = run_fleet(bad_plan, 1, {});
  for (const FleetGroup& group : result.groups) {
    for (const NodeOutcome& node : group.nodes) {
      EXPECT_FALSE(node.ok);
      EXPECT_FALSE(node.error.empty());
    }
  }
}

}  // namespace
}  // namespace pvm::fleet
