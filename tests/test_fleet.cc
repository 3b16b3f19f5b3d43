// Fleet-lifecycle simulator: the deterministic long-horizon workload engine
// and its invariant oracles (src/fleet/).
//
// Coverage, in order:
//  - Plan generation: byte-identical renders for equal configs, distinct
//    renders for distinct seeds, WithApproach rewrites saves only.
//  - FleetSymbolicState: approach-dependent lineage semantics (MMlib-base
//    derived saves record no base link; Baseline derived saves are full;
//    Update chains deepen) and the pin-protection closure.
//  - Simulator determinism: byte-identical run reports — including the
//    per-request modeled-nanos stream — across reruns and worker counts.
//  - Oracle-clean matrix: every approach × {un-sharded, 2-shard cluster} ×
//    pipeline lanes {1, 4} replays clean at a short horizon.
//  - Crash injection: deterministic, nonzero injected crashes, clean.
//  - Minimizer: a synthetic fault on a root save converges to exactly that
//    op; a fault on a derived save keeps exactly its save-dependency chain;
//    both minimizations are reproducible run-for-run; the repro artifact
//    renders the seed and trace.
//  - Differential replay: the same plan forced through each approach yields
//    clean oracles and bit-identical recovered contents for every ordinal
//    live under all approaches.
//  - Regressions for the product bugs the simulator surfaced: the serving
//    layer's pin guard vs pruned lineage, rebalance moves erasing base
//    links, RetainOnly's cross-shard lineage closure, and pinned rebalance
//    moves stranding duplicate placements.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "core/compactor.h"
#include "core/gc.h"
#include "core/manager.h"
#include "fleet/content.h"
#include "fleet/minimize.h"
#include "fleet/plan.h"
#include "fleet/simulator.h"
#include "serve/service.h"
#include "storage/env.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

using ::mmm::testing::TempDir;

// ---------------------------------------------------------------------------
// Plan generation.

TEST(FleetPlanTest, GenerationIsByteIdenticalForEqualConfigs) {
  FleetPlanConfig config;
  config.seed = 21;
  config.steps = 80;
  config.cluster_events = true;
  FleetPlan a = FleetPlan::Generate(config);
  FleetPlan b = FleetPlan::Generate(config);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  EXPECT_EQ(a.Render(), b.Render());
  EXPECT_EQ(a.save_count, b.save_count);

  config.seed = 22;
  FleetPlan c = FleetPlan::Generate(config);
  EXPECT_NE(a.Render(), c.Render());
}

TEST(FleetPlanTest, WithApproachRewritesSaveOpsOnly) {
  FleetPlanConfig config;
  config.seed = 21;
  config.steps = 60;
  FleetPlan plan = FleetPlan::Generate(config);
  FleetPlan forced = plan.WithApproach(ApproachType::kUpdate);
  ASSERT_EQ(plan.ops.size(), forced.ops.size());
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    EXPECT_EQ(plan.ops[i].kind, forced.ops[i].kind);
    EXPECT_EQ(plan.ops[i].ordinal, forced.ops[i].ordinal);
    if (forced.ops[i].kind == FleetOpKind::kSaveInitial ||
        forced.ops[i].kind == FleetOpKind::kSaveDerived) {
      EXPECT_EQ(forced.ops[i].approach, ApproachType::kUpdate);
    }
  }
}

// ---------------------------------------------------------------------------
// FleetSymbolicState: lineage semantics per approach.

FleetOp SaveOp(FleetOpKind kind, uint64_t ordinal, ApproachType approach,
               uint64_t base = 0) {
  FleetOp op;
  op.kind = kind;
  op.ordinal = ordinal;
  op.approach = approach;
  op.base = base;
  return op;
}

TEST(FleetSymbolicStateTest, ApproachDependentLineage) {
  FleetSymbolicState state;
  state.ApplySave(
      SaveOp(FleetOpKind::kSaveInitial, 0, ApproachType::kUpdate));
  state.ApplySave(
      SaveOp(FleetOpKind::kSaveDerived, 1, ApproachType::kUpdate, 0));
  state.ApplySave(
      SaveOp(FleetOpKind::kSaveDerived, 2, ApproachType::kMMlibBase, 0));
  state.ApplySave(
      SaveOp(FleetOpKind::kSaveDerived, 3, ApproachType::kBaseline, 0));

  // Update: a real delta chain — non-full, one deeper than the base.
  EXPECT_EQ(state.at(1).parent, 0);
  EXPECT_FALSE(state.at(1).is_full);
  EXPECT_EQ(state.at(1).depth, 1u);
  // MMlib-base: single-model management has no set derivation; every save
  // is an independent full snapshot with no recorded base link.
  EXPECT_EQ(state.at(2).parent, -1);
  EXPECT_TRUE(state.at(2).is_full);
  EXPECT_EQ(state.at(2).depth, 0u);
  // Baseline: full snapshot that still records lineage as history.
  EXPECT_EQ(state.at(3).parent, 0);
  EXPECT_TRUE(state.at(3).is_full);
  EXPECT_EQ(state.at(3).depth, 0u);
}

TEST(FleetSymbolicStateTest, PinProtectionFollowsRecordedLineage) {
  FleetSymbolicState state;
  state.ApplySave(
      SaveOp(FleetOpKind::kSaveInitial, 0, ApproachType::kUpdate));
  state.ApplySave(
      SaveOp(FleetOpKind::kSaveDerived, 1, ApproachType::kUpdate, 0));
  state.ApplySave(
      SaveOp(FleetOpKind::kSaveInitial, 2, ApproachType::kUpdate));

  state.Pin(1);
  EXPECT_EQ(state.PinProtected(), (std::vector<uint64_t>{0, 1}));
  state.Unpin(1);
  state.Pin(2);
  EXPECT_EQ(state.PinProtected(), (std::vector<uint64_t>{2}));
}

// ---------------------------------------------------------------------------
// Simulator determinism and the oracle-clean matrix.

// `exact_nanos`: the recover_modeled_nanos stream depends on which request
// warms the shared layer cache first, so it is only byte-comparable between
// single-worker runs (see FleetSimOptions::workers); otherwise just its
// length — one entry per served recovery — is invariant.
void ExpectReportsEqual(const FleetRunReport& a, const FleetRunReport& b,
                        bool exact_nanos = true) {
  EXPECT_EQ(a.ops_executed, b.ops_executed);
  EXPECT_EQ(a.ops_skipped, b.ops_skipped);
  EXPECT_EQ(a.saves, b.saves);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.retains, b.retains);
  EXPECT_EQ(a.compactions, b.compactions);
  EXPECT_EQ(a.crashes_injected, b.crashes_injected);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.shards_added, b.shards_added);
  EXPECT_EQ(a.rebalances, b.rebalances);
  EXPECT_EQ(a.live_sets_final, b.live_sets_final);
  if (exact_nanos) {
    EXPECT_EQ(a.recover_modeled_nanos, b.recover_modeled_nanos);
  } else {
    EXPECT_EQ(a.recover_modeled_nanos.size(), b.recover_modeled_nanos.size());
  }
  ASSERT_EQ(a.storage.size(), b.storage.size());
  for (size_t i = 0; i < a.storage.size(); ++i) {
    EXPECT_EQ(a.storage[i].step, b.storage[i].step);
    EXPECT_EQ(a.storage[i].live_sets, b.storage[i].live_sets);
    EXPECT_EQ(a.storage[i].artifact_bytes, b.storage[i].artifact_bytes);
    EXPECT_EQ(a.storage[i].full_artifact_bytes,
              b.storage[i].full_artifact_bytes);
    EXPECT_EQ(a.storage[i].full_sets, b.storage[i].full_sets);
  }
}

std::string ProblemsOf(const FleetRunReport& report) {
  std::string out;
  for (const FleetProblem& problem : report.problems) {
    out += problem.op + ": " + problem.detail + "\n";
  }
  return out;
}

TEST(FleetSimulatorTest, ReportsAreIdenticalAcrossRerunsAndWorkerCounts) {
  FleetPlanConfig config;
  config.seed = 5;
  config.steps = 60;
  config.checkpoint_interval = 20;
  FleetPlan plan = FleetPlan::Generate(config);

  FleetSimOptions one_worker;
  one_worker.workers = 1;
  FleetSimulator first(plan, one_worker);
  ASSERT_OK_AND_ASSIGN(FleetRunReport run_a, first.Run());
  ASSERT_TRUE(run_a.ok()) << ProblemsOf(run_a);
  EXPECT_GT(run_a.recoveries, 0u);

  // Same simulator, fresh world.
  ASSERT_OK_AND_ASSIGN(FleetRunReport run_b, first.Run());
  ExpectReportsEqual(run_a, run_b);

  // Fresh simulator at a different worker count: oracle verdicts and every
  // counter are unchanged across runs; only the modeled-nanos stream may
  // reorder cache warm-up between concurrent requests.
  FleetSimOptions four_workers;
  four_workers.workers = 4;
  FleetSimulator second(plan, four_workers);
  ASSERT_OK_AND_ASSIGN(FleetRunReport run_c, second.Run());
  ASSERT_TRUE(run_c.ok()) << ProblemsOf(run_c);
  ExpectReportsEqual(run_a, run_c, /*exact_nanos=*/false);
  ASSERT_OK_AND_ASSIGN(FleetRunReport run_d, second.Run());
  ExpectReportsEqual(run_c, run_d, /*exact_nanos=*/false);
}

TEST(FleetSimulatorTest, OracleCleanAcrossApproachesShardsAndLanes) {
  for (ApproachType type :
       {ApproachType::kMMlibBase, ApproachType::kBaseline,
        ApproachType::kUpdate, ApproachType::kProvenance}) {
    for (size_t shards : {size_t{0}, size_t{2}}) {
      for (size_t lanes : {size_t{1}, size_t{4}}) {
        FleetPlanConfig config;
        config.seed = 9;
        config.steps = 30;
        config.checkpoint_interval = 10;
        config.cluster_events = shards > 0;
        FleetPlan plan = FleetPlan::Generate(config).WithApproach(type);

        FleetSimOptions options;
        options.shards = shards;
        options.workers = 2;
        options.lanes = lanes;
        FleetSimulator simulator(std::move(plan), options);
        ASSERT_OK_AND_ASSIGN(FleetRunReport report, simulator.Run());
        EXPECT_TRUE(report.ok())
            << ApproachTypeName(type) << " shards=" << shards
            << " lanes=" << lanes << ":\n" << ProblemsOf(report);
      }
    }
  }
}

TEST(FleetSimulatorTest, CrashInjectionIsDeterministicAndOracleClean) {
  FleetPlanConfig config;
  config.seed = 6;
  config.steps = 60;
  config.checkpoint_interval = 20;
  FleetPlan plan = FleetPlan::Generate(config);

  FleetSimOptions options;
  options.inject_crashes = true;
  FleetSimulator first(plan, options);
  ASSERT_OK_AND_ASSIGN(FleetRunReport run_a, first.Run());
  ASSERT_TRUE(run_a.ok()) << ProblemsOf(run_a);
  // The armed crash points must actually fire for this test to mean
  // anything; the draw is deterministic, so this cannot flake.
  EXPECT_GT(run_a.crashes_injected, 0u);

  FleetSimulator second(plan, options);
  ASSERT_OK_AND_ASSIGN(FleetRunReport run_b, second.Run());
  ASSERT_TRUE(run_b.ok()) << ProblemsOf(run_b);
  ExpectReportsEqual(run_a, run_b);
}

// ---------------------------------------------------------------------------
// Content-addressed chunk store (src/cas/) under the fleet oracles.

// Small chunk parameters so the fleet's modest blobs split into many chunks
// and the refcount oracle has real sharing to check.
CasOptions FleetCasOptions() {
  CasOptions cas;
  cas.enabled = true;
  cas.min_chunk_bytes = 256;
  cas.avg_chunk_bytes = 1024;
  cas.max_chunk_bytes = 4096;
  cas.min_blob_bytes = 512;
  return cas;
}

TEST(FleetSimulatorTest, CasChunkOracleCleanOnLifecycleMix) {
  FleetPlanConfig config;
  config.seed = 11;
  config.steps = 60;
  config.checkpoint_interval = 20;
  FleetPlan plan = FleetPlan::Generate(config);

  FleetSimOptions options;
  options.cas = FleetCasOptions();
  // Recoveries flow through the multi-worker service, so every set is
  // bit-verified against the content engine with CAS reassembly under
  // concurrent readers.
  options.workers = 4;
  FleetSimulator simulator(plan, options);
  ASSERT_OK_AND_ASSIGN(FleetRunReport report, simulator.Run());
  ASSERT_TRUE(report.ok()) << ProblemsOf(report);
  // The plan must actually exercise the GC paths the oracle guards.
  EXPECT_GT(report.saves, 0u);
  EXPECT_GT(report.deletes + report.retains, 0u);

  // Equal configs replay to equal reports with CAS on, too (modeled nanos
  // are only byte-stable at workers = 1; see FleetSimOptions::workers).
  FleetSimulator again(plan, options);
  ASSERT_OK_AND_ASSIGN(FleetRunReport rerun, again.Run());
  ExpectReportsEqual(report, rerun, /*exact_nanos=*/false);
}

TEST(FleetSimulatorTest, CasChunkOracleSurvivesCrashInjection) {
  FleetPlanConfig config;
  config.seed = 12;
  config.steps = 60;
  config.checkpoint_interval = 20;
  FleetPlan plan = FleetPlan::Generate(config);

  FleetSimOptions options;
  options.cas = FleetCasOptions();
  options.inject_crashes = true;
  FleetSimulator simulator(plan, options);
  ASSERT_OK_AND_ASSIGN(FleetRunReport report, simulator.Run());
  ASSERT_TRUE(report.ok()) << ProblemsOf(report);
  EXPECT_GT(report.crashes_injected, 0u);
  // GC repacked packs between the crashes, under the same oracles.
  EXPECT_GT(report.packs_repacked, 0u);
}

TEST(FleetSimulatorTest, CasShardedClusterStaysFsckClean) {
  FleetPlanConfig config;
  config.seed = 13;
  config.steps = 40;
  config.checkpoint_interval = 10;
  config.cluster_events = true;
  FleetPlan plan = FleetPlan::Generate(config);

  FleetSimOptions options;
  options.shards = 2;
  options.cas = FleetCasOptions();
  FleetSimulator simulator(std::move(plan), options);
  ASSERT_OK_AND_ASSIGN(FleetRunReport report, simulator.Run());
  ASSERT_TRUE(report.ok()) << ProblemsOf(report);
}

// ---------------------------------------------------------------------------
// Minimizer.

TEST(FleetMinimizeTest, SyntheticFaultOnRootSaveConvergesToOneOp) {
  FleetPlanConfig config;
  config.seed = 4;
  config.steps = 50;
  FleetPlan plan = FleetPlan::Generate(config);

  FleetSimOptions options;
  options.synthetic_fault = [](const FleetOp& op, size_t) -> std::string {
    return op.kind == FleetOpKind::kSaveInitial && op.ordinal == 0
               ? "synthetic fault"
               : "";
  };
  FleetSimulator simulator(plan, options);
  ASSERT_OK_AND_ASSIGN(FleetRunReport full, simulator.Run());
  ASSERT_FALSE(full.ok());

  ASSERT_OK_AND_ASSIGN(FleetMinimizeResult minimized,
                       MinimizeFailingTrace(&simulator, plan.ops));
  EXPECT_TRUE(minimized.minimal);
  ASSERT_EQ(minimized.ops.size(), 1u);
  EXPECT_EQ(minimized.ops[0].kind, FleetOpKind::kSaveInitial);
  EXPECT_EQ(minimized.ops[0].ordinal, 0u);
  ASSERT_FALSE(minimized.report.ok());
  EXPECT_EQ(minimized.report.problems[0].detail, "synthetic: synthetic fault");

  // Reproducibility: minimizing the same trace again lands on the same
  // subsequence after the same number of replays.
  ASSERT_OK_AND_ASSIGN(FleetMinimizeResult again,
                       MinimizeFailingTrace(&simulator, plan.ops));
  EXPECT_EQ(minimized.steps, again.steps);
  EXPECT_EQ(minimized.runs, again.runs);

  // Repro artifact: self-contained JSON naming the seed and the trace.
  std::string repro = RenderRepro(plan, options, minimized);
  EXPECT_NE(repro.find("\"seed\": 4"), std::string::npos);
  EXPECT_NE(repro.find("save-initial o=0"), std::string::npos);
  EXPECT_NE(repro.find("\"minimal\": true"), std::string::npos);
}

TEST(FleetMinimizeTest, FaultOnDerivedSaveKeepsExactlyItsSaveChain) {
  FleetPlanConfig config;
  config.seed = 8;
  config.steps = 80;
  FleetPlan plan = FleetPlan::Generate(config);

  // Fault on the deepest derived save: its op only executes (and thus only
  // trips the fault) when its whole ancestry of saves ran first, so ddmin
  // must converge to exactly the save-dependency chain of that ordinal.
  std::map<uint64_t, uint64_t> parent;
  uint64_t target = 0;
  bool found = false;
  for (const FleetOp& op : plan.ops) {
    if (op.kind == FleetOpKind::kSaveDerived) {
      parent[op.ordinal] = op.base;
      target = op.ordinal;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "plan has no derived saves; enlarge steps";

  std::set<uint64_t> chain;
  for (uint64_t o = target;; o = parent[o]) {
    chain.insert(o);
    if (parent.find(o) == parent.end()) break;
  }

  FleetSimOptions options;
  const uint64_t fault_ordinal = target;
  options.synthetic_fault = [fault_ordinal](const FleetOp& op,
                                            size_t) -> std::string {
    return op.kind == FleetOpKind::kSaveDerived && op.ordinal == fault_ordinal
               ? "synthetic fault"
               : "";
  };
  FleetSimulator simulator(plan, options);
  ASSERT_OK_AND_ASSIGN(FleetRunReport full, simulator.Run());
  ASSERT_FALSE(full.ok());

  ASSERT_OK_AND_ASSIGN(FleetMinimizeResult minimized,
                       MinimizeFailingTrace(&simulator, plan.ops));
  EXPECT_TRUE(minimized.minimal);
  EXPECT_LE(minimized.ops.size(), 20u);
  std::set<uint64_t> kept;
  for (const FleetOp& op : minimized.ops) {
    ASSERT_TRUE(op.kind == FleetOpKind::kSaveInitial ||
                op.kind == FleetOpKind::kSaveDerived)
        << op.Render();
    kept.insert(op.ordinal);
  }
  EXPECT_EQ(kept, chain);
}

// ---------------------------------------------------------------------------
// Differential cross-approach replay.

void ExpectSetsEqual(const ModelSet& a, const ModelSet& b,
                     const std::string& context) {
  ASSERT_EQ(a.models.size(), b.models.size()) << context;
  for (size_t m = 0; m < a.models.size(); ++m) {
    ASSERT_EQ(a.models[m].size(), b.models[m].size()) << context;
    for (size_t p = 0; p < a.models[m].size(); ++p) {
      EXPECT_EQ(a.models[m][p].first, b.models[m][p].first) << context;
      EXPECT_TRUE(a.models[m][p].second.Equals(b.models[m][p].second))
          << context << ": model " << m << " param " << a.models[m][p].first;
    }
  }
}

TEST(FleetDifferentialTest, AllApproachesAgreeOnCommonLiveContents) {
  FleetPlanConfig config;
  config.seed = 12;
  config.steps = 40;
  config.checkpoint_interval = 20;
  FleetPlan base_plan = FleetPlan::Generate(config);

  const std::vector<ApproachType> approaches{
      ApproachType::kMMlibBase, ApproachType::kBaseline,
      ApproachType::kUpdate, ApproachType::kProvenance};
  std::vector<std::unique_ptr<FleetSimulator>> simulators;
  std::vector<std::vector<uint64_t>> live_per_approach;
  for (ApproachType type : approaches) {
    auto simulator = std::make_unique<FleetSimulator>(
        base_plan.WithApproach(type), FleetSimOptions{});
    ASSERT_OK_AND_ASSIGN(FleetRunReport report, simulator->Run());
    ASSERT_TRUE(report.ok())
        << ApproachTypeName(type) << ":\n" << ProblemsOf(report);
    live_per_approach.push_back(simulator->LiveOrdinals());
    simulators.push_back(std::move(simulator));
  }

  // Delete/retain closures legitimately differ per approach (full
  // snapshots are not cascade dependents; MMlib-base records no lineage),
  // so compare the ordinals every approach kept alive.
  std::set<uint64_t> common(live_per_approach[0].begin(),
                            live_per_approach[0].end());
  for (size_t i = 1; i < live_per_approach.size(); ++i) {
    std::set<uint64_t> live(live_per_approach[i].begin(),
                            live_per_approach[i].end());
    std::set<uint64_t> next;
    std::set_intersection(common.begin(), common.end(), live.begin(),
                          live.end(), std::inserter(next, next.begin()));
    common.swap(next);
  }
  ASSERT_FALSE(common.empty());

  size_t compared = 0;
  for (uint64_t ordinal : common) {
    if (++compared > 4) break;  // bit-exact compares are expensive
    ASSERT_OK_AND_ASSIGN(ModelSet reference,
                         simulators[0]->RecoverOrdinal(ordinal));
    for (size_t i = 1; i < simulators.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(ModelSet other,
                           simulators[i]->RecoverOrdinal(ordinal));
      ExpectSetsEqual(reference, other,
                      "ordinal " + std::to_string(ordinal) + " via " +
                          ApproachTypeName(approaches[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Regressions for the product bugs the simulator surfaced.

// The serving layer's pin guard walks each pinned set's recorded lineage.
// It must stop at a pruned link (a full snapshot whose recorded base was
// legally deleted) instead of failing the whole delete with NotFound.
TEST(FleetRegressionTest, PinGuardSurvivesPrunedLineage) {
  FleetContentEngine::Config engine_config;
  engine_config.seed = 31;
  FleetContentEngine engine(engine_config);
  TempDir temp("fleet-pin");
  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.resolver = &engine;
  options.profile = SetupProfile::Server();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ModelSetManager> manager,
                       ModelSetManager::Open(options));

  ASSERT_OK_AND_ASSIGN(const ModelSet* root_set, engine.InitialSet(0));
  ASSERT_OK_AND_ASSIGN(
      SaveResult root, manager->SaveInitial(ApproachType::kUpdate, *root_set));
  ASSERT_OK_AND_ASSIGN(const ModelSet* derived_set, engine.DerivedSet(1, 0));
  ModelSetUpdateInfo update = engine.UpdateFor(1, 0);
  update.base_set_id = root.set_id;
  ASSERT_OK_AND_ASSIGN(
      SaveResult derived,
      manager->SaveDerived(ApproachType::kUpdate, *derived_set, update));
  ASSERT_OK_AND_ASSIGN(const ModelSet* other_set, engine.InitialSet(2));
  ASSERT_OK_AND_ASSIGN(
      SaveResult other,
      manager->SaveInitial(ApproachType::kUpdate, *other_set));

  ModelSetService service(manager.get(), {});
  // Flatten the chain: the derived set becomes a full snapshot whose
  // document keeps base_set_id as history only.
  CompactionPolicy flatten;
  flatten.max_chain_depth = 0;
  ASSERT_OK_AND_ASSIGN(CompactionReport compacted,
                       service.CompactChains(flatten));
  ASSERT_EQ(compacted.rebased_set_ids,
            std::vector<std::string>{derived.set_id});
  // Deleting the root is legal (full snapshots are not dependents) and
  // leaves the derived set's base link dangling.
  ASSERT_OK(service.DeleteSet(root.set_id).status());

  ASSERT_OK(service.PinSet(derived.set_id));
  ASSERT_OK_AND_ASSIGN(bool protects_pinned,
                       service.PinProtects(derived.set_id));
  EXPECT_TRUE(protects_pinned);
  ASSERT_OK_AND_ASSIGN(bool protects_other, service.PinProtects(other.set_id));
  EXPECT_FALSE(protects_other);

  // Regression: this delete used to fail with NotFound because the guard
  // resolved the pinned set's full lineage instead of walking until the
  // first pruned link.
  ASSERT_OK_AND_ASSIGN(DeleteReport deleted, service.DeleteSet(other.set_id));
  EXPECT_EQ(deleted.deleted_set_ids, std::vector<std::string>{other.set_id});
  // The pinned set itself stays protected.
  Result<DeleteReport> refused = service.DeleteSet(derived.set_id);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
}

struct ClusterInventory {
  // set id -> (shard name, recorded base link)
  std::map<std::string, std::pair<std::string, std::string>> sets;
  // set id -> number of shards holding a copy (must always be 1)
  std::map<std::string, size_t> copies;
};

ClusterInventory InventoryOf(Coordinator* cluster) {
  ClusterInventory inventory;
  for (const std::string& name : cluster->ShardNames()) {
    Shard* shard = cluster->shard(name);
    auto sets = shard->manager()->ListSets();
    sets.status().Check();
    for (const SetSummary& set : sets.ValueOrDie()) {
      inventory.sets[set.id] = {name, set.base_set_id};
      ++inventory.copies[set.id];
    }
  }
  return inventory;
}

class FleetClusterRegressionTest : public ::testing::Test {
 protected:
  void Open(size_t shard_count, uint64_t seed) {
    engine_config_.seed = seed;
    engine_ = std::make_unique<FleetContentEngine>(engine_config_);
    ClusterOptions options;
    options.root_dir = "/cluster";
    options.env = &env_;
    options.shard_count = shard_count;
    options.resolver = engine_.get();
    options.profile = SetupProfile::Server();
    ASSERT_OK_AND_ASSIGN(cluster_, Coordinator::Open(std::move(options)));
  }

  // One update-approach family: an initial save plus `depth` chained
  // derived saves. Returns the ids root-first.
  std::vector<std::string> SaveFamily(size_t depth) {
    std::vector<std::string> ids;
    uint64_t root = next_ordinal_++;
    auto root_set = engine_->InitialSet(root);
    root_set.status().Check();
    auto saved =
        cluster_->SaveInitial(ApproachType::kUpdate, *root_set.ValueOrDie());
    saved.status().Check();
    ids.push_back(saved.ValueOrDie().set_id);
    uint64_t parent = root;
    for (size_t d = 0; d < depth; ++d) {
      uint64_t child = next_ordinal_++;
      auto child_set = engine_->DerivedSet(child, parent);
      child_set.status().Check();
      ModelSetUpdateInfo update = engine_->UpdateFor(child, parent);
      update.base_set_id = ids.back();
      auto derived = cluster_->SaveDerived(ApproachType::kUpdate,
                                           *child_set.ValueOrDie(), update);
      derived.status().Check();
      ids.push_back(derived.ValueOrDie().set_id);
      parent = child;
    }
    return ids;
  }

  FleetContentEngine::Config engine_config_;
  std::unique_ptr<FleetContentEngine> engine_;
  InMemoryEnv env_;
  std::unique_ptr<Coordinator> cluster_;
  uint64_t next_ordinal_ = 0;
};

// Rebalance moves a full snapshot by re-saving it on the target shard; the
// fresh save must not erase the recorded base link (regression: moved sets
// lost their history), and RetainOnly must follow those links across shard
// boundaries (regression: the keep closure was computed per shard, so an
// ancestor on another shard was swept away).
TEST_F(FleetClusterRegressionTest, RebalanceKeepsLineageAndRetainFollowsIt) {
  Open(/*shard_count=*/2, /*seed=*/32);
  std::map<std::string, std::string> base_of;
  std::vector<std::string> tips;
  for (int family = 0; family < 6; ++family) {
    std::vector<std::string> ids = SaveFamily(/*depth=*/1);
    base_of[ids[1]] = ids[0];
    tips.push_back(ids[1]);
  }

  ASSERT_OK(cluster_->AddShard("grown-0"));
  ASSERT_OK_AND_ASSIGN(RebalanceReport rebalanced, cluster_->Rebalance());
  ASSERT_GT(rebalanced.sets_moved, 0u);

  ClusterInventory inventory = InventoryOf(cluster_.get());
  std::string cross_tip, cross_base;
  for (const std::string& tip : tips) {
    ASSERT_TRUE(inventory.sets.count(tip));
    // Regression: every derived set still records its base after moving.
    EXPECT_EQ(inventory.sets[tip].second, base_of[tip]) << tip;
    if (inventory.sets[tip].first != inventory.sets[base_of[tip]].first) {
      cross_tip = tip;
      cross_base = base_of[tip];
    }
  }
  // The ring split at least one family across shards (deterministic for
  // this seed; the assertion guards the test's own premise).
  ASSERT_FALSE(cross_tip.empty());

  ASSERT_OK(cluster_->RetainOnly({cross_tip}).status());
  ClusterInventory after = InventoryOf(cluster_.get());
  EXPECT_TRUE(after.sets.count(cross_tip));
  // Regression: the base lives on a different shard than every kept id and
  // must survive via the cluster-wide lineage closure.
  EXPECT_TRUE(after.sets.count(cross_base))
      << cross_base << " swept despite being " << cross_tip << "'s base";
}

// A move whose delete leg would be refused by the source's pin guard must
// be skipped before the copy: completing the copy first stranded a
// permanent duplicate placement that every later Fsck flagged.
TEST_F(FleetClusterRegressionTest, PinnedRebalanceLeavesNoDuplicates) {
  Open(/*shard_count=*/2, /*seed=*/33);
  std::vector<std::string> tips;
  for (int family = 0; family < 4; ++family) {
    tips.push_back(SaveFamily(/*depth=*/2).back());
  }
  for (const std::string& tip : tips) {
    ASSERT_OK(cluster_->PinSet(tip));
  }

  ASSERT_OK(cluster_->AddShard("grown-0"));
  ASSERT_OK_AND_ASSIGN(RebalanceReport rebalanced, cluster_->Rebalance());
  // With every tip pinned, some move must have been refused up front.
  ASSERT_FALSE(rebalanced.skipped.empty());
  for (const std::string& skipped : rebalanced.skipped) {
    EXPECT_NE(skipped.find("pin-protected"), std::string::npos) << skipped;
  }

  ClusterInventory inventory = InventoryOf(cluster_.get());
  for (const auto& [id, copies] : inventory.copies) {
    EXPECT_EQ(copies, 1u) << id << " placed on " << copies << " shards";
  }
  ASSERT_OK_AND_ASSIGN(ClusterFsckReport fsck, cluster_->Fsck());
  std::string problems;
  for (const std::string& problem : fsck.problems) problems += problem + "\n";
  EXPECT_TRUE(fsck.clean()) << problems;
}

}  // namespace
}  // namespace mmm
