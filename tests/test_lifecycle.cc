#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/adaptive.h"
#include "core/gc.h"
#include "nn/metrics.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

// End-to-end lifecycle: commission a fleet (streamed), run update cycles
// under every approach, retire old versions, compact, reopen, and analyse a
// single cell — the full deployment story of the paper plus this
// repository's extensions, in one test.
TEST(LifecycleTest, FullDeploymentStory) {
  TempDir temp("lifecycle");
  ScenarioConfig config = ScenarioConfig::Battery(24);
  config.samples_per_dataset = 48;
  MultiModelScenario scenario(config);
  ASSERT_OK(scenario.Init());

  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.resolver = &scenario;
  ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(options));

  // --- Commissioning: stream the initial fleet into a baseline snapshot.
  ASSERT_OK_AND_ASSIGN(
      SaveResult commissioned,
      manager->SaveInitial(ApproachType::kBaseline, scenario.current_set()));

  // --- Deployment: three update cycles archived with the Update approach,
  // seeded from the streamed snapshot's models.
  ASSERT_OK_AND_ASSIGN(ModelSet seeded, manager->Recover(commissioned.set_id));
  ASSERT_OK_AND_ASSIGN(SaveResult u1,
                       manager->SaveInitial(ApproachType::kUpdate, seeded));
  std::vector<std::string> versions{u1.set_id};
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
    update.base_set_id = versions.back();
    ASSERT_OK_AND_ASSIGN(
        SaveResult saved,
        manager->SaveDerived(ApproachType::kUpdate, scenario.current_set(),
                             update));
    versions.push_back(saved.set_id);
  }

  // --- Incident analysis: selectively recover one cell's history.
  size_t cell = 11;
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> now,
                       manager->RecoverModels(versions.back(), {cell}));
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> commissioned_state,
                       manager->RecoverModels(commissioned.set_id, {cell}));
  ASSERT_EQ(now.size(), 1u);
  ASSERT_EQ(commissioned_state.size(), 1u);
  EXPECT_TRUE(commissioned_state[0][0].second.Equals(seeded.models[cell][0].second));
  EXPECT_TRUE(
      now[0][0].second.Equals(scenario.current_set().models[cell][0].second));

  // The current model genuinely beats the commissioned one on fresh data
  // when the cell was updated at least once; both must at least be finite.
  BatteryDataGenerator generator({config.seed, 128, 0.004, 1.0, 25.0});
  TrainingData fresh = generator.GenerateCellDataset(cell, 3, 0.97);
  Model current_model = Model::Create(config.spec).ValueOrDie();
  ASSERT_OK(current_model.LoadStateDict(now[0]));
  ASSERT_OK_AND_ASSIGN(double rmse,
                       Rmse(current_model.Predict(fresh.inputs), fresh.targets));
  EXPECT_LT(rmse, 10.0);

  // --- Retention: keep only the newest chain, drop the streamed snapshot.
  ASSERT_OK_AND_ASSIGN(DeleteReport gc,
                       RetainOnly(manager->context(), {versions.back()}));
  EXPECT_EQ(gc.sets_deleted, 1u);  // the commissioned snapshot
  ASSERT_OK_AND_ASSIGN(uint64_t wal_before,
                       manager->doc_store()->WalBytes());
  ASSERT_OK(manager->CompactStore());
  ASSERT_OK_AND_ASSIGN(uint64_t wal_after, manager->doc_store()->WalBytes());
  EXPECT_LT(wal_after, wal_before);

  // --- The store survives a reopen with full integrity.
  ASSERT_OK_AND_ASSIGN(auto reopened, ModelSetManager::Open(options));
  ASSERT_OK_AND_ASSIGN(StoreValidationReport health, reopened->ValidateStore());
  EXPECT_TRUE(health.ok()) << (health.problems.empty()
                                   ? ""
                                   : health.problems.front());
  ASSERT_OK_AND_ASSIGN(ModelSet final_state,
                       reopened->Recover(versions.back()));
  for (size_t m = 0; m < final_state.models.size(); ++m) {
    for (size_t p = 0; p < final_state.models[m].size(); ++p) {
      ASSERT_TRUE(final_state.models[m][p].second.Equals(
          scenario.current_set().models[m][p].second));
    }
  }
  EXPECT_TRUE(reopened->Recover(commissioned.set_id).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Property test: random interleavings of save / derive / delete / retain /
// compact against a fault-injected store. Saves are randomly crashed
// mid-commit; after every crash the store is reopened (replaying the commit
// journal) and must be fsck-clean with every surviving set bit-exact. GC and
// compaction are not journaled and always run healed.

namespace {

struct TrackedSet {
  std::string id;
  uint64_t cycle;  ///< scenario cycle whose state the set captured
  ModelSet state;
};

class LifecycleProperty {
 public:
  explicit LifecycleProperty(uint64_t seed) : rng_(seed), fault_(&base_) {}

  void Run(size_t steps) {
    ScenarioConfig config = ScenarioConfig::Battery(3);
    config.full_update_fraction = 0.5;
    config.partial_update_fraction = 0.34;
    config.samples_per_dataset = 32;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    ASSERT_OK(scenario_->Init());
    Reopen();
    for (size_t step = 0; step < steps && !::testing::Test::HasFatalFailure();
         ++step) {
      switch (rng_.NextBounded(8)) {
        case 0:
        case 1:
          StepInitialSave();
          break;
        case 2:
        case 3:
        case 4:
          StepDerivedSave();
          break;
        case 5:
          StepDeleteTip();
          break;
        case 6:
          StepRetainOne();
          break;
        case 7:
          ASSERT_OK(manager_->CompactStore());
          break;
      }
    }
    // Final audit: reopen once more and check every tracked set. The run is
    // only meaningful if the fault injection actually crashed some saves.
    Reopen();
    CheckStoreClean("final audit");
    CheckTrackedSetsRecover("final audit");
    EXPECT_GT(crashes_, 0u) << "no save ever crashed; sweep was vacuous";
  }

 private:
  ApproachType RandomApproach() {
    return kAllApproaches[rng_.NextBounded(4)];
  }

  void Reopen() {
    manager_.reset();
    ModelSetManager::Options options;
    options.root_dir = "/store";
    options.env = &fault_;
    options.resolver = scenario_.get();
    ASSERT_OK_AND_ASSIGN(manager_, ModelSetManager::Open(options));
  }

  void CheckStoreClean(const std::string& label) {
    const RepairReport& repair = manager_->repair_report();
    EXPECT_TRUE(repair.clean())
        << label << ": "
        << (repair.problems.empty() ? "" : repair.problems.front());
    ASSERT_OK_AND_ASSIGN(StoreValidationReport health,
                         manager_->ValidateStore());
    EXPECT_TRUE(health.ok())
        << label << ": "
        << (health.problems.empty() ? "" : health.problems.front());
    ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                         FindOrphanBlobs(manager_->context()));
    EXPECT_TRUE(orphans.clean())
        << label << ": orphan blob "
        << (orphans.clean() ? "" : orphans.orphan_blobs.front());
  }

  void CheckTrackedSetsRecover(const std::string& label) {
    for (const auto& [type, chain] : chains_) {
      for (const TrackedSet& tracked : chain) {
        ASSERT_OK_AND_ASSIGN(ModelSet recovered,
                             manager_->Recover(tracked.id));
        ASSERT_EQ(recovered.models.size(), tracked.state.models.size());
        for (size_t m = 0; m < recovered.models.size(); ++m) {
          for (size_t p = 0; p < recovered.models[m].size(); ++p) {
            ASSERT_TRUE(recovered.models[m][p].second.Equals(
                tracked.state.models[m][p].second))
                << label << ": set " << tracked.id << " model " << m;
          }
        }
      }
    }
  }

  /// Runs `save` with a fault armed about half of the time. A crashed save
  /// triggers reopen + full store audit; a completed save is tracked.
  void SaveStep(ApproachType type,
                const std::function<Result<SaveResult>()>& save) {
    bool inject = rng_.NextBounded(2) == 0;
    if (inject) {
      // The offset may exceed the save's write count, in which case the save
      // legitimately completes — both outcomes are valid.
      fault_.FailWritesAfter(fault_.write_count() + rng_.NextBounded(15));
    }
    Result<SaveResult> saved = save();
    fault_.Heal();
    if (saved.ok()) {
      chains_[type].push_back(
          {saved.ValueOrDie().set_id, scenario_->cycle(),
           scenario_->current_set()});
      return;
    }
    // The save crashed mid-commit: reopen, replay, audit.
    ASSERT_TRUE(inject) << saved.status().ToString();
    ++crashes_;
    Reopen();
    CheckStoreClean("after crashed save");
    CheckTrackedSetsRecover("after crashed save");
  }

  void StepInitialSave() {
    ApproachType type = RandomApproach();
    SaveStep(type, [&] {
      return manager_->SaveInitial(type, scenario_->current_set());
    });
  }

  void StepDerivedSave() {
    ApproachType type = RandomApproach();
    if (chains_[type].empty()) return;
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    const TrackedSet& tip = chains_[type].back();
    // A provenance record replays one cycle's training on top of its base,
    // so it is only correct when the base captured the directly preceding
    // cycle. Diff- and snapshot-style approaches tolerate stale bases.
    if (type == ApproachType::kProvenance &&
        tip.cycle + 1 != scenario_->cycle()) {
      type = ApproachType::kUpdate;
      if (chains_[type].empty()) return;
    }
    update.base_set_id = chains_[type].back().id;
    SaveStep(type, [&] {
      return manager_->SaveDerived(type, scenario_->current_set(), update);
    });
  }

  void StepDeleteTip() {
    ApproachType type = RandomApproach();
    if (chains_[type].empty()) return;
    // Cascade: a crashed-but-committed (hence untracked) save may have been
    // derived from this tip; tracked sets are never anyone's dependents
    // except the tip's own descendants, which a chain does not have.
    DeleteOptions options;
    options.cascade = true;
    ASSERT_OK(DeleteSet(manager_->context(), chains_[type].back().id, options)
                  .status());
    chains_[type].pop_back();
  }

  void StepRetainOne() {
    std::vector<ApproachType> with_chains;
    for (const auto& [type, chain] : chains_) {
      if (!chain.empty()) with_chains.push_back(type);
    }
    if (with_chains.empty()) return;
    ApproachType keep = with_chains[rng_.NextBounded(with_chains.size())];
    TrackedSet tip = chains_[keep].back();
    ASSERT_OK(RetainOnly(manager_->context(), {tip.id}).status());
    // Survivors are the kept tip's lineage closure. MMlib-base saves record
    // no lineage (each is standalone), so only the tip itself survives; the
    // other approaches' chains link via base_set_id and survive whole.
    for (ApproachType type : with_chains) {
      if (type != keep) chains_[type].clear();
    }
    if (keep == ApproachType::kMMlibBase) chains_[keep] = {std::move(tip)};
  }

  Rng rng_;
  InMemoryEnv base_;
  FaultInjectionEnv fault_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
  std::map<ApproachType, std::vector<TrackedSet>> chains_;
  size_t crashes_ = 0;
};

}  // namespace

TEST(LifecyclePropertyTest, RandomInterleavingsStayFsckClean) {
  for (uint64_t seed : {11u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LifecycleProperty property(seed);
    property.Run(24);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mmm
