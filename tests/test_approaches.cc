#include <gtest/gtest.h>

#include "core/manager.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

// Shared fixture: a small battery scenario advanced through two update
// cycles, managed by every approach.
class ApproachTest : public ::testing::Test {
 protected:
  ApproachTest() : temp_("approach") {}

  void OpenManager(ScenarioConfig scenario_config = ScenarioConfig::Battery(40),
                   UpdateApproachOptions update_options = {},
                   ProvenanceRecoverOptions prov_options = {}) {
    scenario_config.samples_per_dataset = 64;
    scenario_ = std::make_unique<MultiModelScenario>(scenario_config);
    ASSERT_OK(scenario_->Init());
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    options.update_options = update_options;
    options.provenance_recover_options = prov_options;
    ASSERT_OK_AND_ASSIGN(manager_, ModelSetManager::Open(options));
  }

  // Saves the current scenario state with `type`, deriving from the
  // approach's chain head when one exists.
  SaveResult Save(ApproachType type, const ModelSetUpdateInfo* update) {
    Result<SaveResult> saved =
        update == nullptr
            ? manager_->SaveInitial(type, scenario_->current_set())
            : [&] {
                ModelSetUpdateInfo derived = *update;
                derived.base_set_id = heads_[type];
                return manager_->SaveDerived(type, scenario_->current_set(),
                                             derived);
              }();
    saved.status().Check();
    heads_[type] = saved.ValueOrDie().set_id;
    return saved.ValueOrDie();
  }

  void ExpectSetEquals(const ModelSet& recovered, const ModelSet& expected) {
    ASSERT_EQ(recovered.models.size(), expected.models.size());
    ASSERT_EQ(recovered.spec, expected.spec);
    for (size_t m = 0; m < recovered.models.size(); ++m) {
      ASSERT_EQ(recovered.models[m].size(), expected.models[m].size());
      for (size_t p = 0; p < recovered.models[m].size(); ++p) {
        ASSERT_EQ(recovered.models[m][p].first, expected.models[m][p].first);
        ASSERT_TRUE(
            recovered.models[m][p].second.Equals(expected.models[m][p].second))
            << "model " << m << " param " << recovered.models[m][p].first;
      }
    }
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
  std::map<ApproachType, std::string> heads_;
};

// ---------------------------------------------------------------------------
// Round trips, parameterized over all approaches.

class ApproachSweep : public ApproachTest,
                      public ::testing::WithParamInterface<ApproachType> {};

TEST_P(ApproachSweep, InitialSaveRecoverRoundTrip) {
  OpenManager();
  Save(GetParam(), nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSet recovered,
                       manager_->Recover(heads_[GetParam()]));
  ExpectSetEquals(recovered, scenario_->current_set());
}

TEST_P(ApproachSweep, DerivedSaveRecoverRoundTrip) {
  OpenManager();
  Save(GetParam(), nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  Save(GetParam(), &update);
  ASSERT_OK_AND_ASSIGN(ModelSet recovered,
                       manager_->Recover(heads_[GetParam()]));
  ExpectSetEquals(recovered, scenario_->current_set());
}

TEST_P(ApproachSweep, ThreeCycleChainRecovers) {
  OpenManager();
  Save(GetParam(), nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    Save(GetParam(), &update);
  }
  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(ModelSet recovered,
                       manager_->Recover(heads_[GetParam()], &stats));
  ExpectSetEquals(recovered, scenario_->current_set());
  bool recursive = GetParam() == ApproachType::kUpdate ||
                   GetParam() == ApproachType::kProvenance;
  EXPECT_EQ(stats.sets_recovered, recursive ? 4u : 1u);
}

TEST_P(ApproachSweep, IntermediateSetsRemainRecoverable) {
  OpenManager();
  Save(GetParam(), nullptr);
  std::string u1_id = heads_[GetParam()];
  ModelSet u1_state = scenario_->current_set();  // deep copy
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  Save(GetParam(), &update);
  // Saving U3-1 must not disturb U1's recoverability.
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager_->Recover(u1_id));
  ExpectSetEquals(recovered, u1_state);
}

TEST_P(ApproachSweep, RecoverUnknownIdFails) {
  OpenManager();
  Save(GetParam(), nullptr);
  EXPECT_TRUE(manager_->Recover("set-999999-deadbeef").status().IsNotFound());
}

TEST_P(ApproachSweep, WrongApproachRejectsForeignSet) {
  OpenManager();
  Save(GetParam(), nullptr);
  for (ApproachType other : kAllApproaches) {
    if (other == GetParam()) continue;
    EXPECT_TRUE(manager_->approach(other)
                    ->Recover(heads_[GetParam()])
                    .status()
                    .IsInvalidArgument());
  }
}

INSTANTIATE_TEST_SUITE_P(AllApproaches, ApproachSweep,
                         ::testing::Values(ApproachType::kMMlibBase,
                                           ApproachType::kBaseline,
                                           ApproachType::kUpdate,
                                           ApproachType::kProvenance),
                         [](const auto& info) {
                           std::string name = ApproachTypeName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------------
// Storage characteristics (paper §4.2 in miniature).

TEST_F(ApproachTest, BaselineUsesFewerBytesAndWritesThanMMlib) {
  OpenManager();
  SaveResult mmlib = Save(ApproachType::kMMlibBase, nullptr);
  SaveResult baseline = Save(ApproachType::kBaseline, nullptr);
  EXPECT_LT(baseline.bytes_written, mmlib.bytes_written);
  EXPECT_LT(baseline.file_store_writes, mmlib.file_store_writes);
  EXPECT_LE(baseline.file_store_writes, 2u);
  EXPECT_EQ(baseline.doc_store_writes, 1u);
  // MMlib-base writes per model: weights + code files, metadata doc.
  EXPECT_EQ(mmlib.file_store_writes, 2u * 40);
  EXPECT_EQ(mmlib.doc_store_writes, 40u + 1);
}

TEST_F(ApproachTest, UpdateDeltaIsMuchSmallerThanFullSnapshot) {
  OpenManager();
  SaveResult initial = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  SaveResult delta = Save(ApproachType::kUpdate, &update);
  EXPECT_LT(delta.bytes_written, initial.bytes_written / 2);
}

TEST_F(ApproachTest, ProvenanceDerivedSaveIsTiny) {
  OpenManager();
  SaveResult initial = Save(ApproachType::kProvenance, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  SaveResult derived = Save(ApproachType::kProvenance, &update);
  EXPECT_LT(derived.bytes_written, initial.bytes_written / 20);
}

TEST_F(ApproachTest, UpdateDiffContainsExactlyChangedTensors) {
  // 40 models, 5% full (2 models -> 8 tensors) + 5% partial (2 models,
  // fc3+fc4 -> 4 tensors each): 16 changed tensors total.
  OpenManager();
  Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  size_t full_models = 0, partial_models = 0;
  for (UpdateKind kind : update.kinds) {
    full_models += kind == UpdateKind::kFull;
    partial_models += kind == UpdateKind::kPartial;
  }
  EXPECT_EQ(full_models, 2u);
  EXPECT_EQ(partial_models, 2u);
  SaveResult delta = Save(ApproachType::kUpdate, &update);
  // Expected payload: 2 full models (4993 floats) + 2 partial models
  // (fc3: 48x48+48, fc4: 48+1 = 2401 floats) + hash table + diff list + doc.
  uint64_t expected_floats = 2 * 4993 + 2 * 2401;
  uint64_t hash_bytes = 40 * 8 * 32;
  EXPECT_NEAR(static_cast<double>(delta.bytes_written),
              static_cast<double>(expected_floats * 4 + hash_bytes),
              2500.0);  // diff list, metadata doc, blob headers
}

TEST_F(ApproachTest, UpdateWithNoChangesProducesEmptyDiff) {
  OpenManager();
  Save(ApproachType::kUpdate, nullptr);
  ModelSetUpdateInfo update;  // no models actually changed
  SaveResult delta = Save(ApproachType::kUpdate, &update);
  // Hash blob dominates; diff payload is empty.
  EXPECT_LT(delta.bytes_written, 40u * 8 * 32 + 2000);
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager_->Recover(heads_[ApproachType::kUpdate]));
  ExpectSetEquals(recovered, scenario_->current_set());
}

// ---------------------------------------------------------------------------
// Update approach specifics.

TEST_F(ApproachTest, UpdateRequiresBaseSetId) {
  OpenManager();
  ModelSetUpdateInfo update;
  EXPECT_TRUE(manager_
                  ->SaveDerived(ApproachType::kUpdate, scenario_->current_set(),
                                update)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ApproachTest, UpdateRejectsForeignBase) {
  OpenManager();
  Save(ApproachType::kBaseline, nullptr);
  ModelSetUpdateInfo update;
  update.base_set_id = heads_[ApproachType::kBaseline];
  EXPECT_TRUE(manager_
                  ->SaveDerived(ApproachType::kUpdate, scenario_->current_set(),
                                update)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ApproachTest, UpdateRejectsModelCountChange) {
  OpenManager();
  Save(ApproachType::kUpdate, nullptr);
  ModelSet smaller = scenario_->current_set();
  smaller.models.pop_back();
  ModelSetUpdateInfo update;
  update.base_set_id = heads_[ApproachType::kUpdate];
  EXPECT_TRUE(manager_->SaveDerived(ApproachType::kUpdate, smaller, update)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ApproachTest, SnapshotIntervalBoundsChainDepth) {
  UpdateApproachOptions options;
  options.snapshot_interval = 2;
  OpenManager(ScenarioConfig::Battery(20), options);
  Save(ApproachType::kUpdate, nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    Save(ApproachType::kUpdate, &update);
  }
  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(ModelSet recovered,
                       manager_->Recover(heads_[ApproachType::kUpdate], &stats));
  ExpectSetEquals(recovered, scenario_->current_set());
  // With snapshots every 2 deltas, recovery never walks more than 2 sets.
  EXPECT_LE(stats.sets_recovered, 2u);
}

// ---------------------------------------------------------------------------
// Provenance approach specifics.

TEST_F(ApproachTest, ProvenanceRequiresUpdateMetadata) {
  OpenManager();
  Save(ApproachType::kProvenance, nullptr);
  ModelSetUpdateInfo update;
  update.base_set_id = heads_[ApproachType::kProvenance];
  // Missing kinds/pipeline.
  EXPECT_TRUE(manager_
                  ->SaveDerived(ApproachType::kProvenance,
                                scenario_->current_set(), update)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ApproachTest, ProvenanceRequiresDataRefsForUpdatedModels) {
  OpenManager();
  Save(ApproachType::kProvenance, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  update.base_set_id = heads_[ApproachType::kProvenance];
  // Blank out a data ref of an updated model.
  for (size_t i = 0; i < update.kinds.size(); ++i) {
    if (update.kinds[i] != UpdateKind::kNone) {
      update.data_refs[i].uri.clear();
      break;
    }
  }
  EXPECT_TRUE(manager_
                  ->SaveDerived(ApproachType::kProvenance,
                                scenario_->current_set(), update)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ApproachTest, ProvenanceReplayIsBitExactOverTwoCycles) {
  OpenManager();
  Save(ApproachType::kProvenance, nullptr);
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    Save(ApproachType::kProvenance, &update);
  }
  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(
      ModelSet recovered,
      manager_->Recover(heads_[ApproachType::kProvenance], &stats));
  ExpectSetEquals(recovered, scenario_->current_set());
  EXPECT_EQ(stats.sets_recovered, 3u);
  EXPECT_EQ(stats.models_retrained, 8u);  // 4 updated models x 2 cycles
}

TEST_F(ApproachTest, ProvenanceCappedRecoveryIsApproximate) {
  ProvenanceRecoverOptions prov;
  prov.max_replay_models = 1;
  prov.max_replay_samples = 16;
  OpenManager(ScenarioConfig::Battery(40), {}, prov);
  Save(ApproachType::kProvenance, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  Save(ApproachType::kProvenance, &update);
  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(
      ModelSet recovered,
      manager_->Recover(heads_[ApproachType::kProvenance], &stats));
  EXPECT_EQ(stats.models_retrained, 1u);  // measurement protocol
  EXPECT_EQ(recovered.models.size(), scenario_->current_set().models.size());
}

// The caps are a whole-set measurement protocol: a capped manager's
// selective recovery still replays every requested update, exactly.
TEST_F(ApproachTest, ProvenanceCapsDoNotApplyToSelectiveRecovery) {
  ProvenanceRecoverOptions prov;
  prov.max_replay_models = 1;
  prov.max_replay_samples = 16;
  OpenManager(ScenarioConfig::Battery(40), {}, prov);
  Save(ApproachType::kProvenance, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  Save(ApproachType::kProvenance, &update);
  // Every updated model and one that was not.
  std::vector<size_t> requested;
  size_t unchanged = update.kinds.size();
  for (size_t i = 0; i < update.kinds.size(); ++i) {
    if (update.kinds[i] != UpdateKind::kNone) {
      requested.push_back(i);
    } else if (unchanged == update.kinds.size()) {
      unchanged = i;
    }
  }
  ASSERT_GT(requested.size(), 1u);
  const uint64_t num_updated = requested.size();
  ASSERT_LT(unchanged, update.kinds.size());
  requested.push_back(unchanged);

  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<StateDict> recovered,
      manager_->RecoverModels(heads_[ApproachType::kProvenance], requested,
                              &stats));
  EXPECT_EQ(stats.models_retrained, num_updated);
  ASSERT_EQ(recovered.size(), requested.size());
  for (size_t i = 0; i < requested.size(); ++i) {
    const StateDict& expected = scenario_->current_set().models[requested[i]];
    ASSERT_EQ(recovered[i].size(), expected.size());
    for (size_t p = 0; p < expected.size(); ++p) {
      EXPECT_TRUE(recovered[i][p].second.Equals(expected[p].second))
          << "model " << requested[i] << " param " << expected[p].first;
    }
  }
}

// The replay cap holds per level: a capped whole-set recovery over two
// provenance levels retrains one model at each.
TEST_F(ApproachTest, ProvenanceCapAppliesPerLevel) {
  ProvenanceRecoverOptions prov;
  prov.max_replay_models = 1;
  prov.max_replay_samples = 16;
  OpenManager(ScenarioConfig::Battery(40), {}, prov);
  Save(ApproachType::kProvenance, nullptr);
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    Save(ApproachType::kProvenance, &update);
  }
  RecoverStats stats;
  ASSERT_OK(manager_->Recover(heads_[ApproachType::kProvenance], &stats)
                .status());
  EXPECT_EQ(stats.sets_recovered, 3u);
  EXPECT_EQ(stats.models_retrained, 2u);
}

TEST_F(ApproachTest, ProvenanceRecoveryFailsWhenDataChanged) {
  OpenManager();
  Save(ApproachType::kProvenance, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  // Tamper with a content hash to emulate externally-changed data.
  for (size_t i = 0; i < update.kinds.size(); ++i) {
    if (update.kinds[i] != UpdateKind::kNone) {
      update.data_refs[i].content_hash = std::string(64, 'f');
      break;
    }
  }
  Save(ApproachType::kProvenance, &update);
  EXPECT_TRUE(manager_->Recover(heads_[ApproachType::kProvenance])
                  .status()
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// Fault injection: a failed save surfaces as an error, not silent corruption.

TEST_F(ApproachTest, FailedWriteSurfacesIOError) {
  ScenarioConfig config = ScenarioConfig::Battery(10);
  config.samples_per_dataset = 32;
  scenario_ = std::make_unique<MultiModelScenario>(config);
  ASSERT_OK(scenario_->Init());

  FaultInjectionEnv fault_env(Env::Default());
  ModelSetManager::Options options;
  options.root_dir = temp_.path() + "/faulty";
  options.env = &fault_env;
  options.resolver = scenario_.get();
  ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(options));

  fault_env.FailWritesAfter(fault_env.write_count() + 1);
  EXPECT_TRUE(manager->SaveInitial(ApproachType::kBaseline,
                                   scenario_->current_set())
                  .status()
                  .IsIOError());
  fault_env.Heal();
  EXPECT_OK(manager->SaveInitial(ApproachType::kBaseline,
                                 scenario_->current_set())
                .status());
}

}  // namespace
}  // namespace mmm
