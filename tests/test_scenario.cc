#include "workload/scenario.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mmm {
namespace {

ScenarioConfig SmallBattery(size_t models = 20) {
  ScenarioConfig config = ScenarioConfig::Battery(models);
  config.samples_per_dataset = 48;
  return config;
}

TEST(ScenarioTest, InitBuildsRequestedSet) {
  MultiModelScenario scenario(SmallBattery(25));
  ASSERT_OK(scenario.Init());
  EXPECT_EQ(scenario.current_set().size(), 25u);
  EXPECT_EQ(scenario.current_set().spec.family, "FFNN-48");
  EXPECT_OK(CheckSetConsistent(scenario.current_set()));
}

TEST(ScenarioTest, InitTwiceFails) {
  MultiModelScenario scenario(SmallBattery());
  ASSERT_OK(scenario.Init());
  EXPECT_TRUE(scenario.Init().IsInvalidArgument());
}

TEST(ScenarioTest, AdvanceBeforeInitFails) {
  MultiModelScenario scenario(SmallBattery());
  EXPECT_TRUE(scenario.AdvanceCycle().status().IsInvalidArgument());
}

TEST(ScenarioTest, InitIsDeterministic) {
  MultiModelScenario a(SmallBattery()), b(SmallBattery());
  ASSERT_OK(a.Init());
  ASSERT_OK(b.Init());
  for (size_t m = 0; m < a.current_set().size(); ++m) {
    EXPECT_TRUE(a.current_set().models[m][0].second.Equals(
        b.current_set().models[m][0].second));
  }
}

TEST(ScenarioTest, AdvanceCycleUpdatesConfiguredFractions) {
  MultiModelScenario scenario(SmallBattery(40));
  ASSERT_OK(scenario.Init());
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
  size_t full = 0, partial = 0, none = 0;
  for (UpdateKind kind : update.kinds) {
    full += kind == UpdateKind::kFull;
    partial += kind == UpdateKind::kPartial;
    none += kind == UpdateKind::kNone;
  }
  EXPECT_EQ(full, 2u);     // 5% of 40
  EXPECT_EQ(partial, 2u);  // 5% of 40
  EXPECT_EQ(none, 36u);
  EXPECT_EQ(scenario.cycle(), 1u);
}

TEST(ScenarioTest, UpdatedModelsHaveDataRefsAndOthersDont) {
  MultiModelScenario scenario(SmallBattery(40));
  ASSERT_OK(scenario.Init());
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
  for (size_t i = 0; i < update.kinds.size(); ++i) {
    if (update.kinds[i] == UpdateKind::kNone) {
      EXPECT_TRUE(update.data_refs[i].uri.empty());
    } else {
      EXPECT_FALSE(update.data_refs[i].uri.empty());
      EXPECT_EQ(update.data_refs[i].content_hash.size(), 64u);
    }
  }
}

TEST(ScenarioTest, OnlyUpdatedModelsChange) {
  MultiModelScenario scenario(SmallBattery(40));
  ASSERT_OK(scenario.Init());
  ModelSet before = scenario.current_set();
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
  const ModelSet& after = scenario.current_set();
  for (size_t m = 0; m < before.models.size(); ++m) {
    bool changed = false;
    for (size_t p = 0; p < before.models[m].size(); ++p) {
      if (!before.models[m][p].second.Equals(after.models[m][p].second)) {
        changed = true;
      }
    }
    EXPECT_EQ(changed, update.kinds[m] != UpdateKind::kNone) << "model " << m;
  }
}

TEST(ScenarioTest, PartialUpdatesOnlyTouchPartialLayers) {
  MultiModelScenario scenario(SmallBattery(40));
  ASSERT_OK(scenario.Init());
  ModelSet before = scenario.current_set();
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
  const ModelSet& after = scenario.current_set();
  for (size_t m = 0; m < before.models.size(); ++m) {
    if (update.kinds[m] != UpdateKind::kPartial) continue;
    for (size_t p = 0; p < before.models[m].size(); ++p) {
      const std::string& key = before.models[m][p].first;
      bool in_partial = key.rfind("fc3", 0) == 0 || key.rfind("fc4", 0) == 0;
      bool changed =
          !before.models[m][p].second.Equals(after.models[m][p].second);
      EXPECT_EQ(changed, in_partial) << "model " << m << " " << key;
    }
  }
}

TEST(ScenarioTest, ResolveReturnsHashVerifiedData) {
  MultiModelScenario scenario(SmallBattery(10));
  ASSERT_OK(scenario.Init());
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
  for (size_t i = 0; i < update.kinds.size(); ++i) {
    if (update.kinds[i] == UpdateKind::kNone) continue;
    ASSERT_OK_AND_ASSIGN(TrainingData data,
                         scenario.Resolve(update.data_refs[i]));
    EXPECT_EQ(data.size(), 48u);
    EXPECT_EQ(HashTrainingData(data), update.data_refs[i].content_hash);
  }
}

TEST(ScenarioTest, ResolveRejectsMalformedUris) {
  MultiModelScenario scenario(SmallBattery(5));
  ASSERT_OK(scenario.Init());
  EXPECT_TRUE(scenario.Resolve({"garbage", ""}).status().IsInvalidArgument());
  EXPECT_TRUE(scenario.Resolve({"battery://cell/x/cycle/1", ""})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(scenario.Resolve({"cifar://model/1/cycle/1", ""})
                  .status()
                  .IsInvalidArgument());  // wrong scheme for battery scenario
}

TEST(ScenarioTest, ResolveDetectsTamperedHash) {
  MultiModelScenario scenario(SmallBattery(5));
  ASSERT_OK(scenario.Init());
  DatasetRef ref = scenario.MakeDatasetRef(1, 1);
  ref.content_hash[0] = ref.content_hash[0] == 'a' ? 'b' : 'a';
  EXPECT_TRUE(scenario.Resolve(ref).status().IsCorruption());
}

TEST(ScenarioTest, PipelineIsSharedWithinACycle) {
  MultiModelScenario scenario(SmallBattery(5));
  TrainPipelineSpec p1 = scenario.PipelineForCycle(1);
  TrainPipelineSpec p1_again = scenario.PipelineForCycle(1);
  TrainPipelineSpec p2 = scenario.PipelineForCycle(2);
  EXPECT_EQ(p1, p1_again);
  EXPECT_NE(p1.train_config.shuffle_seed, p2.train_config.shuffle_seed);
  EXPECT_OK(p1.Validate());
}

TEST(ScenarioTest, UpdateRateConfigurable) {
  ScenarioConfig config = SmallBattery(40);
  config.full_update_fraction = 0.15;
  config.partial_update_fraction = 0.15;
  MultiModelScenario scenario(config);
  ASSERT_OK(scenario.Init());
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
  size_t updated = 0;
  for (UpdateKind kind : update.kinds) updated += kind != UpdateKind::kNone;
  EXPECT_EQ(updated, 12u);  // 30% of 40
}

TEST(ScenarioTest, CifarScenarioEndToEnd) {
  ScenarioConfig config = ScenarioConfig::Cifar(6);
  config.full_update_fraction = 0.34;  // 2 models
  config.partial_update_fraction = 0.0;
  config.samples_per_dataset = 8;
  config.batch_size = 4;
  MultiModelScenario scenario(config);
  ASSERT_OK(scenario.Init());
  EXPECT_EQ(scenario.current_set().spec.family, "CIFAR");
  EXPECT_EQ(scenario.current_set().spec.ParameterCount(), 6882u);
  ModelSet before = scenario.current_set();
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
  size_t updated = 0;
  for (size_t m = 0; m < update.kinds.size(); ++m) {
    if (update.kinds[m] == UpdateKind::kNone) continue;
    ++updated;
    EXPECT_NE(update.data_refs[m].uri.find("cifar://"), std::string::npos);
    ASSERT_OK_AND_ASSIGN(TrainingData data, scenario.Resolve(update.data_refs[m]));
    EXPECT_EQ(data.inputs.shape(), (Shape{8, 3, 32, 32}));
  }
  EXPECT_EQ(updated, 2u);
}

TEST(ScenarioTest, AdvanceCycleIsLaneInvariant) {
  // 80 models: 8 retrained per cycle (4 full, 4 partial), two per lane at 4.
  ScenarioConfig serial = SmallBattery(80);
  serial.train_lanes = 1;
  ScenarioConfig parallel = serial;
  parallel.train_lanes = 4;
  MultiModelScenario a(serial), b(parallel);
  EXPECT_EQ(a.train_lanes(), 1u);
  EXPECT_EQ(b.train_lanes(), 4u);
  ASSERT_OK(a.Init());
  ASSERT_OK(b.Init());
  for (int cycle = 1; cycle <= 3; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo ua, a.AdvanceCycle());
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo ub, b.AdvanceCycle());
    EXPECT_EQ(ua.kinds, ub.kinds) << "cycle " << cycle;
    EXPECT_EQ(ua.data_refs, ub.data_refs) << "cycle " << cycle;
    EXPECT_EQ(ua.pipeline, ub.pipeline) << "cycle " << cycle;
    EXPECT_EQ(ua.partial_layers, ub.partial_layers) << "cycle " << cycle;
    EXPECT_EQ(DiffSets(a.current_set(), b.current_set()), "") << "cycle " << cycle;
  }
}

TEST(ScenarioTest, TrainLanesAreCappedAtEight) {
  ScenarioConfig config = SmallBattery(4);
  config.train_lanes = 9;
  EXPECT_EQ(MultiModelScenario(config).train_lanes(), 8u);
  config.train_lanes = 0;  // hardware threads
  size_t lanes = MultiModelScenario(config).train_lanes();
  EXPECT_GE(lanes, 1u);
  EXPECT_LE(lanes, 8u);
}

TEST(ScenarioTest, FailedCycleLeavesTheSetAndCycleUnchanged) {
  ScenarioConfig config = SmallBattery(40);
  config.partial_layers = {"no-such-layer"};  // every partial update fails
  config.train_lanes = 4;
  MultiModelScenario scenario(config);
  ASSERT_OK(scenario.Init());
  ModelSet before = scenario.current_set();
  EXPECT_TRUE(scenario.AdvanceCycle().status().IsInvalidArgument());
  EXPECT_EQ(scenario.cycle(), 0u);
  EXPECT_EQ(DiffSets(scenario.current_set(), before), "");
}

}  // namespace
}  // namespace mmm
