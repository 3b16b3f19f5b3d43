#include "nn/trainer.h"

#include <gtest/gtest.h>

#include "battery/data_gen.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

TrainingData SyntheticRegression(size_t n, uint64_t seed) {
  // y = 0.3*x0 - 0.2*x1 + 0.1 (learnable by the FFNN in a few steps).
  Rng rng(seed);
  Tensor x(Shape{n, 4});
  Tensor y(Shape{n, 1});
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      x.at2(i, j) = static_cast<float>(rng.NextUniform(-1, 1));
    }
    y.at2(i, 0) = 0.3f * x.at2(i, 0) - 0.2f * x.at2(i, 1) + 0.1f;
  }
  return {std::move(x), std::move(y)};
}

TrainConfig SmallConfig() {
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 16;
  config.learning_rate = 0.05f;
  config.shuffle_seed = 0xfeedface12345678ULL;
  return config;
}

TEST(TrainerTest, TrainingReducesLoss) {
  TrainingData data = SyntheticRegression(128, 1);
  ASSERT_OK_AND_ASSIGN(Model model, Model::CreateInitialized(Ffnn48Spec(), 2));
  TrainConfig config = SmallConfig();
  config.epochs = 10;
  ASSERT_OK_AND_ASSIGN(float initial_loss,
                       EvaluateLoss(&model, data.inputs, data.targets, config.loss));
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       TrainModel(&model, data.inputs, data.targets, config));
  EXPECT_LT(report.final_loss, initial_loss * 0.5f);
  EXPECT_EQ(report.steps, 10 * 8);
}

TEST(TrainerTest, BitExactDeterminism) {
  TrainingData data = SyntheticRegression(64, 3);
  ASSERT_OK_AND_ASSIGN(Model a, Model::CreateInitialized(Ffnn48Spec(), 4));
  ASSERT_OK_AND_ASSIGN(Model b, a.Clone());
  TrainConfig config = SmallConfig();
  ASSERT_OK(TrainModel(&a, data.inputs, data.targets, config).status());
  ASSERT_OK(TrainModel(&b, data.inputs, data.targets, config).status());
  StateDict sa = a.GetStateDict(), sb = b.GetStateDict();
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_TRUE(sa[i].second.Equals(sb[i].second)) << sa[i].first;
  }
}

TEST(TrainerTest, DifferentShuffleSeedDiverges) {
  TrainingData data = SyntheticRegression(64, 3);
  ASSERT_OK_AND_ASSIGN(Model a, Model::CreateInitialized(Ffnn48Spec(), 4));
  ASSERT_OK_AND_ASSIGN(Model b, a.Clone());
  TrainConfig config = SmallConfig();
  ASSERT_OK(TrainModel(&a, data.inputs, data.targets, config).status());
  config.shuffle_seed ^= 1;
  ASSERT_OK(TrainModel(&b, data.inputs, data.targets, config).status());
  EXPECT_FALSE(a.GetStateDict()[0].second.Equals(b.GetStateDict()[0].second));
}

TEST(TrainerTest, PartialTrainingOnlyChangesSelectedLayers) {
  TrainingData data = SyntheticRegression(64, 5);
  ASSERT_OK_AND_ASSIGN(Model model, Model::CreateInitialized(Ffnn48Spec(), 6));
  StateDict before = model.GetStateDict();
  TrainConfig config = SmallConfig();
  config.trainable_layers = {"fc3", "fc4"};
  ASSERT_OK(TrainModel(&model, data.inputs, data.targets, config).status());
  StateDict after = model.GetStateDict();
  for (size_t i = 0; i < before.size(); ++i) {
    bool frozen = before[i].first.rfind("fc1", 0) == 0 ||
                  before[i].first.rfind("fc2", 0) == 0;
    if (frozen) {
      EXPECT_TRUE(before[i].second.Equals(after[i].second)) << before[i].first;
    } else {
      EXPECT_FALSE(before[i].second.Equals(after[i].second)) << before[i].first;
    }
  }
}

TEST(TrainerTest, UnknownTrainableLayerFails) {
  TrainingData data = SyntheticRegression(16, 7);
  ASSERT_OK_AND_ASSIGN(Model model, Model::CreateInitialized(Ffnn48Spec(), 8));
  TrainConfig config = SmallConfig();
  config.trainable_layers = {"does-not-exist"};
  EXPECT_TRUE(TrainModel(&model, data.inputs, data.targets, config)
                  .status()
                  .IsInvalidArgument());
}

TEST(TrainerTest, RejectsBadInputs) {
  ASSERT_OK_AND_ASSIGN(Model model, Model::CreateInitialized(Ffnn48Spec(), 9));
  TrainConfig config = SmallConfig();
  Tensor x(Shape{4, 4}), y(Shape{3, 1});
  EXPECT_TRUE(
      TrainModel(&model, x, y, config).status().IsInvalidArgument());
  Tensor empty_x(Shape{0, 4}), empty_y(Shape{0, 1});
  EXPECT_TRUE(TrainModel(&model, empty_x, empty_y, config)
                  .status()
                  .IsInvalidArgument());
  config.batch_size = 0;
  Tensor ok_x(Shape{4, 4}), ok_y(Shape{4, 1});
  EXPECT_TRUE(
      TrainModel(&model, ok_x, ok_y, config).status().IsInvalidArgument());
}

TEST(TrainerTest, UnknownLossAndOptimizerFail) {
  ASSERT_OK_AND_ASSIGN(Model model, Model::CreateInitialized(Ffnn48Spec(), 10));
  Tensor x(Shape{4, 4}), y(Shape{4, 1});
  TrainConfig config = SmallConfig();
  config.loss = "hinge";
  EXPECT_TRUE(TrainModel(&model, x, y, config).status().IsInvalidArgument());
  config = SmallConfig();
  config.optimizer = "lbfgs";
  EXPECT_TRUE(TrainModel(&model, x, y, config).status().IsInvalidArgument());
}

TEST(TrainerTest, ZeroEpochsLeavesParametersUntouched) {
  TrainingData data = SyntheticRegression(32, 11);
  ASSERT_OK_AND_ASSIGN(Model model, Model::CreateInitialized(Ffnn48Spec(), 12));
  StateDict before = model.GetStateDict();
  TrainConfig config = SmallConfig();
  config.epochs = 0;
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       TrainModel(&model, data.inputs, data.targets, config));
  EXPECT_EQ(report.steps, 0);
  StateDict after = model.GetStateDict();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(before[i].second.Equals(after[i].second));
  }
}

TEST(TrainerTest, AdamOptimizerTrains) {
  TrainingData data = SyntheticRegression(128, 13);
  ASSERT_OK_AND_ASSIGN(Model model, Model::CreateInitialized(Ffnn48Spec(), 14));
  TrainConfig config = SmallConfig();
  config.optimizer = "adam";
  config.learning_rate = 0.01f;
  config.epochs = 10;
  ASSERT_OK_AND_ASSIGN(float initial_loss,
                       EvaluateLoss(&model, data.inputs, data.targets, config.loss));
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       TrainModel(&model, data.inputs, data.targets, config));
  EXPECT_LT(report.final_loss, initial_loss);
}

TEST(TrainerTest, CrossEntropyTrainingOnCifarNet) {
  // Tiny 2-class separation task on the conv net.
  Rng rng(15);
  const size_t n = 16;
  Tensor x(Shape{n, 3, 32, 32});
  Tensor y(Shape{n});
  for (size_t i = 0; i < n; ++i) {
    float base = (i % 2 == 0) ? 0.2f : 0.8f;
    y.at(i) = static_cast<float>(i % 2);
    for (size_t j = 0; j < 3 * 32 * 32; ++j) {
      x.at(i * 3 * 32 * 32 + j) =
          base + static_cast<float>(rng.NextGaussian(0.0, 0.05));
    }
  }
  ASSERT_OK_AND_ASSIGN(Model model, Model::CreateInitialized(CifarNetSpec(), 16));
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 8;
  config.learning_rate = 0.05f;
  config.loss = "cross_entropy";
  ASSERT_OK_AND_ASSIGN(float initial_loss, EvaluateLoss(&model, x, y, config.loss));
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       TrainModel(&model, x, y, config));
  EXPECT_LT(report.final_loss, initial_loss);
}

TEST(TrainConfigTest, JsonRoundTripIncludingFullRangeSeed) {
  TrainConfig config;
  config.epochs = 7;
  config.batch_size = 33;
  config.learning_rate = 0.123f;
  config.momentum = 0.9f;
  config.optimizer = "adam";
  config.loss = "cross_entropy";
  config.shuffle_seed = 0xffffffffffffff9bULL;  // would not survive a double
  config.trainable_layers = {"fc3", "fc4"};
  ASSERT_OK_AND_ASSIGN(TrainConfig decoded,
                       TrainConfig::FromJson(config.ToJson()));
  EXPECT_EQ(decoded, config);
}

TEST(TrainConfigTest, JsonRoundTripThroughText) {
  TrainConfig config;
  config.shuffle_seed = 0x8000000000000001ULL;
  ASSERT_OK_AND_ASSIGN(JsonValue parsed,
                       JsonValue::Parse(config.ToJson().Dump()));
  ASSERT_OK_AND_ASSIGN(TrainConfig decoded, TrainConfig::FromJson(parsed));
  EXPECT_EQ(decoded.shuffle_seed, config.shuffle_seed);
}

TEST(TrainConfigTest, FromJsonRejectsBadSeed) {
  TrainConfig config;
  JsonValue json = config.ToJson();
  json.Set("shuffle_seed", "not-a-number");
  EXPECT_TRUE(TrainConfig::FromJson(json).status().IsCorruption());
}

}  // namespace
}  // namespace mmm
