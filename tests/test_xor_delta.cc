#include <gtest/gtest.h>

#include "core/blob_formats.h"
#include "core/manager.h"
#include "serialize/compress.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

TEST(XorTensorsTest, IsItsOwnInverse) {
  Tensor a = testing::RandomTensor(Shape{48, 4}, 1);
  Tensor b = testing::RandomTensor(Shape{48, 4}, 2);
  Tensor delta = XorTensors(a, b);
  EXPECT_TRUE(XorTensors(delta, b).Equals(a));
  EXPECT_TRUE(XorTensors(delta, a).Equals(b));
}

TEST(XorTensorsTest, SelfXorIsZero) {
  Tensor a = testing::RandomTensor(Shape{10}, 3);
  Tensor zero = XorTensors(a, a);
  for (float x : zero.data()) EXPECT_EQ(x, 0.0f);
}

TEST(XorDiffBlobTest, RoundTripCarriesEncoding) {
  ModelSet base = MakeInitializedSet(Ffnn48Spec(), 4, 1).ValueOrDie();
  ModelSet current = base;
  current.models[2][3].second.at(0) += 0.5f;
  std::vector<DiffEntry> entries{{2, 3}};
  std::vector<uint8_t> blob =
      EncodeDiffBlob(current, entries, DiffEncoding::kXorBase, &base);
  ASSERT_OK_AND_ASSIGN(DiffView diff, DiffView::Parse(current.spec, blob));
  EXPECT_EQ(diff.encoding(), DiffEncoding::kXorBase);
  ASSERT_EQ(diff.entries().size(), 1u);
  // Applying the XOR delta to the base reproduces the current tensor.
  Tensor applied = XorTensors(base.models[2][3].second, diff.TensorAt(0));
  EXPECT_TRUE(applied.Equals(current.models[2][3].second));
}

TEST(XorDiffBlobTest, XorDeltaOfSimilarTensorsCompressesBetter) {
  // A partially-retrained tensor: small perturbations of the base.
  ModelSet base = MakeInitializedSet(Ffnn48Spec(), 30, 2).ValueOrDie();
  ModelSet current = base;
  Rng rng(5);
  std::vector<DiffEntry> entries;
  for (uint32_t m = 0; m < 30; ++m) {
    for (uint32_t p = 0; p < 8; ++p) {
      entries.push_back({m, p});
      for (float& x : current.models[m][p].second.mutable_data()) {
        x += static_cast<float>(rng.NextGaussian(0.0, 1e-4));
      }
    }
  }
  std::vector<uint8_t> absolute = EncodeDiffBlob(current, entries);
  std::vector<uint8_t> xored =
      EncodeDiffBlob(current, entries, DiffEncoding::kXorBase, &base);
  size_t absolute_lz =
      CompressBlob(Compression::kShuffleLz, absolute).size();
  size_t xor_lz = CompressBlob(Compression::kShuffleLz, xored).size();
  EXPECT_LT(xor_lz, absolute_lz);
}

class XorUpdateTest : public ::testing::Test {
 protected:
  XorUpdateTest() : temp_("xor-update") {
    ScenarioConfig config = ScenarioConfig::Battery(30);
    config.samples_per_dataset = 32;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    scenario_->Init().Check();
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    options.update_options.diff_encoding = DiffEncoding::kXorBase;
    manager_ = ModelSetManager::Open(options).ValueOrDie();
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
};

TEST_F(XorUpdateTest, SaveWithoutBaseSetFails) {
  std::string head = manager_
                         ->SaveInitial(ApproachType::kUpdate,
                                       scenario_->current_set())
                         .ValueOrDie()
                         .set_id;
  ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
  update.base_set_id = head;
  update.base_set = nullptr;
  EXPECT_TRUE(
      manager_->SaveDerived(ApproachType::kUpdate, scenario_->current_set(),
                            update)
          .status()
          .IsInvalidArgument());
}

TEST_F(XorUpdateTest, ChainRoundTripsOverThreeCycles) {
  std::string head = manager_
                         ->SaveInitial(ApproachType::kUpdate,
                                       scenario_->current_set())
                         .ValueOrDie()
                         .set_id;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ModelSet base = scenario_->current_set();  // copy before mutation
    ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
    update.base_set_id = head;
    update.base_set = &base;
    head = manager_
               ->SaveDerived(ApproachType::kUpdate, scenario_->current_set(),
                             update)
               .ValueOrDie()
               .set_id;
  }
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager_->Recover(head));
  for (size_t m = 0; m < recovered.models.size(); ++m) {
    for (size_t p = 0; p < recovered.models[m].size(); ++p) {
      ASSERT_TRUE(recovered.models[m][p].second.Equals(
          scenario_->current_set().models[m][p].second))
          << "model " << m << " param " << p;
    }
  }
}

TEST_F(XorUpdateTest, SelectiveRecoveryComposesXorChains) {
  std::string head = manager_
                         ->SaveInitial(ApproachType::kUpdate,
                                       scenario_->current_set())
                         .ValueOrDie()
                         .set_id;
  std::vector<std::string> heads{head};
  for (int cycle = 0; cycle < 3; ++cycle) {
    ModelSet base = scenario_->current_set();
    ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
    update.base_set_id = heads.back();
    update.base_set = &base;
    heads.push_back(manager_
                        ->SaveDerived(ApproachType::kUpdate,
                                      scenario_->current_set(), update)
                        .ValueOrDie()
                        .set_id);
  }
  std::vector<size_t> indices{0, 7, 15, 29};
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager_->RecoverModels(heads.back(), indices));
  for (size_t i = 0; i < indices.size(); ++i) {
    const StateDict& expected = scenario_->current_set().models[indices[i]];
    for (size_t p = 0; p < expected.size(); ++p) {
      ASSERT_TRUE(recovered[i][p].second.Equals(expected[p].second))
          << "model " << indices[i] << " param " << p;
    }
  }
}

TEST_F(XorUpdateTest, IntermediateSetsStayRecoverable) {
  std::string u1 = manager_
                       ->SaveInitial(ApproachType::kUpdate,
                                     scenario_->current_set())
                       .ValueOrDie()
                       .set_id;
  ModelSet base = scenario_->current_set();
  ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
  update.base_set_id = u1;
  update.base_set = &base;
  ModelSet mid_state = scenario_->current_set();
  std::string u3_1 = manager_
                         ->SaveDerived(ApproachType::kUpdate,
                                       scenario_->current_set(), update)
                         .ValueOrDie()
                         .set_id;
  ModelSet base2 = scenario_->current_set();
  ModelSetUpdateInfo update2 = scenario_->AdvanceCycle().ValueOrDie();
  update2.base_set_id = u3_1;
  update2.base_set = &base2;
  manager_
      ->SaveDerived(ApproachType::kUpdate, scenario_->current_set(), update2)
      .status()
      .Check();
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager_->Recover(u3_1));
  EXPECT_TRUE(recovered.models[5][2].second.Equals(mid_state.models[5][2].second));
}

}  // namespace
}  // namespace mmm
