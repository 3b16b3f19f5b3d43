#include "core/inspect.h"

#include <gtest/gtest.h>

#include "core/manager.h"
#include "serialize/crc32.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

class InspectTest : public ::testing::Test {
 protected:
  InspectTest() : temp_("inspect") {
    ScenarioConfig config = ScenarioConfig::Battery(12);
    config.samples_per_dataset = 32;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    scenario_->Init().Check();
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    manager_ = ModelSetManager::Open(options).ValueOrDie();
  }

  /// Saves U1 + `cycles` update-approach deltas; returns the chain ids.
  std::vector<std::string> BuildUpdateChain(int cycles) {
    std::vector<std::string> ids;
    ids.push_back(manager_->SaveInitial(ApproachType::kUpdate,
                                        scenario_->current_set())
                      .ValueOrDie()
                      .set_id);
    for (int i = 0; i < cycles; ++i) {
      ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
      update.base_set_id = ids.back();
      ids.push_back(manager_
                        ->SaveDerived(ApproachType::kUpdate,
                                      scenario_->current_set(), update)
                        .ValueOrDie()
                        .set_id);
    }
    return ids;
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
};

TEST_F(InspectTest, ListSetsEmptyStore) {
  ASSERT_OK_AND_ASSIGN(std::vector<SetSummary> sets, manager_->ListSets());
  EXPECT_TRUE(sets.empty());
}

TEST_F(InspectTest, ListSetsReturnsAllInOrder) {
  std::vector<std::string> ids = BuildUpdateChain(2);
  ASSERT_OK_AND_ASSIGN(std::vector<SetSummary> sets, manager_->ListSets());
  ASSERT_EQ(sets.size(), 3u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(sets[i].id, ids[i]);
    EXPECT_EQ(sets[i].approach, "update");
    EXPECT_EQ(sets[i].num_models, 12u);
    EXPECT_GT(sets[i].artifact_bytes, 0u);
  }
  EXPECT_EQ(sets[0].kind, "full");
  EXPECT_EQ(sets[1].kind, "delta");
  EXPECT_GT(sets[0].artifact_bytes, sets[1].artifact_bytes);
}

TEST_F(InspectTest, LineageWalksToRoot) {
  std::vector<std::string> ids = BuildUpdateChain(3);
  ASSERT_OK_AND_ASSIGN(std::vector<SetSummary> chain,
                       manager_->Lineage(ids.back()));
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain.front().id, ids.back());
  EXPECT_EQ(chain.back().id, ids.front());
  EXPECT_EQ(chain.back().kind, "full");
}

TEST_F(InspectTest, LineageOfRootIsSingleton) {
  std::vector<std::string> ids = BuildUpdateChain(0);
  ASSERT_OK_AND_ASSIGN(std::vector<SetSummary> chain,
                       manager_->Lineage(ids[0]));
  EXPECT_EQ(chain.size(), 1u);
}

TEST_F(InspectTest, LineageOfUnknownIdFails) {
  BuildUpdateChain(1);
  EXPECT_TRUE(manager_->Lineage("set-xxxxx").status().IsNotFound());
}

TEST_F(InspectTest, ValidateHealthyStore) {
  BuildUpdateChain(2);
  // Mix in the other approaches.
  manager_->SaveInitial(ApproachType::kBaseline, scenario_->current_set())
      .status()
      .Check();
  manager_->SaveInitial(ApproachType::kMMlibBase, scenario_->current_set())
      .status()
      .Check();
  manager_->SaveInitial(ApproachType::kProvenance, scenario_->current_set())
      .status()
      .Check();
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager_->ValidateStore());
  EXPECT_TRUE(report.ok()) << (report.problems.empty()
                                   ? ""
                                   : report.problems.front());
  EXPECT_EQ(report.sets_checked, 6u);
  EXPECT_GT(report.blobs_checked, 6u);
}

TEST_F(InspectTest, ValidateDetectsMissingBlob) {
  std::vector<std::string> ids = BuildUpdateChain(1);
  manager_->file_store()->Delete(ids[1] + ".diff.bin").Check();
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager_->ValidateStore());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.problems[0].find("cannot read"), std::string::npos);
}

TEST_F(InspectTest, ValidateDetectsCorruptedParamBlob) {
  std::vector<std::string> ids = BuildUpdateChain(0);
  std::string blob_name = ids[0] + ".params.bin";
  auto blob = manager_->file_store()->Get(blob_name).ValueOrDie();
  blob[blob.size() / 2] ^= 0x01;
  manager_->file_store()->Put(blob_name, blob).Check();
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager_->ValidateStore());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.problems[0].find("params.bin"), std::string::npos);
}

// A param blob whose footer passes but whose layer CRC table disagrees with
// a layer is reported. A whole-blob recovery does not compare the table
// (its footer covers the same bytes); ranged reads, which do, fail.
TEST_F(InspectTest, ValidateDetectsLayerCrcTableMismatch) {
  std::vector<std::string> ids = BuildUpdateChain(0);
  std::string blob_name = ids[0] + ".params.bin";
  auto blob = manager_->file_store()->Get(blob_name).ValueOrDie();
  const size_t num_layers = LayoutOf(scenario_->current_set().spec).size();
  const size_t num_models = scenario_->current_set().models.size();
  // Model 2's entry for layer 5, then a footer that matches again.
  const size_t table = blob.size() - 4 - num_models * num_layers * 4;
  blob[table + (2 * num_layers + 5) * 4] ^= 0x01;
  const uint32_t crc =
      Crc32::Compute(std::span<const uint8_t>(blob).first(blob.size() - 4));
  for (int i = 0; i < 4; ++i) {
    blob[blob.size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  manager_->file_store()->Put(blob_name, blob).Check();

  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager_->ValidateStore());
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("layer crc table disagrees with layer (2, 5)"),
            std::string::npos)
      << report.problems[0];
  EXPECT_OK(manager_->Recover(ids[0]).status());
  EXPECT_TRUE(manager_->RecoverModels(ids[0], {2}).status().IsCorruption());
}

// An MMMPARM1 blob (no layer CRC table) is valid.
TEST_F(InspectTest, ValidateAcceptsVersionOneParamBlob) {
  std::vector<std::string> ids = BuildUpdateChain(0);
  manager_->file_store()
      ->Put(ids[0] + ".params.bin",
            testing::VersionOneParamBlob(scenario_->current_set()))
      .Check();

  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager_->ValidateStore());
  EXPECT_TRUE(report.ok()) << report.problems.front();
}

TEST_F(InspectTest, ValidateDetectsMissingParamBlob) {
  std::vector<std::string> ids = BuildUpdateChain(0);
  manager_->file_store()->Delete(ids[0] + ".params.bin").Check();
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager_->ValidateStore());
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("cannot read " + ids[0] + ".params.bin"),
            std::string::npos);
}

TEST_F(InspectTest, ValidateDetectsTruncatedCompressedParamBlob) {
  TempDir temp("inspect-truncated");
  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.blob_compression = Compression::kShuffleLz;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 6, 3));
  std::string id =
      manager->SaveInitial(ApproachType::kUpdate, set).ValueOrDie().set_id;
  std::string blob_name = id + ".params.bin";
  auto blob = manager->file_store()->Get(blob_name).ValueOrDie();
  blob.resize(blob.size() - 7);
  manager->file_store()->Put(blob_name, blob).Check();
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager->ValidateStore());
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("corrupt " + blob_name), std::string::npos);
}

TEST_F(InspectTest, ValidateDetectsBrokenChain) {
  // Save a delta whose base document is later removed from a *fresh* store
  // view: simulate by corrupting the WAL state via a doc referencing a
  // non-existent base. Easiest realistic path: delete the base's blobs and
  // check chain validation still reports the missing-artifact problems.
  std::vector<std::string> ids = BuildUpdateChain(1);
  manager_->file_store()->Delete(ids[0] + ".params.bin").Check();
  manager_->file_store()->Delete(ids[0] + ".arch.json").Check();
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager_->ValidateStore());
  EXPECT_FALSE(report.ok());
}

TEST_F(InspectTest, ValidateCompressedStore) {
  TempDir temp("inspect-compressed");
  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.blob_compression = Compression::kShuffleLz;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 6, 3));
  manager->SaveInitial(ApproachType::kUpdate, set).status().Check();
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager->ValidateStore());
  EXPECT_TRUE(report.ok()) << (report.problems.empty()
                                   ? ""
                                   : report.problems.front());
}

TEST_F(InspectTest, CompressedRoundTripThroughManager) {
  TempDir temp("compressed-roundtrip");
  ScenarioConfig config = ScenarioConfig::Battery(10);
  config.samples_per_dataset = 32;
  MultiModelScenario scenario(config);
  scenario.Init().Check();
  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.resolver = &scenario;
  options.blob_compression = Compression::kShuffleLz;
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  std::string head = manager
                         ->SaveInitial(ApproachType::kUpdate,
                                       scenario.current_set())
                         .ValueOrDie()
                         .set_id;
  ModelSetUpdateInfo update = scenario.AdvanceCycle().ValueOrDie();
  update.base_set_id = head;
  head = manager
             ->SaveDerived(ApproachType::kUpdate, scenario.current_set(), update)
             .ValueOrDie()
             .set_id;
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(head));
  for (size_t m = 0; m < recovered.models.size(); ++m) {
    for (size_t p = 0; p < recovered.models[m].size(); ++p) {
      EXPECT_TRUE(recovered.models[m][p].second.Equals(
          scenario.current_set().models[m][p].second));
    }
  }
}

TEST_F(InspectTest, CompressionReducesStoredBytes) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 40, 5));
  auto run = [&](Compression codec) {
    TempDir temp("compression-size");
    ModelSetManager::Options options;
    options.root_dir = temp.path() + "/store";
    options.blob_compression = codec;
    auto manager = ModelSetManager::Open(options).ValueOrDie();
    return manager->SaveInitial(ApproachType::kBaseline, set)
        .ValueOrDie()
        .bytes_written;
  };
  EXPECT_LT(run(Compression::kShuffleLz), run(Compression::kNone));
}

}  // namespace
}  // namespace mmm
