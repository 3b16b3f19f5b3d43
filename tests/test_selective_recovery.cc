#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/manager.h"
#include "core/set_codec.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

// Fixture: a 40-model battery scenario advanced two cycles and saved with
// every approach, so selective recovery can be checked against the live set.
class SelectiveRecoveryTest : public ::testing::Test {
 protected:
  SelectiveRecoveryTest() : temp_("selective") {
    ScenarioConfig config = ScenarioConfig::Battery(40);
    config.samples_per_dataset = 48;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    scenario_->Init().Check();
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    manager_ = ModelSetManager::Open(options).ValueOrDie();
  }

  void SaveChains(int cycles) {
    for (ApproachType type : kAllApproaches) {
      heads_[type] = manager_->SaveInitial(type, scenario_->current_set())
                         .ValueOrDie()
                         .set_id;
    }
    for (int i = 0; i < cycles; ++i) {
      ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
      updates_.push_back(update);
      for (ApproachType type : kAllApproaches) {
        ModelSetUpdateInfo derived = update;
        derived.base_set_id = heads_[type];
        heads_[type] = manager_
                           ->SaveDerived(type, scenario_->current_set(), derived)
                           .ValueOrDie()
                           .set_id;
      }
    }
  }

  void ExpectMatchesLive(const std::vector<StateDict>& recovered,
                         const std::vector<size_t>& indices) {
    ASSERT_EQ(recovered.size(), indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      const StateDict& expected = scenario_->current_set().models[indices[i]];
      ASSERT_EQ(recovered[i].size(), expected.size());
      for (size_t p = 0; p < expected.size(); ++p) {
        EXPECT_EQ(recovered[i][p].first, expected[p].first);
        EXPECT_TRUE(recovered[i][p].second.Equals(expected[p].second))
            << "model " << indices[i] << " param " << expected[p].first;
      }
    }
  }

  /// Where set `id`'s raw param blob keeps each model and layer CRC row;
  /// `path` receives the blob's file.
  ParamBlobLayout StoredLayout(const std::string& id, std::string* path) {
    SetDocument doc = FetchSetDocument(manager_->context(), id).ValueOrDie();
    *path = temp_.path() + "/store/blobs/" + doc.param_blob;
    std::vector<uint8_t> prefix =
        manager_->file_store()
            ->GetRange(doc.param_blob, 0, kParamBlobMaxHeaderBytes)
            .ValueOrDie();
    return ReadParamBlobHeader(prefix,
                               LayoutOf(scenario_->current_set().spec).size())
        .ValueOrDie();
  }

  /// XORs `mask` into the byte at `at` of the file at `path`.
  static void FlipByte(const std::string& path, uint64_t at, uint8_t mask) {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(io.is_open()) << path;
    io.seekg(static_cast<std::streamoff>(at));
    char c = 0;
    io.get(c);
    io.seekp(static_cast<std::streamoff>(at));
    io.put(static_cast<char>(c ^ mask));
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
  std::map<ApproachType, std::string> heads_;
  /// The update of each cycle SaveChains saved, oldest first.
  std::vector<ModelSetUpdateInfo> updates_;
};

class SelectiveRecoverySweep
    : public SelectiveRecoveryTest,
      public ::testing::WithParamInterface<ApproachType> {};

TEST_P(SelectiveRecoverySweep, SubsetMatchesFullRecovery) {
  SaveChains(2);
  std::vector<size_t> indices{3, 17, 39, 0};
  ASSERT_OK_AND_ASSIGN(
      std::vector<StateDict> recovered,
      manager_->RecoverModels(heads_[GetParam()], indices));
  ExpectMatchesLive(recovered, indices);
}

TEST_P(SelectiveRecoverySweep, SingleModelFromInitialSet) {
  SaveChains(0);
  std::vector<size_t> indices{11};
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager_->RecoverModels(heads_[GetParam()], indices));
  ExpectMatchesLive(recovered, indices);
}

TEST_P(SelectiveRecoverySweep, DuplicatesAndOrderPreserved) {
  SaveChains(1);
  std::vector<size_t> indices{5, 5, 2, 5};
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager_->RecoverModels(heads_[GetParam()], indices));
  ExpectMatchesLive(recovered, indices);
  EXPECT_TRUE(recovered[0][0].second.Equals(recovered[3][0].second));
}

TEST_P(SelectiveRecoverySweep, OutOfRangeIndexFails) {
  SaveChains(0);
  EXPECT_TRUE(manager_->RecoverModels(heads_[GetParam()], {40})
                  .status()
                  .IsInvalidArgument());
}

TEST_P(SelectiveRecoverySweep, EmptyIndexListYieldsEmptyResult) {
  SaveChains(0);
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager_->RecoverModels(heads_[GetParam()], {}));
  EXPECT_TRUE(recovered.empty());
}

INSTANTIATE_TEST_SUITE_P(AllApproaches, SelectiveRecoverySweep,
                         ::testing::Values(ApproachType::kMMlibBase,
                                           ApproachType::kBaseline,
                                           ApproachType::kUpdate,
                                           ApproachType::kProvenance),
                         [](const auto& info) {
                           std::string name = ApproachTypeName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST_F(SelectiveRecoveryTest, BaselineSelectiveReadsFarFewerBytes) {
  SaveChains(0);
  manager_->file_store()->ResetStats();
  manager_->RecoverModels(heads_[ApproachType::kBaseline], {7}).status().Check();
  uint64_t selective_bytes = manager_->file_store()->stats().bytes_read;
  manager_->file_store()->ResetStats();
  manager_->Recover(heads_[ApproachType::kBaseline]).status().Check();
  uint64_t full_bytes = manager_->file_store()->stats().bytes_read;
  // One model out of 40: selective reads ~1/40th of the parameter bytes.
  EXPECT_LT(selective_bytes * 10, full_bytes);
}

TEST_F(SelectiveRecoveryTest, UpdateSelectiveAvoidsFullChainMaterialization) {
  SaveChains(3);
  manager_->file_store()->ResetStats();
  RecoverStats stats;
  manager_->RecoverModels(heads_[ApproachType::kUpdate], {1, 2}, &stats)
      .status()
      .Check();
  uint64_t selective_bytes = manager_->file_store()->stats().bytes_read;
  EXPECT_EQ(stats.sets_recovered, 4u);  // walks the metadata of all 4 sets
  manager_->file_store()->ResetStats();
  manager_->Recover(heads_[ApproachType::kUpdate]).status().Check();
  uint64_t full_bytes = manager_->file_store()->stats().bytes_read;
  EXPECT_LT(selective_bytes, full_bytes / 2);
}

// A flipped byte inside a requested model's range of the raw root snapshot
// fails selective Update recovery with Corruption instead of returning
// wrong parameters: the ranged read checks each layer against its entry of
// the blob's layer CRC table. It reads only the requested models' rows, so
// a model elsewhere in the snapshot still recovers selectively and
// bit-exact.
TEST_F(SelectiveRecoveryTest, UpdateSelectiveRejectsAFlippedRootByte) {
  SaveChains(0);
  const std::string& id = heads_[ApproachType::kUpdate];
  ASSERT_OK_AND_ASSIGN(SetDocument doc,
                       FetchSetDocument(manager_->context(), id));
  FileStore* files = manager_->file_store();
  ASSERT_OK_AND_ASSIGN(uint64_t param_bytes, files->Size(doc.param_blob));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> prefix,
                       files->GetRange(doc.param_blob, 0,
                                       kParamBlobMaxHeaderBytes));
  ASSERT_OK_AND_ASSIGN(
      ParamBlobLayout layout,
      ReadParamBlobHeader(prefix, LayoutOf(scenario_->current_set().spec).size()));
  const std::string path = temp_.path() + "/store/blobs/" + doc.param_blob;
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(io.is_open()) << path;
  const auto at = static_cast<std::streamoff>(layout.ModelOffset(7) + 5);
  io.seekg(at);
  char c = 0;
  io.get(c);
  io.seekp(at);
  io.put(static_cast<char>(c ^ 0x04));
  io.close();

  Result<std::vector<StateDict>> flipped = manager_->RecoverModels(id, {7});
  EXPECT_TRUE(flipped.status().IsCorruption()) << flipped.status().ToString();

  files->ResetStats();
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> intact,
                       manager_->RecoverModels(id, {8, 30}));
  ExpectMatchesLive(intact, {8, 30});
  EXPECT_LT(files->stats().bytes_read * 10, param_bytes);
}

// The same checks for every approach whose selective recovery reads a raw
// snapshot by range: a flipped byte in a requested layer, or in that
// layer's entry of the layer CRC table, and a truncated table, each fail
// RecoverModels with Corruption; the intact models around a flip still
// recover bit-exact.
class SelectiveCorruptionSweep
    : public SelectiveRecoveryTest,
      public ::testing::WithParamInterface<ApproachType> {};

TEST_P(SelectiveCorruptionSweep, FlippedLayerByteIsCorruption) {
  SaveChains(0);
  const std::string& id = heads_[GetParam()];
  std::string path;
  const ParamBlobLayout layout = StoredLayout(id, &path);
  FlipByte(path, layout.ModelOffset(7) + 5, 0x04);

  Result<std::vector<StateDict>> flipped = manager_->RecoverModels(id, {7});
  EXPECT_TRUE(flipped.status().IsCorruption()) << flipped.status().ToString();
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> intact,
                       manager_->RecoverModels(id, {8, 30}));
  ExpectMatchesLive(intact, {8, 30});
}

TEST_P(SelectiveCorruptionSweep, FlippedTableEntryIsCorruption) {
  SaveChains(0);
  const std::string& id = heads_[GetParam()];
  std::string path;
  const ParamBlobLayout layout = StoredLayout(id, &path);
  // Layer 3's entry in model 7's row.
  FlipByte(path, layout.CrcRowOffset(7) + 3 * sizeof(uint32_t) + 1, 0x20);

  Result<std::vector<StateDict>> flipped = manager_->RecoverModels(id, {7});
  EXPECT_TRUE(flipped.status().IsCorruption()) << flipped.status().ToString();
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> intact,
                       manager_->RecoverModels(id, {6, 8}));
  ExpectMatchesLive(intact, {6, 8});
}

TEST_P(SelectiveCorruptionSweep, TruncatedTableIsCorruption) {
  SaveChains(0);
  const std::string& id = heads_[GetParam()];
  std::string path;
  const ParamBlobLayout layout = StoredLayout(id, &path);
  // The footer and the last row and a half of the table are gone.
  std::filesystem::resize_file(
      path, layout.CrcRowOffset(layout.num_models - 1) - layout.CrcRowBytes() / 2);

  for (size_t model : {size_t{7}, layout.num_models - 1}) {
    Result<std::vector<StateDict>> read = manager_->RecoverModels(id, {model});
    EXPECT_TRUE(read.status().IsCorruption())
        << "model " << model << ": " << read.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(RawSnapshotApproaches, SelectiveCorruptionSweep,
                         ::testing::Values(ApproachType::kBaseline,
                                           ApproachType::kUpdate,
                                           ApproachType::kProvenance),
                         [](const auto& info) {
                           return ApproachTypeName(info.param);
                         });

TEST_F(SelectiveRecoveryTest, ProvenanceSelectiveRetrainsOnlyRequestedModels) {
  SaveChains(2);
  const std::vector<size_t> requested{0, 1, 2, 3};
  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<StateDict> recovered,
      manager_->RecoverModels(heads_[ApproachType::kProvenance], requested,
                              &stats));
  ASSERT_EQ(recovered.size(), 4u);
  // One retrain per (cycle, requested model) update, no more.
  uint64_t expected_retrains = 0;
  for (const ModelSetUpdateInfo& update : updates_) {
    for (size_t index : requested) {
      if (update.kinds[index] != UpdateKind::kNone) ++expected_retrains;
    }
  }
  EXPECT_EQ(stats.models_retrained, expected_retrains);
  EXPECT_EQ(stats.sets_recovered, 3u);
  ExpectMatchesLive(recovered, requested);
}

// An update entry of a provenance record that names a model outside the
// set, past its end or negative, is Corruption on every recovery path,
// also when the request names only other models; so is a record that
// holds more models than its base.
TEST_F(SelectiveRecoveryTest, ProvenanceUpdateOutOfRangeIsCorruption) {
  SaveChains(1);
  const StoreContext& context = manager_->context();
  ASSERT_OK_AND_ASSIGN(
      SetDocument head,
      FetchSetDocument(context, heads_[ApproachType::kProvenance]));
  ASSERT_OK_AND_ASSIGN(std::string text,
                       manager_->file_store()->GetString(head.prov_blob));
  for (int64_t bad : {static_cast<int64_t>(head.num_models), int64_t{-1}}) {
    SCOPED_TRACE(bad);
    ASSERT_OK_AND_ASSIGN(JsonValue record, JsonValue::Parse(text));
    ASSERT_OK_AND_ASSIGN(const JsonValue* good, record.Get("updates"));
    JsonValue entry = JsonValue::Object();
    entry.Set("index", bad);
    entry.Set("kind", "full");
    JsonValue updates = JsonValue::Array();
    updates.Append(std::move(entry));
    for (const JsonValue& item : good->array_items()) updates.Append(item);
    record.Set("updates", std::move(updates));

    SetDocument planted = head;
    planted.id = head.id + (bad < 0 ? "-negative" : "-past-end");
    planted.prov_blob = planted.id + ".prov.json";
    ASSERT_OK(manager_->file_store()->PutString(planted.prov_blob,
                                                record.Dump()));
    ASSERT_OK(InsertSetDocument(context, planted));

    Result<ModelSet> whole = manager_->Recover(planted.id);
    EXPECT_TRUE(whole.status().IsCorruption()) << whole.status().ToString();
    Result<std::vector<StateDict>> some =
        manager_->RecoverModels(planted.id, {0});
    EXPECT_TRUE(some.status().IsCorruption()) << some.status().ToString();
  }

  // A record that claims one model more than its base holds.
  SetDocument wider = head;
  wider.id = head.id + "-wider";
  wider.num_models = head.num_models + 1;
  ASSERT_OK(InsertSetDocument(context, wider));
  Result<ModelSet> whole = manager_->Recover(wider.id);
  EXPECT_TRUE(whole.status().IsCorruption()) << whole.status().ToString();
  Result<std::vector<StateDict>> extra =
      manager_->RecoverModels(wider.id, {head.num_models});
  EXPECT_TRUE(extra.status().IsCorruption()) << extra.status().ToString();
}

TEST_F(SelectiveRecoveryTest, SelectiveRecoveryFromCompressedStore) {
  TempDir temp("selective-compressed");
  ScenarioConfig config = ScenarioConfig::Battery(10);
  config.samples_per_dataset = 32;
  MultiModelScenario scenario(config);
  scenario.Init().Check();
  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.resolver = &scenario;
  options.blob_compression = Compression::kShuffleLz;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  std::string id = manager
                       ->SaveInitial(ApproachType::kBaseline,
                                     scenario.current_set())
                       .ValueOrDie()
                       .set_id;
  // Compressed blobs force the full-read fallback, which must still work.
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager->RecoverModels(id, {4}));
  EXPECT_TRUE(
      recovered[0][2].second.Equals(scenario.current_set().models[4][2].second));
}

}  // namespace
}  // namespace mmm
