#include <gtest/gtest.h>

#include <algorithm>

#include "core/blob_formats.h"
#include "core/inspect.h"
#include "core/manager.h"
#include "serialize/compress.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

using testing::TempDir;

// Every save streams its param blob through the window encoder into the
// store (DESIGN.md §12); these tests pin the encoder's contract and the
// streamed save's bytes, cost model and readers.

class StreamingTest : public ::testing::Test {
 protected:
  StreamingTest() : temp_("streaming") {
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    manager_ = ModelSetManager::Open(options).ValueOrDie();
  }

  TempDir temp_;
  std::unique_ptr<ModelSetManager> manager_;
};

/// Counts the Env writes under one path prefix and the largest one.
class CountingEnv : public InMemoryEnv {
 public:
  Status WriteFile(const std::string& path,
                   std::span<const uint8_t> data) override {
    Count(path, data.size());
    return InMemoryEnv::WriteFile(path, data);
  }
  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override {
    Count(path, data.size());
    return InMemoryEnv::AppendToFile(path, data);
  }

  std::string suffix;
  size_t writes = 0;
  size_t largest = 0;

 private:
  void Count(const std::string& path, size_t bytes) {
    if (!path.ends_with(suffix)) return;
    ++writes;
    largest = std::max(largest, bytes);
  }
};

TEST_F(StreamingTest, StreamedSnapshotIsByteCompatible) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 25, 1));
  ASSERT_OK_AND_ASSIGN(SaveResult saved,
                       manager_->SaveInitial(ApproachType::kBaseline, set));

  // The streamed blob equals the in-memory encoder's output bit for bit.
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> streamed,
                       manager_->file_store()->Get(saved.set_id + ".params.bin"));
  EXPECT_EQ(streamed, EncodeParamBlob(set));
}

TEST_F(StreamingTest, RecoverableThroughEveryReadPath) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 12, 2));
  ASSERT_OK_AND_ASSIGN(SaveResult saved,
                       manager_->SaveInitial(ApproachType::kBaseline, set));

  // Full recovery (validates the streamed CRC).
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager_->Recover(saved.set_id));
  EXPECT_TRUE(recovered.models[7][3].second.Equals(set.models[7][3].second));
  // Selective recovery via ranged reads.
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> selected,
                       manager_->RecoverModels(saved.set_id, {11, 0}));
  EXPECT_TRUE(selected[0][5].second.Equals(set.models[11][5].second));
  EXPECT_TRUE(selected[1][5].second.Equals(set.models[0][5].second));
  // Store validation.
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager_->ValidateStore());
  EXPECT_TRUE(report.ok()) << (report.problems.empty()
                                   ? ""
                                   : report.problems.front());
}

TEST_F(StreamingTest, BoundedMemoryAccounting) {
  // A param blob of several write windows reaches the Env one window at a
  // time, yet is charged like one Put: one write op and its bytes.
  CountingEnv env;
  env.suffix = ".params.bin";
  ModelSetManager::Options options;
  options.root_dir = "/store";
  options.env = &env;
  ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(options));
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 120, 3));
  const uint64_t blob_bytes = EncodeParamBlob(set).size();
  ASSERT_GT(blob_bytes, 2 * kWriteWindowBytes);

  const StoreStats before = manager->file_store()->stats();
  ASSERT_OK_AND_ASSIGN(SaveResult saved,
                       manager->SaveInitial(ApproachType::kBaseline, set));
  const StoreStats delta = manager->file_store()->stats() - before;
  EXPECT_EQ(env.writes,
            (blob_bytes + kWriteWindowBytes - 1) / kWriteWindowBytes);
  EXPECT_EQ(env.largest, kWriteWindowBytes);
  // The param blob plus the architecture blob, each one op.
  EXPECT_EQ(delta.write_ops, 2u);
  EXPECT_EQ(saved.file_store_writes, 2u);
  ASSERT_OK_AND_ASSIGN(uint64_t arch_bytes,
                       manager->file_store()->Size(saved.set_id + ".arch.json"));
  EXPECT_EQ(delta.bytes_written, blob_bytes + arch_bytes);
}

TEST_F(StreamingTest, CountMismatchFailsFinish) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 4, 4));
  VectorSink sink;
  ASSERT_OK_AND_ASSIGN(ParamBlobEncoder encoder,
                       ParamBlobEncoder::Begin(set.spec, 4, &sink));
  ASSERT_OK(encoder.Append(set.models[0]));
  EXPECT_TRUE(encoder.Finish().IsInvalidArgument());
}

TEST_F(StreamingTest, AppendBeyondDeclaredCountFails) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 2, 5));
  VectorSink sink;
  ASSERT_OK_AND_ASSIGN(ParamBlobEncoder encoder,
                       ParamBlobEncoder::Begin(set.spec, 1, &sink));
  ASSERT_OK(encoder.Append(set.models[0]));
  EXPECT_TRUE(encoder.Append(set.models[1]).IsInvalidArgument());
}

TEST_F(StreamingTest, AppendAfterFinishFails) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 1, 6));
  VectorSink sink;
  ASSERT_OK_AND_ASSIGN(ParamBlobEncoder encoder,
                       ParamBlobEncoder::Begin(set.spec, 1, &sink));
  ASSERT_OK(encoder.Append(set.models[0]));
  ASSERT_OK(encoder.Finish());
  EXPECT_EQ(sink.bytes(), EncodeParamBlob(set));
  EXPECT_TRUE(encoder.Append(set.models[0]).IsInvalidArgument());
  EXPECT_TRUE(encoder.Finish().IsInvalidArgument());
}

TEST_F(StreamingTest, RejectsMismatchedModel) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn69Spec(), 1, 7));
  VectorSink sink;
  ASSERT_OK_AND_ASSIGN(ParamBlobEncoder encoder,
                       ParamBlobEncoder::Begin(Ffnn48Spec(), 1, &sink));
  EXPECT_TRUE(encoder.Append(set.models[0]).IsInvalidArgument());
}

TEST_F(StreamingTest, CompressedSaveStreamsThroughTheCompressor) {
  // Compression is one stage of the same sink chain, so a compressed save
  // stores the frame of exactly the bytes the encoder streamed.
  TempDir temp("streaming-compressed");
  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.blob_compression = Compression::kShuffleLz;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 6, 9));
  ASSERT_OK_AND_ASSIGN(SaveResult saved,
                       manager->SaveInitial(ApproachType::kBaseline, set));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> stored,
                       manager->file_store()->Get(saved.set_id + ".params.bin"));
  EXPECT_EQ(stored, CompressBlob(Compression::kShuffleLz, EncodeParamBlob(set)));
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(saved.set_id));
  EXPECT_TRUE(recovered.models[5][2].second.Equals(set.models[5][2].second));
}

TEST_F(StreamingTest, StreamedSetCanSeedAnUpdateChain) {
  // A streamed snapshot is a normal baseline set; Baseline recovers it and
  // a fresh Update chain can start from the same models.
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 8, 8));
  ASSERT_OK_AND_ASSIGN(SaveResult saved,
                       manager_->SaveInitial(ApproachType::kBaseline, set));
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager_->Recover(saved.set_id));
  ASSERT_OK(
      manager_->SaveInitial(ApproachType::kUpdate, recovered).status());
}

}  // namespace
}  // namespace mmm
