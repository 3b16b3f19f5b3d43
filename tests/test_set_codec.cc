#include "core/set_codec.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/blob_formats.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

// In-memory store context for codec-level tests.
class SetCodecTest : public ::testing::Test {
 protected:
  SetCodecTest()
      : file_store_(&env_, "/blobs"),
        doc_store_(&env_, "/wal"),
        ids_(7),
        context_{&file_store_, &doc_store_, &ids_, nullptr,
                 Compression::kNone, nullptr, {}} {
    file_store_.Open().Check();
    doc_store_.Open().Check();
  }

  InMemoryEnv env_;
  FileStore file_store_;
  DocumentStore doc_store_;
  IdGenerator ids_;
  StoreContext context_;
};

TEST_F(SetCodecTest, SetDocumentJsonRoundTrip) {
  SetDocument doc;
  doc.id = "set-000001-abc";
  doc.approach = "update";
  doc.kind = "delta";
  doc.base_set_id = "set-000000-def";
  doc.family = "FFNN-48";
  doc.num_models = 5000;
  doc.chain_depth = 3;
  doc.diff_blob = "set-000001-abc.diff.bin";
  doc.hash_blob = "set-000001-abc.hashes.bin";
  ASSERT_OK_AND_ASSIGN(SetDocument decoded, SetDocument::FromJson(doc.ToJson()));
  EXPECT_EQ(decoded.id, doc.id);
  EXPECT_EQ(decoded.kind, "delta");
  EXPECT_EQ(decoded.chain_depth, 3u);
  EXPECT_EQ(decoded.diff_blob, doc.diff_blob);
  EXPECT_EQ(decoded.arch_blob, "");
}

TEST_F(SetCodecTest, ArchBlobRoundTrip) {
  for (const ArchitectureSpec& spec :
       {Ffnn48Spec(), Ffnn69Spec(), CifarNetSpec()}) {
    ASSERT_OK_AND_ASSIGN(ArchitectureSpec decoded,
                         DecodeArchBlob(EncodeArchBlob(spec)));
    EXPECT_EQ(decoded, spec);
  }
}

TEST_F(SetCodecTest, ArchBlobRejectsGarbage) {
  EXPECT_TRUE(DecodeArchBlob("not json").status().IsCorruption());
  EXPECT_TRUE(DecodeArchBlob("{}").status().IsNotFound());
}

TEST_F(SetCodecTest, FullSnapshotRoundTrip) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 6, 1));
  SetDocument doc;
  doc.id = "set-x";
  doc.approach = "baseline";
  ASSERT_OK(WriteFullSnapshot(context_, "set-x", set, &doc));
  EXPECT_EQ(doc.kind, "full");
  EXPECT_EQ(doc.num_models, 6u);
  EXPECT_EQ(doc.family, "FFNN-48");
  ASSERT_OK_AND_ASSIGN(ModelSet read, ReadFullSnapshot(context_, doc));
  EXPECT_EQ(read.models.size(), 6u);
  EXPECT_TRUE(read.models[3][5].second.Equals(set.models[3][5].second));
}

TEST_F(SetCodecTest, ReadFullSnapshotChecksModelCount) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 2, 2));
  SetDocument doc;
  doc.id = "set-y";
  ASSERT_OK(WriteFullSnapshot(context_, "set-y", set, &doc));
  doc.num_models = 3;  // lie
  EXPECT_TRUE(ReadFullSnapshot(context_, doc).status().IsCorruption());
}

TEST_F(SetCodecTest, ReadFullSnapshotOnNonSnapshotFails) {
  SetDocument doc;
  doc.id = "set-z";
  doc.kind = "delta";
  EXPECT_TRUE(ReadFullSnapshot(context_, doc).status().IsCorruption());
}

TEST_F(SetCodecTest, InsertAndFetchSetDocument) {
  SetDocument doc;
  doc.id = "set-q";
  doc.approach = "baseline";
  ASSERT_OK(InsertSetDocument(context_, doc));
  ASSERT_OK_AND_ASSIGN(SetDocument fetched, FetchSetDocument(context_, "set-q"));
  EXPECT_EQ(fetched.approach, "baseline");
  EXPECT_TRUE(FetchSetDocument(context_, "ghost").status().IsNotFound());
  EXPECT_TRUE(InsertSetDocument(context_, doc).IsAlreadyExists());
}

TEST_F(SetCodecTest, CheckIndicesBounds) {
  EXPECT_OK(CheckIndices({}, 0));
  EXPECT_OK(CheckIndices({0, 4, 4}, 5));
  EXPECT_TRUE(CheckIndices({5}, 5).IsInvalidArgument());
}

TEST_F(SetCodecTest, ReadModelsFromSnapshotUsesRangedReads) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 20, 3));
  SetDocument doc;
  doc.id = "set-r";
  ASSERT_OK(WriteFullSnapshot(context_, "set-r", set, &doc));
  file_store_.ResetStats();
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> models,
                       ReadModelsFromSnapshot(context_, doc, {7, 13}));
  ASSERT_EQ(models.size(), 2u);
  EXPECT_TRUE(models[0][0].second.Equals(set.models[7][0].second));
  EXPECT_TRUE(models[1][0].second.Equals(set.models[13][0].second));
  // Bytes read: arch blob + header peek + two model slices, far below the
  // whole 20-model blob.
  EXPECT_LT(file_store_.stats().bytes_read, 20u * 4993 * 4 / 2);
}

TEST_F(SetCodecTest, ReadModelsFromCompressedSnapshotFallsBack) {
  StoreContext compressed = context_;
  compressed.blob_compression = Compression::kShuffleLz;
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 5, 4));
  SetDocument doc;
  doc.id = "set-c";
  ASSERT_OK(WriteFullSnapshot(compressed, "set-c", set, &doc));
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> models,
                       ReadModelsFromSnapshot(compressed, doc, {2}));
  EXPECT_TRUE(models[0][1].second.Equals(set.models[2][1].second));
}

TEST_F(SetCodecTest, ParamBlobHeaderRoundTrip) {
  ASSERT_OK_AND_ASSIGN(ModelSet set, MakeInitializedSet(Ffnn48Spec(), 3, 5));
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  ASSERT_OK_AND_ASSIGN(
      ParamBlobLayout layout,
      ReadParamBlobHeader(
          std::span<const uint8_t>(blob.data(), kParamBlobMaxHeaderBytes),
          LayoutOf(set.spec).size()));
  EXPECT_EQ(layout.num_models, 3u);
  EXPECT_EQ(layout.params_per_model, 4993u);
  EXPECT_EQ(layout.ModelBytes(), 4993u * 4);
  // The layer CRC table follows the floats, one row of 8 CRCs per model,
  // and the footer ends the blob.
  EXPECT_EQ(layout.CrcRowOffset(3) + 4, blob.size());
  EXPECT_EQ(layout.CrcRowOffset(0), layout.ModelOffset(3));
  uint32_t crc = 0;
  std::memcpy(&crc, blob.data() + layout.CrcRowOffset(1) + 7 * 4, 4);
  EXPECT_EQ(crc, LayerCrc(set.models[1][7].second));
  // Slicing at the computed offset yields model 1 exactly.
  std::span<const uint8_t> slice(blob.data() + layout.ModelOffset(1),
                                 layout.ModelBytes());
  ASSERT_OK_AND_ASSIGN(StateDict state, DecodeModelSlice(set.spec, slice));
  EXPECT_TRUE(state[0].second.Equals(set.models[1][0].second));
  EXPECT_TRUE(state[7].second.Equals(set.models[1][7].second));
}

TEST_F(SetCodecTest, ParamBlobHeaderRejectsWrongMagic) {
  std::vector<uint8_t> junk(30, 0x42);
  EXPECT_TRUE(ReadParamBlobHeader(junk, 8).status().IsCorruption());
}

TEST_F(SetCodecTest, DecodeModelSliceChecksSize) {
  std::vector<uint8_t> slice(10);
  EXPECT_TRUE(DecodeModelSlice(Ffnn48Spec(), slice).status().IsCorruption());
}

TEST_F(SetCodecTest, StatsCaptureMeasuresDeltas) {
  StatsCapture capture(context_);
  file_store_.PutString("blob", "0123456789").Check();
  JsonValue doc = JsonValue::Object();
  doc.Set("_id", "d");
  doc_store_.Insert("c", doc).Check();
  SaveResult result;
  capture.FillSave(&result);
  EXPECT_EQ(result.file_store_writes, 1u);
  EXPECT_EQ(result.doc_store_writes, 1u);
  EXPECT_GT(result.bytes_written, 10u);
}

}  // namespace
}  // namespace mmm
