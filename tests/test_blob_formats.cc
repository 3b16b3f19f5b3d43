#include "core/blob_formats.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mmm {
namespace {

ModelSet SmallSet(size_t count, uint64_t seed = 1) {
  return MakeInitializedSet(Ffnn48Spec(), count, seed).ValueOrDie();
}

TEST(StateDictBlobTest, RoundTrip) {
  ModelSet set = SmallSet(1);
  std::vector<uint8_t> blob = EncodeStateDict(set.models[0]);
  ASSERT_OK_AND_ASSIGN(StateDict decoded, DecodeStateDict(blob));
  ASSERT_EQ(decoded.size(), set.models[0].size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].first, set.models[0][i].first);
    EXPECT_TRUE(decoded[i].second.Equals(set.models[0][i].second));
  }
}

TEST(StateDictBlobTest, DetectsBitFlip) {
  std::vector<uint8_t> blob = EncodeStateDict(SmallSet(1).models[0]);
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_TRUE(DecodeStateDict(blob).status().IsCorruption());
}

TEST(StateDictBlobTest, DetectsTruncation) {
  std::vector<uint8_t> blob = EncodeStateDict(SmallSet(1).models[0]);
  blob.resize(blob.size() - 10);
  EXPECT_TRUE(DecodeStateDict(blob).status().IsCorruption());
}

TEST(StateDictBlobTest, CarriesLayerNameOverheadVsParamBlob) {
  // The per-model format must be strictly larger than its share of the
  // set-level format — this is O1, the redundancy Baseline removes.
  ModelSet set = SmallSet(10);
  size_t per_model = EncodeStateDict(set.models[0]).size();
  size_t set_blob = EncodeParamBlob(set).size();
  EXPECT_GT(per_model * 10, set_blob);
}

TEST(ParamBlobTest, RoundTrip) {
  ModelSet set = SmallSet(5);
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> decoded,
                       DecodeParamBlob(set.spec, blob, 5));
  ASSERT_EQ(decoded.size(), 5u);
  for (size_t m = 0; m < 5; ++m) {
    for (size_t p = 0; p < decoded[m].size(); ++p) {
      EXPECT_EQ(decoded[m][p].first, set.models[m][p].first);
      EXPECT_TRUE(decoded[m][p].second.Equals(set.models[m][p].second));
    }
  }
}

TEST(ParamBlobTest, SizeIsDominatedByRawFloats) {
  ModelSet set = SmallSet(20);
  size_t raw = 20 * 4993 * sizeof(float);
  size_t blob = EncodeParamBlob(set).size();
  EXPECT_GE(blob, raw);
  EXPECT_LT(blob, raw + 64);  // header + crc only
}

TEST(ParamBlobTest, WrongArchitectureFails) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  EXPECT_TRUE(DecodeParamBlob(Ffnn69Spec(), blob, 2).status().IsCorruption());
}

TEST(ParamBlobTest, DetectsBitFlip) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  blob[100] ^= 0x01;
  EXPECT_TRUE(DecodeParamBlob(set.spec, blob, 2).status().IsCorruption());
}

TEST(ParamBlobTest, EmptySetRoundTrips) {
  ModelSet set;
  set.spec = Ffnn48Spec();
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> decoded,
                       DecodeParamBlob(set.spec, blob, 0));
  EXPECT_TRUE(decoded.empty());
}

TEST(HashTableTest, ComputeShape) {
  ModelSet set = SmallSet(3);
  HashTable hashes = ComputeHashTable(set);
  ASSERT_EQ(hashes.size(), 3u);
  EXPECT_EQ(hashes[0].size(), 8u);  // 4 layers x (weight, bias)
}

TEST(HashTableTest, SensitiveToSingleParamChange) {
  ModelSet set = SmallSet(3);
  HashTable before = ComputeHashTable(set);
  set.models[1][2].second.at(0) += 1e-7f;
  HashTable after = ComputeHashTable(set);
  EXPECT_EQ(before[0], after[0]);
  EXPECT_EQ(before[2], after[2]);
  EXPECT_NE(before[1][2], after[1][2]);
  EXPECT_EQ(before[1][3], after[1][3]);
}

TEST(HashTableTest, EncodeDecodeRoundTrip) {
  HashTable hashes = ComputeHashTable(SmallSet(4));
  std::vector<uint8_t> blob = EncodeHashTable(hashes);
  ASSERT_OK_AND_ASSIGN(HashTable decoded, DecodeHashTable(blob, 4));
  EXPECT_EQ(decoded, hashes);
}

TEST(HashTableTest, BlobSizeIs32BytesPerEntryPlusHeader) {
  HashTable hashes = ComputeHashTable(SmallSet(10));
  size_t blob = EncodeHashTable(hashes).size();
  EXPECT_NEAR(static_cast<double>(blob), 10 * 8 * 32, 32);
}

TEST(HashTableTest, DetectsCorruption) {
  std::vector<uint8_t> blob = EncodeHashTable(ComputeHashTable(SmallSet(2)));
  blob[50] ^= 0xff;
  EXPECT_TRUE(DecodeHashTable(blob, 2).status().IsCorruption());
}

TEST(DiffHashTablesTest, FindsExactlyChangedEntries) {
  ModelSet base = SmallSet(5);
  ModelSet current = base;
  current.models[0][0].second.at(3) += 1.0f;
  current.models[4][7].second.at(0) -= 0.5f;
  ASSERT_OK_AND_ASSIGN(
      std::vector<DiffEntry> entries,
      DiffHashTables(ComputeHashTable(base), ComputeHashTable(current)));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].model_index, 0u);
  EXPECT_EQ(entries[0].param_index, 0u);
  EXPECT_EQ(entries[1].model_index, 4u);
  EXPECT_EQ(entries[1].param_index, 7u);
}

TEST(DiffHashTablesTest, IdenticalSetsYieldNoEntries) {
  ModelSet set = SmallSet(3);
  ASSERT_OK_AND_ASSIGN(
      std::vector<DiffEntry> entries,
      DiffHashTables(ComputeHashTable(set), ComputeHashTable(set)));
  EXPECT_TRUE(entries.empty());
}

TEST(DiffHashTablesTest, MismatchedDimensionsFail) {
  HashTable a = ComputeHashTable(SmallSet(2));
  HashTable b = ComputeHashTable(SmallSet(3));
  EXPECT_TRUE(DiffHashTables(a, b).status().IsInvalidArgument());
}

TEST(DiffBlobTest, RoundTrip) {
  ModelSet set = SmallSet(4);
  std::vector<DiffEntry> entries{{1, 0}, {1, 1}, {3, 6}};
  std::vector<uint8_t> blob = EncodeDiffBlob(set, entries);
  ASSERT_OK_AND_ASSIGN(DecodedDiff diff, DecodeDiffBlob(set.spec, blob));
  ASSERT_EQ(diff.entries.size(), 3u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(diff.entries[i].model_index, entries[i].model_index);
    EXPECT_EQ(diff.entries[i].param_index, entries[i].param_index);
    EXPECT_TRUE(diff.tensors[i].Equals(
        set.models[entries[i].model_index][entries[i].param_index].second));
  }
}

TEST(DiffBlobTest, EmptyDiffRoundTrips) {
  ModelSet set = SmallSet(1);
  std::vector<uint8_t> blob = EncodeDiffBlob(set, {});
  ASSERT_OK_AND_ASSIGN(DecodedDiff diff, DecodeDiffBlob(set.spec, blob));
  EXPECT_TRUE(diff.entries.empty());
  EXPECT_LT(blob.size(), 32u);
}

TEST(DiffBlobTest, SizeTracksChangedParamsOnly) {
  ModelSet set = SmallSet(100);
  // One fc4 weight tensor (48 floats) + bias (1 float).
  std::vector<DiffEntry> entries{{7, 6}, {7, 7}};
  size_t blob = EncodeDiffBlob(set, entries).size();
  EXPECT_LT(blob, 49 * 4 + 64);
}

TEST(DiffBlobTest, OutOfRangeParamIndexFails) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> blob = EncodeDiffBlob(set, {{0, 0}});
  // Decode with a spec that has fewer parameter tensors.
  ArchitectureSpec tiny;
  tiny.family = "tiny";
  tiny.input_shape = {4};
  tiny.layers = {};
  EXPECT_TRUE(DecodeDiffBlob(tiny, blob).status().IsCorruption());
}

TEST(DiffBlobTest, DetectsCorruption) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> blob = EncodeDiffBlob(set, {{0, 0}});
  blob[20] ^= 0x10;
  EXPECT_TRUE(DecodeDiffBlob(set.spec, blob).status().IsCorruption());
}

TEST(ModelSetTest, CheckSetConsistentAcceptsValidSet) {
  EXPECT_OK(CheckSetConsistent(SmallSet(3)));
}

TEST(ModelSetTest, CheckSetConsistentRejectsWrongShape) {
  ModelSet set = SmallSet(2);
  set.models[1][0].second = Tensor(Shape{1});
  EXPECT_TRUE(CheckSetConsistent(set).IsInvalidArgument());
}

TEST(ModelSetTest, CheckSetConsistentRejectsWrongKey) {
  ModelSet set = SmallSet(2);
  set.models[0][0].first = "renamed";
  EXPECT_TRUE(CheckSetConsistent(set).IsInvalidArgument());
}

TEST(ModelSetTest, InitializedSetModelsDiffer) {
  ModelSet set = SmallSet(3);
  EXPECT_FALSE(set.models[0][0].second.Equals(set.models[1][0].second));
  EXPECT_FALSE(set.models[1][0].second.Equals(set.models[2][0].second));
}

TEST(ModelSetTest, InitializedSetIsSeedDeterministic) {
  ModelSet a = SmallSet(3, 9);
  ModelSet b = SmallSet(3, 9);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_TRUE(a.models[m][0].second.Equals(b.models[m][0].second));
  }
}

}  // namespace
}  // namespace mmm
