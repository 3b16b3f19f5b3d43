#include "cas/cas_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <set>
#include <thread>

#include "cas/blob_io.h"
#include "cas/chunker.h"
#include "cas/manifest.h"
#include "cas/pack.h"
#include "common/rng.h"
#include "core/gc.h"
#include "core/inspect.h"
#include "core/manager.h"
#include "serialize/crc32.h"
#include "serialize/sha256.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.NextBounded(256));
  return out;
}

CasOptions SmallChunkOptions() {
  CasOptions options;
  options.enabled = true;
  options.min_chunk_bytes = 64;
  options.avg_chunk_bytes = 256;
  options.max_chunk_bytes = 1024;
  options.min_blob_bytes = 256;
  return options;
}

/// An MMCASM1 manifest, as stores written before the binary manifest hold:
/// the magic and a one-line JSON record, built by hand.
std::vector<uint8_t> VersionOneManifest(const CasManifest& manifest) {
  std::string text = "MMCASM1\n{\"raw_size\":" +
                     std::to_string(manifest.raw_size) +
                     ",\"raw_crc\":" + std::to_string(manifest.raw_crc) +
                     ",\"chunks\":[";
  for (size_t i = 0; i < manifest.chunks.size(); ++i) {
    if (i > 0) text += ",";
    text += "[\"" + manifest.chunks[i].hash_hex + "\"," +
            std::to_string(manifest.chunks[i].length) + "]";
  }
  text += "]}";
  return std::vector<uint8_t>(text.begin(), text.end());
}

/// `payload` with its last 4 bytes replaced by the CRC-32 of the rest: an
/// MMCASM2 manifest edited behind its CRC, resealed.
std::vector<uint8_t> Resealed(std::vector<uint8_t> payload) {
  payload.resize(payload.size() - 4);
  const uint32_t crc = Crc32::Compute(payload);
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return payload;
}

// ---------------------------------------------------------------------------
// Chunker properties.

TEST(ChunkerTest, SpansTileTheInputExactly) {
  CasOptions options = SmallChunkOptions();
  for (size_t size : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                      size_t{1000}, size_t{4096}, size_t{100000}}) {
    std::vector<uint8_t> data = RandomBytes(size, /*seed=*/size + 1);
    std::vector<ChunkSpan> spans = ChunkBlob(data, options);
    size_t cursor = 0;
    for (const ChunkSpan& span : spans) {
      EXPECT_EQ(span.offset, cursor) << "blob size " << size;
      cursor += span.length;
    }
    EXPECT_EQ(cursor, size);
    if (size > 0) {
      EXPECT_FALSE(spans.empty());
    }
  }
}

TEST(ChunkerTest, RespectsMinAndMaxBounds) {
  CasOptions options = SmallChunkOptions();
  std::vector<uint8_t> data = RandomBytes(200000, /*seed=*/7);
  std::vector<ChunkSpan> spans = ChunkBlob(data, options);
  ASSERT_GT(spans.size(), 10u);  // content-defined cuts actually fire
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LE(spans[i].length, options.max_chunk_bytes);
    if (i + 1 < spans.size()) {
      EXPECT_GE(spans[i].length, options.min_chunk_bytes);
    }
  }
}

TEST(ChunkerTest, IsDeterministic) {
  CasOptions options = SmallChunkOptions();
  std::vector<uint8_t> data = RandomBytes(50000, /*seed=*/11);
  std::vector<ChunkSpan> a = ChunkBlob(data, options);
  std::vector<ChunkSpan> b = ChunkBlob(data, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].length, b[i].length);
  }
}

// The point of content-defined chunking: one flipped byte re-chunks only
// the neighborhood of the edit, so the other chunks dedup against the
// previous version.
TEST(ChunkerTest, SingleByteEditKeepsMostBoundaries) {
  CasOptions options = SmallChunkOptions();
  std::vector<uint8_t> data = RandomBytes(100000, /*seed=*/13);
  std::vector<uint8_t> edited = data;
  edited[50000] ^= 0xff;

  auto chunk_keys = [&](const std::vector<uint8_t>& blob) {
    std::multiset<std::string> keys;
    for (const ChunkSpan& span : ChunkBlob(blob, options)) {
      keys.insert(std::string(
          reinterpret_cast<const char*>(blob.data()) + span.offset,
          span.length));
    }
    return keys;
  };
  std::multiset<std::string> before = chunk_keys(data);
  std::multiset<std::string> after = chunk_keys(edited);
  std::vector<std::string> shared;
  std::set_intersection(before.begin(), before.end(), after.begin(),
                        after.end(), std::back_inserter(shared));
  // All but the few chunks around the edit are byte-identical.
  EXPECT_GE(shared.size() + 4, before.size());
  EXPECT_LT(shared.size(), before.size());  // the edit did change something
}

TEST(ChunkerTest, FixedSizeModeCutsEveryAvg) {
  CasOptions options = SmallChunkOptions();
  options.fixed_size = true;
  std::vector<uint8_t> data = RandomBytes(1000, /*seed=*/17);
  std::vector<ChunkSpan> spans = ChunkBlob(data, options);
  ASSERT_EQ(spans.size(), 4u);  // 256 + 256 + 256 + 232
  for (size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_EQ(spans[i].length, options.avg_chunk_bytes);
  }
  EXPECT_EQ(spans.back().length, 1000u % options.avg_chunk_bytes);
}

TEST(ChunkerTest, ValidateRejectsBadConfigs) {
  CasOptions options = SmallChunkOptions();
  options.avg_chunk_bytes = 300;  // not a power of two
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = SmallChunkOptions();
  options.min_chunk_bytes = 512;  // min > avg
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = SmallChunkOptions();
  options.max_chunk_bytes = 128;  // max < avg
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = SmallChunkOptions();
  options.min_blob_bytes = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = SmallChunkOptions();
  options.max_chunk_bytes = uint64_t{1} << 32;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  EXPECT_OK(SmallChunkOptions().Validate());
  EXPECT_OK(CasOptions{}.Validate());
}

// ---------------------------------------------------------------------------
// Manifest codec.

TEST(ManifestTest, RoundTrips) {
  CasManifest manifest;
  manifest.raw_size = 12345;
  manifest.raw_crc = 0xdeadbeef;
  manifest.chunks.push_back({std::string(64, 'a'), 4096});
  manifest.chunks.push_back({std::string(64, 'b'), 8249});

  std::vector<uint8_t> encoded = EncodeManifest(manifest);
  ASSERT_TRUE(IsManifestPayload(encoded));
  ASSERT_OK_AND_ASSIGN(CasManifest decoded, DecodeManifest(encoded));
  EXPECT_EQ(decoded.raw_size, manifest.raw_size);
  EXPECT_EQ(decoded.raw_crc, manifest.raw_crc);
  ASSERT_EQ(decoded.chunks.size(), 2u);
  EXPECT_EQ(decoded.chunks[0].hash_hex, manifest.chunks[0].hash_hex);
  EXPECT_EQ(decoded.chunks[1].length, manifest.chunks[1].length);
}

// The JSON manifests of older stores still decode.
TEST(ManifestTest, DecodesVersionOneManifests) {
  CasManifest manifest;
  manifest.raw_size = 12345;
  manifest.raw_crc = 0xdeadbeef;
  manifest.chunks.push_back({std::string(64, 'a'), 4096});
  manifest.chunks.push_back({std::string(64, 'b'), 8249});

  std::vector<uint8_t> encoded = VersionOneManifest(manifest);
  ASSERT_TRUE(IsManifestPayload(encoded));
  ASSERT_OK_AND_ASSIGN(CasManifest decoded, DecodeManifest(encoded));
  EXPECT_EQ(decoded.raw_size, manifest.raw_size);
  EXPECT_EQ(decoded.raw_crc, manifest.raw_crc);
  ASSERT_EQ(decoded.chunks.size(), 2u);
  EXPECT_EQ(decoded.chunks[1].hash_hex, manifest.chunks[1].hash_hex);
  EXPECT_EQ(decoded.chunks[1].length, manifest.chunks[1].length);
}

// Malformed manifests of either version are Corruption, never a manifest:
// no magic, an MMCASM1 hash that is not a digest, truncated payloads.
TEST(ManifestTest, RejectsCorruptPayloads) {
  EXPECT_TRUE(DecodeManifest(std::vector<uint8_t>{}).status().IsCorruption());
  std::vector<uint8_t> wrong_magic = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  EXPECT_TRUE(DecodeManifest(wrong_magic).status().IsCorruption());

  // MMCASM2 stores raw digests, so only a JSON manifest can hold a hash
  // that is not one.
  CasManifest manifest;
  manifest.raw_size = 10;
  manifest.chunks.push_back({"tooshort", 10});
  std::vector<uint8_t> bad_hash = VersionOneManifest(manifest);
  EXPECT_TRUE(DecodeManifest(bad_hash).status().IsCorruption());

  for (std::vector<uint8_t> truncated :
       {VersionOneManifest(CasManifest{}), EncodeManifest(CasManifest{})}) {
    truncated.resize(truncated.size() - 3);
    EXPECT_TRUE(DecodeManifest(truncated).status().IsCorruption());
  }
}

// MMCASM2 damage, each Corruption: a flipped byte anywhere, truncation at
// any length, trailing bytes, and, behind a resealed CRC, a chunk count
// larger than the body holds, a cut-off entry or trailing bytes.
TEST(ManifestTest, RejectsCorruptBinaryManifests) {
  CasManifest manifest;
  manifest.raw_size = 300;
  manifest.raw_crc = 0x12345678;
  manifest.chunks.push_back(
      {Sha256::Hash(std::string_view("first")).ToHex(), 200});
  manifest.chunks.push_back(
      {Sha256::Hash(std::string_view("second")).ToHex(), 100});
  const std::vector<uint8_t> encoded = EncodeManifest(manifest);
  ASSERT_OK(DecodeManifest(encoded).status());

  for (size_t at = 0; at < encoded.size(); ++at) {
    std::vector<uint8_t> flipped = encoded;
    flipped[at] ^= 0x01;
    EXPECT_TRUE(DecodeManifest(flipped).status().IsCorruption())
        << "flipped byte " << at;
  }
  for (size_t size = 0; size < encoded.size(); ++size) {
    const std::vector<uint8_t> truncated(encoded.begin(),
                                         encoded.begin() + size);
    EXPECT_TRUE(DecodeManifest(truncated).status().IsCorruption())
        << "truncated to " << size;
    if (size > kCasManifestMagicSize + 4) {
      EXPECT_TRUE(DecodeManifest(Resealed(truncated)).status().IsCorruption())
          << "truncated to " << size << " and resealed";
    }
  }
  std::vector<uint8_t> trailing = encoded;
  trailing.push_back(0);
  EXPECT_TRUE(DecodeManifest(trailing).status().IsCorruption());
  trailing.insert(trailing.end(), {0, 0, 0});
  EXPECT_TRUE(DecodeManifest(Resealed(trailing)).status().IsCorruption());

  BinaryWriter oversized;
  oversized.WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(kCasManifestMagic),
      kCasManifestMagicSize));
  oversized.WriteVarint(300);
  oversized.WriteUint32(0);
  oversized.WriteVarint(uint64_t{1} << 40);  // chunks, with none following
  oversized.WriteUint32(0);                  // the CRC, resealed below
  const Status status =
      DecodeManifest(Resealed(oversized.TakeBuffer())).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("claims"), std::string::npos)
      << status.ToString();
}

TEST(ManifestTest, ChunkNamespaceHelpers) {
  const std::string hex(64, 'c');
  const std::string name = ChunkBlobName(hex);
  EXPECT_TRUE(IsChunkBlobName(name));
  EXPECT_FALSE(IsChunkBlobName("set-000001-abcd.params.bin"));
  EXPECT_EQ(ChunkHexOfBlobName(name), hex);

  EXPECT_EQ(PackBlobName(42), "pack-0000000000000042");
  EXPECT_TRUE(IsPackBlobName(PackBlobName(42)));
  EXPECT_EQ(PackIdOfBlobName(PackBlobName(42)), 42u);
  EXPECT_EQ(PackIdOfBlobName("pack-12"), 0u);
  EXPECT_EQ(PackIdOfBlobName("set-000001-abcd.params.bin"), 0u);
}

// ---------------------------------------------------------------------------
// Pack format.

TEST(PackTest, IndexRoundTripsAndTilesTheData) {
  InMemoryEnv env;
  VectorSink sink;
  PackWriter writer(&sink);
  const std::vector<uint8_t> a = RandomBytes(300, 1);
  const std::vector<uint8_t> b = RandomBytes(17, 2);
  const std::string a_hex = Sha256::Hash(std::span<const uint8_t>(a)).ToHex();
  const std::string b_hex = Sha256::Hash(std::span<const uint8_t>(b)).ToHex();
  ASSERT_OK(writer.Add(a_hex, a, Crc32::Compute(a)));
  ASSERT_OK(writer.Add(b_hex, b, Crc32::Compute(b)));
  // Chunks go to the sink as they are added; the index follows at Finish.
  EXPECT_EQ(sink.bytes().size(), a.size() + b.size());
  ASSERT_OK(writer.Finish());
  const std::vector<uint8_t> pack = sink.Take();
  EXPECT_EQ(writer.size(), pack.size());
  ASSERT_EQ(pack.size(), a.size() + b.size() + 2 * kCasPackEntrySize +
                             kCasPackFooterSize);
  ASSERT_OK(env.WriteFile("/p", pack));

  ASSERT_OK_AND_ASSIGN(std::vector<PackEntry> entries,
                       ReadPackIndex(&env, "/p"));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].hash_hex, a_hex);
  EXPECT_EQ(entries[0].offset, 0u);
  EXPECT_EQ(entries[0].length, a.size());
  EXPECT_EQ(entries[1].hash_hex, b_hex);
  EXPECT_EQ(entries[1].offset, a.size());
  EXPECT_EQ(entries[1].crc, Crc32::Compute(b));

  // A torn pack, a flipped index byte, and an index that does not tile the
  // data region are all Corruption.
  std::vector<uint8_t> torn(pack.begin(), pack.end() - 5);
  ASSERT_OK(env.WriteFile("/torn", torn));
  EXPECT_TRUE(ReadPackIndex(&env, "/torn").status().IsCorruption());
  std::vector<uint8_t> flipped = pack;
  flipped[a.size() + b.size() + 3] ^= 0x10;
  ASSERT_OK(env.WriteFile("/flipped", flipped));
  EXPECT_TRUE(ReadPackIndex(&env, "/flipped").status().IsCorruption());
  std::vector<PackEntry> wrong = entries;
  wrong[1].length += 1;
  std::vector<uint8_t> untiled(pack.begin(),
                               pack.begin() + a.size() + b.size());
  const std::vector<uint8_t> index = EncodePackIndex(wrong);
  untiled.insert(untiled.end(), index.begin(), index.end());
  ASSERT_OK(env.WriteFile("/untiled", untiled));
  EXPECT_TRUE(ReadPackIndex(&env, "/untiled").status().IsCorruption());
}

// ---------------------------------------------------------------------------
// End-to-end through the manager.

class CasManagerTest : public ::testing::Test {
 protected:
  CasManagerTest() : temp_("cas") {}

  void InitScenario(int models = 10, double full_update_fraction = 0.05,
                    double partial_update_fraction = 0.05) {
    ScenarioConfig config = ScenarioConfig::Battery(models);
    config.samples_per_dataset = 32;
    config.full_update_fraction = full_update_fraction;
    config.partial_update_fraction = partial_update_fraction;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    ASSERT_OK(scenario_->Init());
  }

  ModelSetManager::Options BaseOptions(const std::string& subdir) {
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/" + subdir;
    options.resolver = scenario_.get();
    return options;
  }

  std::unique_ptr<ModelSetManager> OpenCas(const std::string& subdir,
                                           size_t lanes = 1) {
    ModelSetManager::Options options = BaseOptions(subdir);
    options.cas = SmallChunkOptions();
    options.pipeline.lanes = lanes;
    return ModelSetManager::Open(std::move(options)).ValueOrDie();
  }

  void ExpectSetEquals(const ModelSet& a, const ModelSet& b) {
    ASSERT_EQ(a.models.size(), b.models.size());
    ASSERT_EQ(a.spec, b.spec);
    for (size_t m = 0; m < a.models.size(); ++m) {
      ASSERT_EQ(a.models[m].size(), b.models[m].size());
      for (size_t p = 0; p < a.models[m].size(); ++p) {
        ASSERT_EQ(a.models[m][p].first, b.models[m][p].first);
        ASSERT_TRUE(a.models[m][p].second.Equals(b.models[m][p].second))
            << "model " << m << " param " << a.models[m][p].first;
      }
    }
  }

  /// Distinct chunks the index holds.
  size_t CountChunks(ModelSetManager* manager) {
    return manager->cas()->ComputeStats().ValueOrDie().unique_chunks;
  }

  /// Pack blob names in the store, sorted.
  std::vector<std::string> PackNames(ModelSetManager* manager) {
    std::vector<std::string> packs;
    for (const std::string& name :
         manager->file_store()->List().ValueOrDie()) {
      EXPECT_FALSE(IsChunkBlobName(name)) << "chunk file " << name;
      if (IsPackBlobName(name)) packs.push_back(name);
    }
    return packs;
  }

  void ExpectHealthy(ModelSetManager* manager) {
    ASSERT_OK_AND_ASSIGN(StoreValidationReport health,
                         manager->ValidateStore());
    EXPECT_TRUE(health.ok()) << (health.problems.empty()
                                     ? ""
                                     : health.problems.front());
    ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                         FindOrphanBlobs(manager->context()));
    EXPECT_TRUE(orphans.clean()) << orphans.orphan_blobs.front();
  }

  /// Rewrites `manager`'s closed store in the per-chunk-file layout of
  /// older stores: every pack's chunks become `cas-<hex>` files and the
  /// packs go. Manifests and the checkpoint stay as they are.
  static void ConvertToChunkFiles(Env* env, const std::string& blob_dir) {
    for (const std::string& name : env->ListDir(blob_dir).ValueOrDie()) {
      if (!IsPackBlobName(name)) continue;
      const std::string path = blob_dir + "/" + name;
      const std::vector<PackEntry> entries =
          ReadPackIndex(env, path).ValueOrDie();
      const std::vector<uint8_t> pack = env->ReadFile(path).ValueOrDie();
      for (const PackEntry& entry : entries) {
        env->WriteFile(blob_dir + "/" + ChunkBlobName(entry.hash_hex),
                       std::span<const uint8_t>(pack.data() + entry.offset,
                                                entry.length))
            .Check();
      }
      env->DeleteFile(path).Check();
    }
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
};

// CAS-on recovery is bit-exact with CAS-off, for every approach and for
// both serial and multi-lane pipelines.
class CasApproachSweep
    : public CasManagerTest,
      public ::testing::WithParamInterface<std::tuple<ApproachType, size_t>> {};

TEST_P(CasApproachSweep, RecoveryBitExactWithAndWithoutCas) {
  const auto [type, lanes] = GetParam();
  InitScenario();
  ModelSetManager::Options plain_options = BaseOptions("plain");
  plain_options.pipeline.lanes = lanes;
  auto plain = ModelSetManager::Open(std::move(plain_options)).ValueOrDie();
  auto cas = OpenCas("cas", lanes);

  // Same states saved to both stores: initial + two derived cycles.
  ASSERT_OK_AND_ASSIGN(SaveResult plain_head,
                       plain->SaveInitial(type, scenario_->current_set()));
  ASSERT_OK_AND_ASSIGN(SaveResult cas_head,
                       cas->SaveInitial(type, scenario_->current_set()));
  std::vector<std::pair<std::string, std::string>> ids = {
      {plain_head.set_id, cas_head.set_id}};
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    update.base_set_id = ids.back().first;
    ASSERT_OK_AND_ASSIGN(
        SaveResult p, plain->SaveDerived(type, scenario_->current_set(), update));
    update.base_set_id = ids.back().second;
    ASSERT_OK_AND_ASSIGN(
        SaveResult c, cas->SaveDerived(type, scenario_->current_set(), update));
    ids.emplace_back(p.set_id, c.set_id);
  }

  for (const auto& [plain_id, cas_id] : ids) {
    ASSERT_OK_AND_ASSIGN(ModelSet expected, plain->Recover(plain_id));
    ASSERT_OK_AND_ASSIGN(ModelSet actual, cas->Recover(cas_id));
    ExpectSetEquals(actual, expected);
  }

  // Selective recovery reads ranges through chunked blobs bit-exactly too.
  const std::vector<size_t> indices = {0, 3, 7};
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> expected_models,
                       plain->RecoverModels(ids.back().first, indices));
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> actual_models,
                       cas->RecoverModels(ids.back().second, indices));
  ASSERT_EQ(actual_models.size(), expected_models.size());
  for (size_t i = 0; i < actual_models.size(); ++i) {
    ASSERT_EQ(actual_models[i].size(), expected_models[i].size());
    for (size_t p = 0; p < actual_models[i].size(); ++p) {
      EXPECT_EQ(actual_models[i][p].first, expected_models[i][p].first);
      EXPECT_TRUE(
          actual_models[i][p].second.Equals(expected_models[i][p].second));
    }
  }

  // The CAS store is healthy and actually chunked something.
  EXPECT_GT(CountChunks(cas.get()), 0u);
  EXPECT_FALSE(PackNames(cas.get()).empty());
  ASSERT_OK_AND_ASSIGN(StoreValidationReport health, cas->ValidateStore());
  EXPECT_TRUE(health.ok()) << (health.problems.empty()
                                   ? ""
                                   : health.problems.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllApproaches, CasApproachSweep,
    ::testing::Combine(::testing::Values(ApproachType::kMMlibBase,
                                         ApproachType::kBaseline,
                                         ApproachType::kUpdate,
                                         ApproachType::kProvenance),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<ApproachType, size_t>>& info) {
      std::string name = ApproachTypeName(std::get<0>(info.param)) + "_lanes" +
                         std::to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST_F(CasManagerTest, DerivedSnapshotsDedupAgainstTheBase) {
  InitScenario(12);
  auto manager = OpenCas("store");
  // Baseline writes a full snapshot per version; consecutive versions share
  // most parameter bytes, so their chunks dedup.
  ASSERT_OK_AND_ASSIGN(
      SaveResult first,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  std::string head = first.set_id;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    update.base_set_id = head;
    ASSERT_OK_AND_ASSIGN(SaveResult saved,
                         manager->SaveDerived(ApproachType::kBaseline,
                                              scenario_->current_set(), update));
    head = saved.set_id;
  }
  ASSERT_OK_AND_ASSIGN(CasStore::Stats stats, manager->cas()->ComputeStats());
  EXPECT_GE(stats.manifests, 4u);  // at least the four param blobs chunked
  EXPECT_EQ(stats.orphan_packs, 0u);
  EXPECT_GT(stats.packs, 0u);
  // Four nearly identical snapshots: physical chunk bytes must be far below
  // the 4x logical bytes (the paper's cross-set dedup claim, in miniature).
  EXPECT_GT(stats.dedup_ratio(), 2.0)
      << "logical " << stats.manifest_raw_bytes << " physical "
      << stats.chunk_bytes;
  // Refcount histogram covers every chunk.
  uint64_t histogram_total = 0;
  for (const auto& [refs, count] : stats.refcount_histogram) {
    EXPECT_GT(refs, 0u);
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, stats.unique_chunks);
}

TEST_F(CasManagerTest, DeleteDecrementsAndSweepsOnlyUnsharedChunks) {
  // Update half the models per cycle so consecutive snapshots have both
  // shared and unshared chunks.
  InitScenario(8, /*full_update_fraction=*/0.5, /*partial_update_fraction=*/0.25);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult a,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  update.base_set_id = a.set_id;
  ASSERT_OK_AND_ASSIGN(SaveResult b,
                       manager->SaveDerived(ApproachType::kBaseline,
                                            scenario_->current_set(), update));
  ModelSet b_state = scenario_->current_set();

  size_t chunks_before = CountChunks(manager.get());
  ASSERT_GT(chunks_before, 0u);

  // Deleting A reclaims only the chunks B does not share.
  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       DeleteSet(manager->context(), a.set_id));
  EXPECT_GT(report.chunks_swept, 0u);
  size_t chunks_after = CountChunks(manager.get());
  EXPECT_LT(chunks_after, chunks_before);
  EXPECT_GT(chunks_after, 0u);  // shared chunks survived

  // B recovers bit-exactly from the surviving shared chunks.
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(b.set_id));
  ExpectSetEquals(recovered, b_state);
  ASSERT_OK_AND_ASSIGN(StoreValidationReport health, manager->ValidateStore());
  EXPECT_TRUE(health.ok()) << (health.problems.empty()
                                   ? ""
                                   : health.problems.front());

  // Deleting B reclaims everything; no chunk outlives its last reference.
  ASSERT_OK_AND_ASSIGN(DeleteReport final_report,
                       DeleteSet(manager->context(), b.set_id));
  EXPECT_GT(final_report.chunks_swept, 0u);
  EXPECT_EQ(CountChunks(manager.get()), 0u);
  EXPECT_TRUE(manager->file_store()->List().ValueOrDie().empty());
}

TEST_F(CasManagerTest, RetainOnlySweepsUnreferencedChunks) {
  InitScenario(8);
  auto manager = OpenCas("store");
  std::vector<std::string> ids;
  ASSERT_OK_AND_ASSIGN(
      SaveResult first,
      manager->SaveInitial(ApproachType::kUpdate, scenario_->current_set()));
  ids.push_back(first.set_id);
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    update.base_set_id = ids.back();
    ASSERT_OK_AND_ASSIGN(SaveResult saved,
                         manager->SaveDerived(ApproachType::kUpdate,
                                              scenario_->current_set(), update));
    ids.push_back(saved.set_id);
  }
  ModelSet tip_state = scenario_->current_set();

  // An unrelated baseline snapshot that retention will delete.
  ASSERT_OK(scenario_->AdvanceCycle().status());
  ASSERT_OK_AND_ASSIGN(
      SaveResult doomed,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));

  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       RetainOnly(manager->context(), {ids.back()}));
  EXPECT_EQ(report.sets_deleted, 1u);
  EXPECT_EQ(report.deleted_set_ids[0], doomed.set_id);

  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(ids.back()));
  ExpectSetEquals(recovered, tip_state);
  ASSERT_OK_AND_ASSIGN(StoreValidationReport health, manager->ValidateStore());
  EXPECT_TRUE(health.ok()) << (health.problems.empty()
                                   ? ""
                                   : health.problems.front());
}

TEST_F(CasManagerTest, ReopenRebuildsIndexAndAutoEnables) {
  InitScenario(8);
  std::string set_id;
  ModelSet saved_state;
  std::map<std::string, uint64_t> refs_before;
  {
    auto manager = OpenCas("store");
    ASSERT_OK_AND_ASSIGN(
        SaveResult saved,
        manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
    set_id = saved.set_id;
    saved_state = scenario_->current_set();
    refs_before = manager->cas()->ChunkRefsSnapshot();
    ASSERT_FALSE(refs_before.empty());
  }

  // Reopen WITHOUT asking for CAS: the cas.index marker re-enables it, so
  // chunked blobs never meet CAS-blind GC.
  ModelSetManager::Options options = BaseOptions("store");
  ASSERT_OK_AND_ASSIGN(auto reopened, ModelSetManager::Open(std::move(options)));
  ASSERT_NE(reopened->cas(), nullptr);
  EXPECT_EQ(reopened->cas()->ChunkRefsSnapshot(), refs_before);

  ASSERT_OK_AND_ASSIGN(ModelSet recovered, reopened->Recover(set_id));
  ExpectSetEquals(recovered, saved_state);

  // GC on the reopened store still sweeps chunks.
  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       DeleteSet(reopened->context(), set_id));
  EXPECT_GT(report.chunks_swept, 0u);
  EXPECT_TRUE(reopened->file_store()->List().ValueOrDie().empty());
}

/// Counts the writes that reach one path; every call passes straight
/// through to the in-memory store.
class WriteCountingEnv : public InMemoryEnv {
 public:
  explicit WriteCountingEnv(std::string watched)
      : watched_(std::move(watched)) {}

  Status WriteFile(const std::string& path,
                   std::span<const uint8_t> data) override {
    if (path == watched_) ++writes_;
    return InMemoryEnv::WriteFile(path, data);
  }
  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override {
    if (path == watched_) ++writes_;
    return InMemoryEnv::AppendToFile(path, data);
  }

  int writes() const { return writes_.load(); }

 private:
  const std::string watched_;
  std::atomic<int> writes_{0};
};

// `cas.index` is a marker written once, by the Open of a store that does
// not have it yet. No commit, sweep or repack writes it, and neither does
// a reopen.
TEST_F(CasManagerTest, OnlyTheFirstOpenWritesTheMarker) {
  InitScenario(8, /*full_update_fraction=*/0.75,
               /*partial_update_fraction=*/0.25);
  ModelSetManager::Options options = BaseOptions("store");
  options.cas = SmallChunkOptions();
  const std::string marker = options.root_dir + "/cas.index";
  WriteCountingEnv env(marker);
  options.env = &env;
  ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(options));
  EXPECT_EQ(env.writes(), 1);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> written, env.ReadFile(marker));
  EXPECT_LT(written.size(), 16u);

  ASSERT_OK_AND_ASSIGN(
      SaveResult a,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  ASSERT_OK(scenario_->AdvanceCycle().status());
  ASSERT_OK_AND_ASSIGN(
      SaveResult b,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  const ModelSet b_state = scenario_->current_set();
  // B shares under half of A's pack, so deleting A sweeps and repacks.
  ASSERT_OK_AND_ASSIGN(DeleteReport deleted,
                       DeleteSet(manager->context(), a.set_id));
  EXPECT_GT(deleted.chunks_swept, 0u);
  EXPECT_GT(deleted.packs_repacked, 0u);
  ASSERT_OK(manager->cas()->SweepZeroRefChunks().status());
  EXPECT_EQ(env.writes(), 1);
  ExpectHealthy(manager.get());

  manager.reset();
  ASSERT_OK_AND_ASSIGN(manager, ModelSetManager::Open(options));
  EXPECT_EQ(env.writes(), 1);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> reread, env.ReadFile(marker));
  EXPECT_EQ(reread, written);
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(b.set_id));
  ExpectSetEquals(recovered, b_state);
}

// Only the marker's presence counts. A store whose `cas.index` is the full
// JSON checkpoint older stores rewrote on every commit, or a file torn to
// nothing, reopens with CAS on without asking for it, recovers bit-exact
// and passes fsck; the file is left as it was.
TEST_F(CasManagerTest, AnyMarkerContentReenablesCas) {
  InitScenario(8);
  const std::vector<std::string> contents = {
      "{\"version\":1,\"chunks\":[[\"00ab\",2,64]],"
      "\"manifests\":[[\"set.params.bin\",64,[[\"00ab\",64]]]]}",
      ""};
  for (size_t i = 0; i < contents.size(); ++i) {
    const std::string subdir = "store" + std::to_string(i);
    std::string set_id;
    {
      auto manager = OpenCas(subdir);
      ASSERT_OK_AND_ASSIGN(SaveResult saved,
                           manager->SaveInitial(ApproachType::kBaseline,
                                                scenario_->current_set()));
      set_id = saved.set_id;
    }
    Env* env = Env::Default();
    const std::string marker = temp_.path() + "/" + subdir + "/cas.index";
    const std::vector<uint8_t> content(contents[i].begin(), contents[i].end());
    ASSERT_OK(env->WriteFile(marker, content));

    ASSERT_OK_AND_ASSIGN(auto reopened,
                         ModelSetManager::Open(BaseOptions(subdir)));
    ASSERT_NE(reopened->cas(), nullptr) << subdir;
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, reopened->Recover(set_id));
    ExpectSetEquals(recovered, scenario_->current_set());
    ExpectHealthy(reopened.get());
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> kept, env->ReadFile(marker));
    EXPECT_EQ(kept, content) << subdir;
  }
}

// fsck flags a store that holds packs and manifests but has lost its
// marker: a reopen that does not ask for CAS would leave it off.
TEST_F(CasManagerTest, AuditFlagsAMissingMarker) {
  InitScenario(8);
  auto manager = OpenCas("store");
  ASSERT_OK(manager
                ->SaveInitial(ApproachType::kBaseline, scenario_->current_set())
                .status());
  ASSERT_OK(Env::Default()->DeleteFile(manager->cas()->marker_path()));
  ASSERT_OK_AND_ASSIGN(StoreValidationReport health, manager->ValidateStore());
  ASSERT_EQ(health.problems.size(), 1u);
  EXPECT_NE(health.problems[0].find("cas.index"), std::string::npos)
      << health.problems[0];

  // An open writes it back.
  manager.reset();
  manager = OpenCas("store");
  ExpectHealthy(manager.get());
}

TEST_F(CasManagerTest, MixedStoreOldVerbatimBlobsStayReadable) {
  InitScenario(8);
  std::string old_id;
  ModelSet old_state;
  {
    ModelSetManager::Options options = BaseOptions("store");
    auto plain = ModelSetManager::Open(std::move(options)).ValueOrDie();
    ASSERT_OK_AND_ASSIGN(
        SaveResult saved,
        plain->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
    old_id = saved.set_id;
    old_state = scenario_->current_set();
  }

  // Enable CAS on the existing store: old blobs stay verbatim and readable,
  // new saves chunk.
  ModelSetManager::Options options = BaseOptions("store");
  options.cas = SmallChunkOptions();
  ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(std::move(options)));
  ASSERT_OK_AND_ASSIGN(ModelSet old_recovered, manager->Recover(old_id));
  ExpectSetEquals(old_recovered, old_state);
  EXPECT_FALSE(manager->cas()->IsManifest(old_id + ".params.bin"));

  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  update.base_set_id = old_id;
  ASSERT_OK_AND_ASSIGN(SaveResult new_saved,
                       manager->SaveDerived(ApproachType::kBaseline,
                                            scenario_->current_set(), update));
  EXPECT_TRUE(manager->cas()->IsManifest(new_saved.set_id + ".params.bin"));
  ASSERT_OK_AND_ASSIGN(ModelSet new_recovered, manager->Recover(new_saved.set_id));
  ExpectSetEquals(new_recovered, scenario_->current_set());
  ASSERT_OK_AND_ASSIGN(StoreValidationReport health, manager->ValidateStore());
  EXPECT_TRUE(health.ok()) << (health.problems.empty()
                                   ? ""
                                   : health.problems.front());
}

TEST_F(CasManagerTest, CompactionComposesWithCas) {
  InitScenario(8);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult first,
      manager->SaveInitial(ApproachType::kUpdate, scenario_->current_set()));
  std::string head = first.set_id;
  for (int cycle = 0; cycle < 4; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    update.base_set_id = head;
    ASSERT_OK_AND_ASSIGN(SaveResult saved,
                         manager->SaveDerived(ApproachType::kUpdate,
                                              scenario_->current_set(), update));
    head = saved.set_id;
  }
  ModelSet tip_state = scenario_->current_set();

  CompactionPolicy policy;
  policy.max_chain_depth = 1;
  ASSERT_OK_AND_ASSIGN(CompactionReport report, manager->CompactChains(policy));
  EXPECT_GT(report.sets_rebased, 0u);

  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(head));
  ExpectSetEquals(recovered, tip_state);
  ASSERT_OK_AND_ASSIGN(StoreValidationReport health, manager->ValidateStore());
  EXPECT_TRUE(health.ok()) << (health.problems.empty()
                                   ? ""
                                   : health.problems.front());
  ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                       FindOrphanBlobs(manager->context()));
  EXPECT_TRUE(orphans.clean());
}

TEST_F(CasManagerTest, OrphanSweepReclaimsUntrackedChunksOnly) {
  InitScenario(8);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult saved,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  const size_t live_chunks = CountChunks(manager.get());
  const std::vector<std::string> live_packs = PackNames(manager.get());
  ASSERT_GT(live_chunks, 0u);

  // Plant a pack no index entry references (what an aborted commit's
  // already-written pack leaves behind).
  std::vector<uint8_t> junk = RandomBytes(100, /*seed=*/23);
  VectorSink sink;
  PackWriter writer(&sink);
  ASSERT_OK(writer.Add(Sha256::Hash(std::span<const uint8_t>(junk)).ToHex(),
                       junk, Crc32::Compute(junk)));
  ASSERT_OK(writer.Finish());
  const std::string junk_name = PackBlobName(999);
  ASSERT_OK(manager->file_store()->Put(junk_name, sink.bytes()));

  ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                       FindOrphanBlobs(manager->context()));
  ASSERT_EQ(orphans.orphan_blobs.size(), 1u);
  EXPECT_EQ(orphans.orphan_blobs[0], junk_name);

  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       SweepOrphanBlobs(manager->context()));
  EXPECT_EQ(report.blobs_deleted, 1u);
  EXPECT_EQ(CountChunks(manager.get()), live_chunks);
  EXPECT_EQ(PackNames(manager.get()), live_packs);
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(saved.set_id));
  ExpectSetEquals(recovered, scenario_->current_set());
}

TEST_F(CasManagerTest, AuditFlagsMissingAndCorruptChunks) {
  InitScenario(8);
  auto manager = OpenCas("store");
  ASSERT_OK(manager
                ->SaveInitial(ApproachType::kBaseline, scenario_->current_set())
                .status());
  std::vector<std::string> clean;
  ASSERT_OK(manager->cas()->Audit(&clean));
  EXPECT_TRUE(clean.empty()) << clean.front();

  // Corrupt one chunk's bytes inside its pack behind the store's back: the
  // audit re-hashes every live chunk from its pack range.
  Env* env = Env::Default();
  const auto locations = manager->cas()->ChunkLocationsSnapshot();
  ASSERT_FALSE(locations.empty());
  const auto& [hex, where] = *locations.begin();
  const std::string pack_path =
      manager->file_store()->root() + "/" + PackBlobName(where.pack);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> original, env->ReadFile(pack_path));
  std::vector<uint8_t> damaged = original;
  damaged[where.offset] ^= 0x01;
  ASSERT_OK(env->WriteFile(pack_path, damaged));
  std::vector<std::string> problems;
  ASSERT_OK(manager->cas()->Audit(&problems));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find(hex), std::string::npos) << problems.front();

  // A missing pack is flagged too, and so is a pack nothing references.
  ASSERT_OK(env->DeleteFile(pack_path));
  problems.clear();
  ASSERT_OK(manager->cas()->Audit(&problems));
  EXPECT_FALSE(problems.empty());
  ASSERT_OK(env->WriteFile(pack_path, original));
  VectorSink sink;
  PackWriter writer(&sink);
  std::vector<uint8_t> junk = RandomBytes(64, /*seed=*/29);
  ASSERT_OK(writer.Add(Sha256::Hash(std::span<const uint8_t>(junk)).ToHex(),
                       junk, Crc32::Compute(junk)));
  ASSERT_OK(writer.Finish());
  ASSERT_OK(env->WriteFile(
      manager->file_store()->root() + "/" + PackBlobName(where.pack + 100),
      sink.bytes()));
  problems.clear();
  ASSERT_OK(manager->cas()->Audit(&problems));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("nothing references"), std::string::npos)
      << problems[0];
}

// Each chunk read checks the chunk against its manifest length and its
// pack-index CRC before handing it on. Behind the store's back, in turn:
// the pack is truncated into its chunks, deleted, has a byte flipped inside
// one chunk's range, and gets an index that disagrees with its bytes. The
// streaming recovery and CasReadBlobString both fail — Corruption for damage,
// NotFound for the missing pack — never with wrong bytes, and the error
// names a chunk of the blob and the pack (the damaged chunk, where one is).
TEST_F(CasManagerTest, ResizedOrMissingChunksFailNamingTheChunk) {
  InitScenario(8);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult saved,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  FileStore* store = manager->file_store();

  // The largest manifest is the parameter snapshot.
  std::string manifest_name;
  CasManifest manifest;
  for (const std::string& name : store->List().ValueOrDie()) {
    if (!manager->cas()->IsManifest(name)) continue;
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, store->Get(name));
    ASSERT_OK_AND_ASSIGN(CasManifest decoded, DecodeManifest(bytes));
    if (decoded.chunks.size() > manifest.chunks.size()) {
      manifest_name = name;
      manifest = std::move(decoded);
    }
  }
  ASSERT_GE(manifest.chunks.size(), 3u);
  const std::vector<std::string> packs = PackNames(manager.get());
  ASSERT_EQ(packs.size(), 1u);  // one commit, one pack
  const std::string pack_path = store->root() + "/" + packs[0];
  Env* env = Env::Default();
  ASSERT_OK_AND_ASSIGN(const std::vector<uint8_t> original,
                       env->ReadFile(pack_path));
  ASSERT_OK_AND_ASSIGN(const std::vector<PackEntry> entries,
                       ReadPackIndex(env, pack_path));
  const auto locations = manager->cas()->ChunkLocationsSnapshot();
  const CasChunkRef& middle = manifest.chunks[manifest.chunks.size() / 2];
  const ChunkLocation& middle_at = locations.at(middle.hash_hex);
  // Two adjacent pack entries of different lengths, both in the manifest.
  size_t swap = 0;
  while (swap + 1 < entries.size() &&
         entries[swap].length == entries[swap + 1].length) {
    ++swap;
  }
  ASSERT_LT(swap + 1, entries.size());

  // Each case with the chunks the error may name ("chunk " for any).
  enum class Damage { kTruncate, kDelete, kFlip, kIndex };
  const std::pair<Damage, std::vector<std::string>> cases[] = {
      {Damage::kTruncate, {"chunk "}},
      {Damage::kDelete, {"chunk "}},
      {Damage::kFlip, {middle.hash_hex}},
      {Damage::kIndex, {entries[swap].hash_hex, entries[swap + 1].hash_hex}}};
  for (const auto& [damage, named] : cases) {
    SCOPED_TRACE("damage " + std::to_string(static_cast<int>(damage)));
    std::vector<uint8_t> damaged = original;
    if (damage == Damage::kTruncate) damaged.resize(middle_at.offset + 1);
    if (damage == Damage::kFlip) damaged[middle_at.offset + 1] ^= 0x40;
    if (damage == Damage::kIndex) {
      // Swap two entries' lengths: the index still tiles the pack and
      // passes its own CRC, but now disagrees with the chunks' bytes.
      std::vector<PackEntry> wrong = entries;
      std::swap(wrong[swap].length, wrong[swap + 1].length);
      const std::vector<uint8_t> index = EncodePackIndex(wrong);
      damaged.resize(original.size() - index.size());
      damaged.insert(damaged.end(), index.begin(), index.end());
    }
    if (damage == Damage::kDelete) {
      ASSERT_OK(env->DeleteFile(pack_path));
    } else {
      ASSERT_OK(env->WriteFile(pack_path, damaged));
    }
    // The index is read at open, so a rewritten index needs a reopen.
    if (damage == Damage::kIndex) manager = OpenCas("store");

    const Status streamed = manager->Recover(saved.set_id).status();
    const Status materialized =
        CasReadBlobString(manager->file_store(), manager->cas(),
                          manifest_name)
            .status();
    for (const Status& status : {streamed, materialized}) {
      ASSERT_FALSE(status.ok());
      if (damage == Damage::kDelete) {
        EXPECT_TRUE(status.IsNotFound()) << status.ToString();
      } else {
        EXPECT_TRUE(status.IsCorruption()) << status.ToString();
      }
      EXPECT_NE(status.ToString().find(packs[0]), std::string::npos)
          << status.ToString();
      EXPECT_TRUE(std::any_of(named.begin(), named.end(),
                              [&](const std::string& chunk) {
                                return status.ToString().find(chunk) !=
                                       std::string::npos;
                              }))
          << status.ToString();
    }

    ASSERT_OK(env->WriteFile(pack_path, original));
    if (damage == Damage::kIndex) manager = OpenCas("store");
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(saved.set_id));
    ExpectSetEquals(recovered, scenario_->current_set());
  }
}

// A payload that repeats a chunk: the chunk is stored once, read once, and
// replayed for its later uses, by every read entry point.
TEST_F(CasManagerTest, RepeatedChunksAreReadOnceAndReplayed) {
  InitScenario(4);
  ModelSetManager::Options options = BaseOptions("store");
  options.cas = SmallChunkOptions();
  options.cas.fixed_size = true;  // cuts every 256 bytes
  ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(std::move(options)));
  const std::vector<uint8_t> block = RandomBytes(256, /*seed=*/5);
  std::vector<uint8_t> payload;
  for (int copy = 0; copy < 6; ++copy) {
    payload.insert(payload.end(), block.begin(), block.end());
  }
  const std::vector<uint8_t> tail = RandomBytes(300, /*seed=*/6);
  payload.insert(payload.end(), tail.begin(), tail.end());
  StoreBatch batch = MakeBatch(manager->context());
  batch.PutBlob("repeats.bin", payload);
  ASSERT_OK(batch.Commit());
  FileStore* store = manager->file_store();
  CasStore* cas = manager->cas();
  ASSERT_TRUE(cas->IsManifest("repeats.bin"));
  ASSERT_OK_AND_ASSIGN(CasStore::Stats stats, cas->ComputeStats());
  EXPECT_EQ(stats.unique_chunks, 3u);  // the block and two pieces of tail

  const StoreStats before = store->stats();
  ASSERT_OK_AND_ASSIGN(std::string whole,
                       CasReadBlobString(store, cas, "repeats.bin"));
  EXPECT_EQ(std::vector<uint8_t>(whole.begin(), whole.end()), payload);
  EXPECT_EQ((store->stats() - before).read_ops, 2u);  // manifest + pack
  std::vector<uint8_t> streamed;
  ASSERT_OK(CasStreamBlob(store, cas, "repeats.bin", /*window_bytes=*/100,
                          nullptr, [&](std::span<const uint8_t> window) {
                            streamed.insert(streamed.end(), window.begin(),
                                            window.end());
                            return Status::OK();
                          }));
  EXPECT_EQ(streamed, payload);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> range,
                       CasReadBlobRange(store, cas, "repeats.bin", 200, 1000));
  EXPECT_EQ(range, std::vector<uint8_t>(payload.begin() + 200,
                                        payload.begin() + 1200));
}

// Each commit writes its new chunks into one pack, and a recovery reads a
// snapshot's chunks through a few ranged streams: here every chunk of one
// snapshot sits in one pack in manifest order, so the whole parameter blob
// costs one pack read on top of the manifest.
TEST_F(CasManagerTest, RecoveryReadsEachPackThroughFewRangedStreams) {
  InitScenario(8);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult saved,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  ASSERT_EQ(PackNames(manager.get()).size(), 1u);
  ASSERT_OK_AND_ASSIGN(CasStore::Stats stats, manager->cas()->ComputeStats());
  ASSERT_GT(stats.unique_chunks, 20u);

  const StoreStats before = manager->file_store()->stats();
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(saved.set_id));
  ExpectSetEquals(recovered, scenario_->current_set());
  const StoreStats delta = manager->file_store()->stats() - before;
  // Arch blob, param manifest, and one stream per chunked blob's pack.
  EXPECT_LE(delta.read_ops, 6u) << delta.read_ops << " reads for "
                                << stats.unique_chunks << " chunks";
}

// A sweep that leaves a pack less than half live copies its live chunks
// into a new pack and deletes it; a pack with no live chunk is deleted.
TEST_F(CasManagerTest, RepackMovesLiveChunksAndDropsDeadPacks) {
  InitScenario(8, /*full_update_fraction=*/0.75,
               /*partial_update_fraction=*/0.25);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult a,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  const std::vector<std::string> a_packs = PackNames(manager.get());
  ASSERT_EQ(a_packs.size(), 1u);
  ASSERT_OK(scenario_->AdvanceCycle().status());
  ASSERT_OK_AND_ASSIGN(
      SaveResult b,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  const ModelSet b_state = scenario_->current_set();
  ASSERT_EQ(PackNames(manager.get()).size(), 2u);

  ASSERT_OK(DeleteSet(manager->context(), a.set_id).status());
  const std::vector<std::string> after = PackNames(manager.get());
  EXPECT_EQ(std::count(after.begin(), after.end(), a_packs[0]), 0)
      << "A's pack survived although B references under half of it";
  EXPECT_GT(after.back(), a_packs[0]);
  ASSERT_OK_AND_ASSIGN(CasStore::Stats stats, manager->cas()->ComputeStats());
  EXPECT_GE(stats.live_fraction(), CasStore::kRepackLiveFraction);
  for (const auto& [hex, where] : manager->cas()->ChunkLocationsSnapshot()) {
    EXPECT_NE(PackBlobName(where.pack), a_packs[0]) << hex;
  }
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(b.set_id));
  ExpectSetEquals(recovered, b_state);
  ExpectHealthy(manager.get());

  // The repacked layout survives a reopen unchanged.
  manager.reset();
  manager = OpenCas("store");
  EXPECT_EQ(PackNames(manager.get()), after);
  ASSERT_OK_AND_ASSIGN(recovered, manager->Recover(b.set_id));
  ExpectSetEquals(recovered, b_state);
}

// A repack that lands between a recovery's location lookup and its pack
// read: the recovery resolved (and pinned) the old pack, the repack moves
// the chunks out and leaves the pinned pack in place, and the recovery
// ends bit-exact. The last reader out deletes the emptied pack.
TEST_F(CasManagerTest, RepackBetweenLocationLookupAndPackReadStaysBitExact) {
  InitScenario(8, /*full_update_fraction=*/0.75,
               /*partial_update_fraction=*/0.25);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult a,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  const std::string a_pack = PackNames(manager.get()).front();
  ASSERT_OK(scenario_->AdvanceCycle().status());
  ASSERT_OK_AND_ASSIGN(
      SaveResult b,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  const ModelSet b_state = scenario_->current_set();

  bool repacked = false;
  bool pack_held = false;
  manager->cas()->SetResolveHookForTesting([&] {
    if (repacked) return;
    repacked = true;
    ASSERT_OK(DeleteSet(manager->context(), a.set_id).status());
    const std::vector<std::string> packs = PackNames(manager.get());
    pack_held = std::count(packs.begin(), packs.end(), a_pack) == 1;
  });
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(b.set_id));
  manager->cas()->SetResolveHookForTesting(nullptr);
  ASSERT_TRUE(repacked);
  EXPECT_TRUE(pack_held) << "the repack deleted a pack a reader had pinned";
  ExpectSetEquals(recovered, b_state);

  const std::vector<std::string> packs = PackNames(manager.get());
  EXPECT_EQ(std::count(packs.begin(), packs.end(), a_pack), 0);
  ExpectHealthy(manager.get());
  ASSERT_OK_AND_ASSIGN(recovered, manager->Recover(b.set_id));
  ExpectSetEquals(recovered, b_state);
}

// Recoveries on two threads while the writer deletes and saves sets, so
// sweeps repack under the readers (label cas runs under TSan).
TEST_F(CasManagerTest, ConcurrentRecoveriesSurviveRepackingGc) {
  InitScenario(8, /*full_update_fraction=*/0.75,
               /*partial_update_fraction=*/0.25);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult kept,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  const ModelSet kept_state = scenario_->current_set();

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto got = manager->Recover(kept.set_id);
        if (!got.ok()) {
          ++bad;
          continue;
        }
        const ModelSet& set = got.ValueOrDie();
        for (size_t m = 0; m < set.models.size(); ++m) {
          for (size_t p = 0; p < set.models[m].size(); ++p) {
            const Tensor& want = kept_state.models[m][p].second;
            if (!set.models[m][p].second.Equals(want)) ++bad;
          }
        }
      }
    });
  }
  for (int cycle = 0; cycle < 4; ++cycle) {
    ASSERT_OK(scenario_->AdvanceCycle().status());
    ASSERT_OK_AND_ASSIGN(
        SaveResult other, manager->SaveInitial(ApproachType::kBaseline,
                                               scenario_->current_set()));
    ASSERT_OK(DeleteSet(manager->context(), other.set_id).status());
  }
  done = true;
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(bad.load(), 0);
  ExpectHealthy(manager.get());
}

/// Parks the first pack write after Arm() until Release(); every other
/// call passes straight through to the in-memory store.
class PackParkingEnv : public InMemoryEnv {
 public:
  Status WriteFile(const std::string& path,
                   std::span<const uint8_t> data) override {
    MaybePark(path);
    return InMemoryEnv::WriteFile(path, data);
  }
  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override {
    MaybePark(path);
    return InMemoryEnv::AppendToFile(path, data);
  }

  void Arm() { armed_ = true; }
  /// Ready once a pack write is parked.
  std::future<void> Parked() { return parked_.get_future(); }
  void Release() { release_.set_value(); }

 private:
  void MaybePark(const std::string& path) {
    if (!IsPackBlobName(path.substr(path.rfind('/') + 1)) ||
        !armed_.exchange(false)) {
      return;
    }
    parked_.set_value();
    released_.wait();
  }

  std::atomic<bool> armed_{false};
  std::promise<void> parked_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

// A save's pack appends run outside the chunk index's lock: while a save
// is parked inside a pack write (its new chunks outgrow one write window,
// so the pack reaches the Env while chunks are still being added), a
// recovery of an already committed chunked set resolves its chunks and
// finishes. Both sets then recover bit-exact and the store is healthy.
TEST_F(CasManagerTest, RecoveryFinishesWhileASavesPackWriteIsParked) {
  PackParkingEnv env;
  ModelSetManager::Options options = BaseOptions("store");
  options.cas = SmallChunkOptions();
  options.env = &env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ModelSetManager> manager,
                       ModelSetManager::Open(std::move(options)));
  // 100 FFNN-48 models are ~2 MB of chunks, more than one write window.
  ASSERT_OK_AND_ASSIGN(ModelSet first, MakeInitializedSet(Ffnn48Spec(), 100, 1));
  ASSERT_OK_AND_ASSIGN(ModelSet second,
                       MakeInitializedSet(Ffnn48Spec(), 100, 2));
  ASSERT_OK_AND_ASSIGN(SaveResult committed,
                       manager->SaveInitial(ApproachType::kBaseline, first));

  env.Arm();
  std::future<void> parked = env.Parked();
  std::future<Result<SaveResult>> save = std::async(std::launch::async, [&] {
    return manager->SaveInitial(ApproachType::kBaseline, second);
  });
  const bool was_parked = parked.wait_for(std::chrono::seconds(60)) ==
                          std::future_status::ready;
  std::future<Result<ModelSet>> recovery;
  bool finished = false;
  if (was_parked) {
    recovery = std::async(std::launch::async,
                          [&] { return manager->Recover(committed.set_id); });
    finished = recovery.wait_for(std::chrono::seconds(30)) ==
               std::future_status::ready;
  }
  // Released before any assertion can return, so the save always ends.
  env.Release();
  ASSERT_TRUE(was_parked) << "no pack write reached the Env mid-save";
  EXPECT_TRUE(finished) << "the recovery waited for the parked pack write";
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, recovery.get());
  ExpectSetEquals(recovered, first);

  ASSERT_OK_AND_ASSIGN(SaveResult saved, save.get());
  ASSERT_OK_AND_ASSIGN(recovered, manager->Recover(saved.set_id));
  ExpectSetEquals(recovered, second);
  ExpectHealthy(manager.get());
}

// A store in the per-chunk-file layout (one `cas-<hex>` file per chunk) is
// packed on open: one pack, no chunk file left, every set bit-exact, fsck
// clean — and opening it again changes nothing.
TEST_F(CasManagerTest, OpenMigratesChunkFilesIntoOnePack) {
  InitScenario(8);
  std::vector<std::pair<std::string, ModelSet>> saved;
  {
    auto manager = OpenCas("store");
    for (ApproachType type : {ApproachType::kMMlibBase, ApproachType::kBaseline,
                              ApproachType::kUpdate,
                              ApproachType::kProvenance}) {
      ASSERT_OK_AND_ASSIGN(
          SaveResult result,
          manager->SaveInitial(type, scenario_->current_set()));
      saved.emplace_back(result.set_id, scenario_->current_set());
      ASSERT_OK(scenario_->AdvanceCycle().status());
    }
    ASSERT_GT(PackNames(manager.get()).size(), 1u);
  }
  const std::string blob_dir = temp_.path() + "/store/blobs";
  ConvertToChunkFiles(Env::Default(), blob_dir);
  size_t chunk_files = 0;
  for (const std::string& name :
       Env::Default()->ListDir(blob_dir).ValueOrDie()) {
    chunk_files += IsChunkBlobName(name) ? 1 : 0;
  }
  ASSERT_GT(chunk_files, 0u);

  for (int open = 0; open < 2; ++open) {
    SCOPED_TRACE("open " + std::to_string(open));
    auto manager = OpenCas("store");
    EXPECT_EQ(PackNames(manager.get()).size(), 1u);
    ASSERT_OK_AND_ASSIGN(CasStore::Stats stats, manager->cas()->ComputeStats());
    EXPECT_EQ(stats.unique_chunks, chunk_files);
    EXPECT_EQ(stats.dead_bytes, 0u);
    for (const auto& [id, state] : saved) {
      ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(id));
      ExpectSetEquals(recovered, state);
    }
    ExpectHealthy(manager.get());
  }
}

// A store whose manifests are all MMCASM1 JSON, as older stores hold them:
// CasStore::Open indexes it, every set recovers bit-exact and the store
// passes fsck; new saves beside them write MMCASM2.
TEST_F(CasManagerTest, VersionOneManifestsStillOpenRecoverAndPassFsck) {
  InitScenario(8);
  std::vector<std::pair<std::string, ModelSet>> saved;
  {
    auto manager = OpenCas("store");
    for (ApproachType type : {ApproachType::kMMlibBase, ApproachType::kBaseline,
                              ApproachType::kUpdate,
                              ApproachType::kProvenance}) {
      ASSERT_OK_AND_ASSIGN(
          SaveResult result,
          manager->SaveInitial(type, scenario_->current_set()));
      saved.emplace_back(result.set_id, scenario_->current_set());
    }
  }
  Env* env = Env::Default();
  const std::string blob_dir = temp_.path() + "/store/blobs";
  size_t rewritten = 0;
  for (const std::string& name : env->ListDir(blob_dir).ValueOrDie()) {
    const std::string path = blob_dir + "/" + name;
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, env->ReadFile(path));
    if (!IsManifestPayload(bytes)) continue;
    ASSERT_OK_AND_ASSIGN(CasManifest manifest, DecodeManifest(bytes));
    ASSERT_OK(env->WriteFile(path, VersionOneManifest(manifest)));
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);

  auto manager = OpenCas("store");
  for (const auto& [id, state] : saved) {
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(id));
    ExpectSetEquals(recovered, state);
  }
  ExpectHealthy(manager.get());
  std::vector<std::string> problems;
  ASSERT_OK(manager->cas()->Audit(&problems));
  EXPECT_TRUE(problems.empty()) << problems.front();

  ASSERT_OK(scenario_->AdvanceCycle().status());
  ASSERT_OK_AND_ASSIGN(
      SaveResult fresh,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  ASSERT_OK_AND_ASSIGN(SetDocument doc,
                       FetchSetDocument(manager->context(), fresh.set_id));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> manifest,
                       manager->file_store()->Get(doc.param_blob));
  EXPECT_EQ(std::memcmp(manifest.data(), kCasManifestMagic,
                        kCasManifestMagicSize),
            0);
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(fresh.set_id));
  ExpectSetEquals(recovered, scenario_->current_set());
  ASSERT_OK_AND_ASSIGN(recovered, manager->Recover(saved[1].first));
  ExpectSetEquals(recovered, saved[1].second);
  ExpectHealthy(manager.get());
}

// A chunked raw param blob is checked by the CRC its chunk checks yield,
// not by a second pass: one whose chunks and manifest agree with its bytes
// but whose own footer is wrong still fails recovery and fsck.
TEST_F(CasManagerTest, ChunkedParamBlobWithAWrongFooterFails) {
  InitScenario(8);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult saved,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  ASSERT_OK_AND_ASSIGN(SetDocument doc,
                       FetchSetDocument(manager->context(), saved.set_id));
  std::vector<uint8_t> blob = EncodeParamBlob(scenario_->current_set());
  blob.back() ^= 0x01;
  StoreBatch batch = MakeBatch(manager->context());
  batch.PutBlob(doc.param_blob, blob);
  ASSERT_OK(batch.Commit());
  ASSERT_TRUE(manager->cas()->IsManifest(doc.param_blob));
  ASSERT_OK_AND_ASSIGN(
      std::string stored,
      CasReadBlobString(manager->file_store(), manager->cas(), doc.param_blob));
  ASSERT_EQ(std::vector<uint8_t>(stored.begin(), stored.end()), blob);

  const Status status = manager->Recover(saved.set_id).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("blob crc mismatch"), std::string::npos)
      << status.ToString();
  ASSERT_OK_AND_ASSIGN(StoreValidationReport report, manager->ValidateStore());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.problems.front().find("blob crc mismatch"),
            std::string::npos)
      << report.problems.front();
}

// A manifest whose raw_crc disagrees with its chunks fails reassembly,
// though every chunk passes its own check: the CRC combined from the chunk
// CRCs is compared with the manifest's.
TEST_F(CasManagerTest, ManifestCrcMismatchFailsReassembly) {
  InitScenario(8);
  auto manager = OpenCas("store");
  ASSERT_OK_AND_ASSIGN(
      SaveResult saved,
      manager->SaveInitial(ApproachType::kBaseline, scenario_->current_set()));
  ASSERT_OK_AND_ASSIGN(SetDocument doc,
                       FetchSetDocument(manager->context(), saved.set_id));
  const std::string path =
      manager->file_store()->root() + "/" + doc.param_blob;
  Env* env = Env::Default();
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, env->ReadFile(path));
  ASSERT_OK_AND_ASSIGN(CasManifest manifest, DecodeManifest(bytes));
  manifest.raw_crc ^= 0x01;
  ASSERT_OK(env->WriteFile(path, EncodeManifest(manifest)));

  for (const Status& status :
       {manager->Recover(saved.set_id).status(),
        CasReadBlobString(manager->file_store(), manager->cas(),
                          doc.param_blob)
            .status()}) {
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_NE(status.ToString().find("fails its manifest crc"),
              std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace mmm
