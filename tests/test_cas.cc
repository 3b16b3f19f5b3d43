#include "cas/cas_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cas/blob_io.h"
#include "cas/chunker.h"
#include "cas/manifest.h"
#include "common/rng.h"
#include "core/gc.h"
#include "core/inspect.h"
#include "core/manager.h"
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

TEST(ManifestTest, RejectsCorruptPayloads) {
  EXPECT_TRUE(DecodeManifest(std::vector<uint8_t>{}).status().IsCorruption());
  std::vector<uint8_t> wrong_magic = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  EXPECT_TRUE(DecodeManifest(wrong_magic).status().IsCorruption());

  CasManifest manifest;
  manifest.raw_size = 10;
  manifest.chunks.push_back({"tooshort", 10});
  std::vector<uint8_t> bad_hash = EncodeManifest(manifest);
  EXPECT_TRUE(DecodeManifest(bad_hash).status().IsCorruption());

  std::vector<uint8_t> truncated = EncodeManifest(CasManifest{});
  truncated.resize(truncated.size() - 3);
  EXPECT_TRUE(DecodeManifest(truncated).status().IsCorruption());
}

TEST(ManifestTest, ChunkNamespaceHelpers) {
  const std::string hex(64, 'c');
  const std::string name = ChunkBlobName(hex);
  EXPECT_TRUE(IsChunkBlobName(name));
  EXPECT_FALSE(IsChunkBlobName("set-000001-abcd.params.bin"));
  EXPECT_EQ(ChunkHexOfBlobName(name), hex);
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

  size_t CountChunkBlobs(ModelSetManager* manager) {
    size_t chunks = 0;
    for (const std::string& name :
         manager->file_store()->List().ValueOrDie()) {
      if (IsChunkBlobName(name)) ++chunks;
    }
    return chunks;
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
  EXPECT_GT(CountChunkBlobs(cas.get()), 0u);
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
  EXPECT_EQ(stats.orphan_chunks, 0u);
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

  size_t chunks_before = CountChunkBlobs(manager.get());
  ASSERT_GT(chunks_before, 0u);

  // Deleting A reclaims only the chunks B does not share.
  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       DeleteSet(manager->context(), a.set_id));
  EXPECT_GT(report.chunks_swept, 0u);
  size_t chunks_after = CountChunkBlobs(manager.get());
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
  EXPECT_EQ(CountChunkBlobs(manager.get()), 0u);
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
  size_t live_chunks = CountChunkBlobs(manager.get());
  ASSERT_GT(live_chunks, 0u);

  // Plant a chunk blob no manifest references (what an aborted commit's
  // already-written chunk writes leave behind).
  std::vector<uint8_t> junk = RandomBytes(100, /*seed=*/23);
  const std::string junk_name =
      ChunkBlobName(Sha256::Hash(std::span<const uint8_t>(junk)).ToHex());
  ASSERT_OK(manager->file_store()->Put(junk_name, junk));

  ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                       FindOrphanBlobs(manager->context()));
  ASSERT_EQ(orphans.orphan_blobs.size(), 1u);
  EXPECT_EQ(orphans.orphan_blobs[0], junk_name);

  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       SweepOrphanBlobs(manager->context()));
  EXPECT_EQ(report.chunks_swept, 1u);
  EXPECT_EQ(CountChunkBlobs(manager.get()), live_chunks);
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

  // Corrupt one chunk's content behind the store's back.
  std::vector<std::string> chunk_names;
  for (const std::string& name : manager->file_store()->List().ValueOrDie()) {
    if (IsChunkBlobName(name)) chunk_names.push_back(name);
  }
  ASSERT_FALSE(chunk_names.empty());
  std::vector<uint8_t> garbage = RandomBytes(64, /*seed=*/29);
  ASSERT_OK(manager->file_store()->Put(chunk_names[0], garbage));

  std::vector<std::string> problems;
  ASSERT_OK(manager->cas()->Audit(&problems));
  EXPECT_FALSE(problems.empty());
}

// Each chunk read checks the chunk's size against the manifest. Behind the
// store's back, one chunk grows by a byte, one loses a byte and one is
// deleted, in turn: the streaming recovery and CasReadBlob both fail, with
// Corruption for a resized chunk and NotFound for the missing one, and the
// error names the chunk.
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
  std::vector<std::string> hashes;
  for (const CasChunkRef& ref : manifest.chunks) {
    if (std::find(hashes.begin(), hashes.end(), ref.hash_hex) == hashes.end()) {
      hashes.push_back(ref.hash_hex);
    }
  }
  ASSERT_GE(hashes.size(), 3u);

  Env* env = Env::Default();
  enum class Damage { kAppend, kTruncate, kDelete };
  const std::pair<Damage, std::string> cases[] = {
      {Damage::kAppend, hashes[0]},
      {Damage::kTruncate, hashes[hashes.size() / 2]},
      {Damage::kDelete, hashes.back()}};
  for (const auto& [damage, hash] : cases) {
    SCOPED_TRACE("chunk " + hash);
    const std::string path = store->root() + "/" + ChunkBlobName(hash);
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> original, env->ReadFile(path));
    std::vector<uint8_t> damaged = original;
    if (damage == Damage::kAppend) damaged.push_back(0x5a);
    if (damage == Damage::kTruncate) damaged.pop_back();
    if (damage == Damage::kDelete) {
      ASSERT_OK(env->DeleteFile(path));
    } else {
      ASSERT_OK(env->WriteFile(path, damaged));
    }

    const Status streamed = manager->Recover(saved.set_id).status();
    const Status materialized = CasReadBlob(store, manifest_name).status();
    for (const Status& status : {streamed, materialized}) {
      ASSERT_FALSE(status.ok());
      if (damage == Damage::kDelete) {
        EXPECT_TRUE(status.IsNotFound()) << status.ToString();
      } else {
        EXPECT_TRUE(status.IsCorruption()) << status.ToString();
      }
      EXPECT_NE(status.ToString().find(hash), std::string::npos)
          << status.ToString();
    }

    ASSERT_OK(env->WriteFile(path, original));
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(saved.set_id));
    ExpectSetEquals(recovered, scenario_->current_set());
  }
}

}  // namespace
}  // namespace mmm
