// Streaming recovery (DESIGN.md §12) bit-exactness and fault tests.
//
// Every recovery reads blobs window by window through the incremental
// decoders. Each recovered set must be bit-for-bit the set that was saved,
// at every lane, worker and window count, with CAS on or off; under faults
// and corruption a recovery either returns those exact bytes or fails with
// a non-OK status. The peak-buffering test pins the point of the whole
// exercise (recovery never allocates whole-snapshot buffers).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/blob_formats.h"
#include "core/manager.h"
#include "serialize/compress.h"
#include "serve/service.h"
#include "serve/trace.h"
#include "storage/env.h"
#include "storage/stream_file.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using ::mmm::testing::TempDir;

void ExpectSetsEqual(const ModelSet& a, const ModelSet& b,
                     const std::string& label) {
  ASSERT_EQ(a.models.size(), b.models.size()) << label;
  for (size_t m = 0; m < a.models.size(); ++m) {
    ASSERT_EQ(a.models[m].size(), b.models[m].size()) << label << " model " << m;
    for (size_t p = 0; p < a.models[m].size(); ++p) {
      EXPECT_EQ(a.models[m][p].first, b.models[m][p].first)
          << label << " model " << m << " param " << p;
      EXPECT_TRUE(a.models[m][p].second.Equals(b.models[m][p].second))
          << label << " model " << m << " param " << p << " ("
          << a.models[m][p].first << ") differs";
    }
  }
}

struct StoreFixture {
  std::unique_ptr<MultiModelScenario> scenario;
  /// Saved ids, oldest first, across all four approaches and the version
  /// chain (initial + 2 derived cycles per approach).
  std::vector<std::string> ids;
  /// The set each id was saved from, parallel to `ids`.
  std::vector<ModelSet> saved;
};

/// Builds a store at `root` holding an initial set plus two update cycles
/// for every approach, then closes the writing manager (managers hold the
/// journal lock, so only one may be open on a root at a time).
StoreFixture BuildStore(const std::string& root, Env* env, bool cas_enabled,
                        Compression compression) {
  StoreFixture fixture;
  ScenarioConfig config = ScenarioConfig::Battery(6);
  config.samples_per_dataset = 32;
  fixture.scenario = std::make_unique<MultiModelScenario>(config);
  fixture.scenario->Init().Check();

  ModelSetManager::Options options;
  options.root_dir = root;
  options.env = env;
  options.resolver = fixture.scenario.get();
  options.cas.enabled = cas_enabled;
  options.blob_compression = compression;
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  std::map<ApproachType, std::string> heads;
  for (ApproachType type : kAllApproaches) {
    std::string id = manager->SaveInitial(type, fixture.scenario->current_set())
                         .ValueOrDie()
                         .set_id;
    heads[type] = id;
    fixture.ids.push_back(id);
    fixture.saved.push_back(fixture.scenario->current_set());
  }
  for (int cycle = 0; cycle < 2; ++cycle) {
    ModelSetUpdateInfo update = fixture.scenario->AdvanceCycle().ValueOrDie();
    for (ApproachType type : kAllApproaches) {
      update.base_set_id = heads[type];
      std::string id = manager
                           ->SaveDerived(type, fixture.scenario->current_set(),
                                         update)
                           .ValueOrDie()
                           .set_id;
      heads[type] = id;
      fixture.ids.push_back(id);
      fixture.saved.push_back(fixture.scenario->current_set());
    }
  }
  return fixture;
}

/// Checks that every saved id recovers to exactly the set it was saved from.
void ExpectRecoversSaved(ModelSetManager* manager, const StoreFixture& fixture,
                         const std::string& label) {
  for (size_t i = 0; i < fixture.ids.size(); ++i) {
    Result<ModelSet> got = manager->Recover(fixture.ids[i]);
    ASSERT_TRUE(got.ok()) << label << " set " << fixture.ids[i] << ": "
                          << got.status().ToString();
    ExpectSetsEqual(fixture.saved[i], got.ValueOrDie(),
                    label + " set " + fixture.ids[i]);
  }
}

/// The same, through a manager opened on `root` with `lanes` and
/// `window_bytes` and closed again on return, so calls never contend for
/// the journal lock.
void ExpectRecoversSaved(const std::string& root, const StoreFixture& fixture,
                         size_t lanes, uint64_t window_bytes,
                         const std::string& label) {
  ModelSetManager::Options options;
  options.root_dir = root;
  options.resolver = fixture.scenario.get();
  options.stream_window_bytes = window_bytes;
  options.pipeline.lanes = lanes;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  ExpectRecoversSaved(manager.get(), fixture, label);
}

/// All four approaches × lanes {1, 4} × CAS {off, on} × compression
/// {none, lz}: every recovery is bit-exact with the saved set.
TEST(StreamRecoveryTest, BitExactAcrossApproachesLanesCasCompression) {
  for (bool cas : {false, true}) {
    for (Compression compression : {Compression::kNone, Compression::kLz}) {
      SCOPED_TRACE(::testing::Message()
                   << "cas=" << cas << " compression="
                   << static_cast<int>(compression));
      TempDir dir("stream-bitexact");
      StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                        cas, compression);
      for (size_t lanes : {size_t{1}, size_t{4}}) {
        ExpectRecoversSaved(dir.path() + "/store", fixture, lanes,
                            /*window_bytes=*/0,
                            StringFormat("lanes=%zu", lanes));
      }
    }
  }
}

/// Tiny stream windows force many ReadFileRange calls and exercise every
/// window-boundary path in the incremental decoders; results must still be
/// bit-exact.
TEST(StreamRecoveryTest, BitExactAtTinyWindowSizes) {
  TempDir dir("stream-window");
  StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                    /*cas_enabled=*/true, Compression::kLz);
  for (uint64_t window : {uint64_t{64}, uint64_t{4096}}) {
    ExpectRecoversSaved(dir.path() + "/store", fixture, /*lanes=*/1, window,
                        StringFormat("window=%llu",
                                     static_cast<unsigned long long>(window)));
  }
}

/// Serving-layer parity: Replay at workers {1, 4}; every served set is
/// bit-exact with the saved set.
TEST(StreamRecoveryTest, BitExactThroughServiceWorkers) {
  TempDir dir("stream-workers");
  StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                    /*cas_enabled=*/false, Compression::kNone);
  // Replay every saved set; Update sets take the cached path.
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ModelSetManager::Options options;
    options.root_dir = dir.path() + "/store";
    options.resolver = fixture.scenario.get();
    auto manager = ModelSetManager::Open(options).ValueOrDie();
    ModelSetServiceOptions service_options;
    service_options.workers = workers;
    ModelSetService service(manager.get(), service_options);
    std::vector<ModelSet> recovered;
    std::vector<ServeResult> results = service.Replay(fixture.ids, &recovered);
    ASSERT_EQ(results.size(), fixture.ids.size());
    for (const ServeResult& r : results) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
    ASSERT_EQ(recovered.size(), fixture.ids.size());
    for (size_t i = 0; i < recovered.size(); ++i) {
      ExpectSetsEqual(fixture.saved[i], recovered[i],
                      StringFormat("workers=%zu request %zu", workers, i));
    }
  }
}

/// A streamed recovery admits its layers to the LayerCache once the blob's
/// CRC has passed; a warm replay must therefore hit the cache and still be
/// bit-exact.
TEST(StreamRecoveryTest, EarlyLayerAdmissionFillsCache) {
  TempDir dir("stream-cache");
  StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                    /*cas_enabled=*/false, Compression::kNone);
  // Only Update sets have the cached recovery path; pick its chain.
  // BuildStore pushes approaches in kAllApproaches order; kUpdate is index 2
  // within each group of 4.
  std::vector<std::string> chain;
  std::vector<const ModelSet*> chain_saved;
  for (size_t i = 2; i < fixture.ids.size(); i += 4) {
    chain.push_back(fixture.ids[i]);
    chain_saved.push_back(&fixture.saved[i]);
  }
  ASSERT_EQ(chain.size(), 3u);

  ModelSetManager::Options options;
  options.root_dir = dir.path() + "/store";
  options.resolver = fixture.scenario.get();
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  ModelSetServiceOptions service_options;
  service_options.workers = 1;
  service_options.cache_enabled = true;
  service_options.cache_capacity_bytes = 256ull * 1024 * 1024;
  ModelSetService service(manager.get(), service_options);

  // Cold pass populates the cache after each verified streaming decode;
  // the warm pass must take layer hits.
  std::vector<ModelSet> cold_sets;
  std::vector<ServeResult> cold = service.Replay(chain, &cold_sets);
  for (const ServeResult& r : cold) ASSERT_TRUE(r.status.ok());
  std::vector<ModelSet> warm_sets;
  std::vector<ServeResult> warm = service.Replay(chain, &warm_sets);
  uint64_t warm_hits = 0;
  for (const ServeResult& r : warm) {
    ASSERT_TRUE(r.status.ok());
    warm_hits += r.cache.layer_hits;
  }
  EXPECT_GT(warm_hits, 0u);
  for (size_t i = 0; i < chain.size(); ++i) {
    ExpectSetsEqual(*chain_saved[i], cold_sets[i], "cold replay of " + chain[i]);
    ExpectSetsEqual(*chain_saved[i], warm_sets[i], "warm replay of " + chain[i]);
  }
}

/// Shard-kill fault (blobs subtree unreachable): recovery fails cleanly with
/// a non-OK status, and after healing every set recovers to the exact saved
/// bytes. Streaming must not mask or reorder fault surfacing.
TEST(StreamRecoveryTest, FaultedBlobDirFailsCleanly) {
  TempDir dir("stream-fault");
  FaultInjectionEnv fault(Env::Default());
  const std::string root = dir.path() + "/store";
  StoreFixture fixture = BuildStore(root, &fault, /*cas_enabled=*/false,
                                    Compression::kLz);
  ModelSetManager::Options options;
  options.root_dir = root;
  options.env = &fault;
  options.resolver = fixture.scenario.get();
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  fault.FailPathsUnder(root + "/blobs");
  // Baseline's initial set (ids[1]) must read its param blob.
  EXPECT_FALSE(manager->Recover(fixture.ids[1]).ok());
  fault.HealPaths();
  ExpectRecoversSaved(manager.get(), fixture, "healed");
}

/// Short read (a blob truncated on disk after a partial crash): every
/// recovery returns exactly the saved set or fails with a non-OK status —
/// never a short or padded set — and at least one recovery fails.
TEST(StreamRecoveryTest, TruncatedBlobRecoversExactOrFails) {
  TempDir dir("stream-trunc");
  const std::string root = dir.path() + "/store";
  StoreFixture fixture = BuildStore(root, Env::Default(), /*cas_enabled=*/false,
                                    Compression::kNone);

  // Truncate the largest blob file (a parameter-scale artifact some set
  // needs) to half its size, emulating a torn write that fsync never
  // covered.
  std::string victim;
  uintmax_t victim_size = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/blobs")) {
    if (!entry.is_regular_file()) continue;
    if (entry.file_size() > victim_size) {
      victim_size = entry.file_size();
      victim = entry.path().string();
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim, victim_size / 2);

  ModelSetManager::Options options;
  options.root_dir = root;
  options.resolver = fixture.scenario.get();
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  size_t rejected = 0;
  for (size_t i = 0; i < fixture.ids.size(); ++i) {
    Result<ModelSet> recovered = manager->Recover(fixture.ids[i]);
    if (recovered.ok()) {
      ExpectSetsEqual(fixture.saved[i], recovered.ValueOrDie(),
                      "set " + fixture.ids[i]);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "truncation hit no recovery";
}

/// The point of streaming: peak decoder buffering stays at roughly one
/// layer, not the whole decompressed blob.
TEST(StreamRecoveryTest, PeakBufferingIsOneLayerNotWholeBlob) {
  auto set = MakeInitializedSet(Ffnn48Spec(), 16, /*seed=*/11).ValueOrDie();
  std::vector<uint8_t> raw = EncodeParamBlob(set);
  std::vector<uint8_t> blob = CompressBlob(Compression::kLz, raw);

  size_t max_layer_bytes = 0;
  for (const auto& [key, tensor] : set.models[0]) {
    max_layer_bytes =
        std::max(max_layer_bytes, tensor.data().size() * sizeof(float));
  }

  BlobDecompressor decompressor;
  size_t emitted = 0;
  ParamBlobStreamDecoder decoder(
      set.spec, raw.size(), set.models.size(),
      [&](size_t, size_t, const std::string&, Tensor) {
        ++emitted;
        return Status::OK();
      });
  std::vector<uint8_t> ready;
  const size_t chunk = 64 * 1024;
  for (size_t off = 0; off < blob.size(); off += chunk) {
    size_t n = std::min(chunk, blob.size() - off);
    ready.clear();
    ASSERT_TRUE(
        decompressor.Feed(std::span<const uint8_t>(blob.data() + off, n), &ready)
            .ok());
    ASSERT_TRUE(decoder.Feed(ready).ok());
  }
  ready.clear();
  ASSERT_TRUE(decompressor.Finish(&ready).ok());
  ASSERT_TRUE(decoder.Feed(ready).ok());
  ASSERT_TRUE(decoder.Finish().ok());
  EXPECT_EQ(emitted, set.models.size() * set.models[0].size());

  // One layer plus bounded slack — far below the whole blob.
  EXPECT_LE(decoder.peak_buffered_bytes(), max_layer_bytes + 4096);
  EXPECT_LT(decoder.peak_buffered_bytes(), raw.size() / 4);
  // The LZ window retains at most kMaxOffset bytes plus chunk slack.
  EXPECT_LT(decompressor.peak_buffered_bytes(), raw.size());
}

}  // namespace
}  // namespace mmm
