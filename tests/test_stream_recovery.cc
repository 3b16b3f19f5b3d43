// Streaming recovery (DESIGN.md §12) bit-exactness and fault tests.
//
// The streaming read path (Options::streaming_recovery, ON by default) must
// be observationally identical to the seed's materializing path: same
// recovered tensors bit-for-bit, same accept/reject decisions under faults
// and corruption, at every lane and worker count, with CAS on or off. These
// tests pin that contract; the peak-buffering test pins the point of the
// whole exercise (recovery no longer allocates whole-snapshot buffers).

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
  options.streaming_recovery = false;  // write path is identical either way
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  std::map<ApproachType, std::string> heads;
  for (ApproachType type : kAllApproaches) {
    std::string id = manager->SaveInitial(type, fixture.scenario->current_set())
                         .ValueOrDie()
                         .set_id;
    heads[type] = id;
    fixture.ids.push_back(id);
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
    }
  }
  return fixture;
}

/// Recovers every id with one manager configuration; the manager is opened
/// and closed inside so arms never contend for the journal lock.
std::vector<ModelSet> RecoverAll(const std::string& root, Env* env,
                                 DatasetResolver* resolver,
                                 const std::vector<std::string>& ids,
                                 bool streaming, size_t lanes,
                                 uint64_t window_bytes = 0) {
  ModelSetManager::Options options;
  options.root_dir = root;
  options.env = env;
  options.resolver = resolver;
  options.streaming_recovery = streaming;
  options.stream_window_bytes = window_bytes;
  options.pipeline.lanes = lanes;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  std::vector<ModelSet> sets;
  sets.reserve(ids.size());
  for (const std::string& id : ids) {
    sets.push_back(manager->Recover(id).ValueOrDie());
  }
  return sets;
}

/// Tentpole contract: streaming == materializing, bit for bit, for all four
/// approaches × lanes {1, 4} × CAS {off, on} × compression {none, lz}.
TEST(StreamRecoveryTest, BitExactAcrossApproachesLanesCasCompression) {
  for (bool cas : {false, true}) {
    for (Compression compression : {Compression::kNone, Compression::kLz}) {
      SCOPED_TRACE(::testing::Message()
                   << "cas=" << cas << " compression="
                   << static_cast<int>(compression));
      TempDir dir("stream-bitexact");
      StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                        cas, compression);

      std::vector<ModelSet> reference =
          RecoverAll(dir.path() + "/store", Env::Default(),
                     fixture.scenario.get(), fixture.ids,
                     /*streaming=*/false, /*lanes=*/1);
      for (size_t lanes : {size_t{1}, size_t{4}}) {
        for (bool streaming : {false, true}) {
          if (!streaming && lanes == 1) continue;  // the reference itself
          std::vector<ModelSet> got =
              RecoverAll(dir.path() + "/store", Env::Default(),
                         fixture.scenario.get(), fixture.ids, streaming, lanes);
          ASSERT_EQ(got.size(), reference.size());
          for (size_t i = 0; i < got.size(); ++i) {
            ExpectSetsEqual(reference[i], got[i],
                            StringFormat("set %s streaming=%d lanes=%zu",
                                         fixture.ids[i].c_str(), streaming,
                                         lanes));
          }
        }
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
  std::vector<ModelSet> reference =
      RecoverAll(dir.path() + "/store", Env::Default(), fixture.scenario.get(),
                 fixture.ids, /*streaming=*/false, /*lanes=*/1);
  for (uint64_t window : {uint64_t{64}, uint64_t{4096}}) {
    std::vector<ModelSet> got =
        RecoverAll(dir.path() + "/store", Env::Default(),
                   fixture.scenario.get(), fixture.ids,
                   /*streaming=*/true, /*lanes=*/1, window);
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSetsEqual(reference[i], got[i],
                      StringFormat("window=%llu set %s",
                                   static_cast<unsigned long long>(window),
                                   fixture.ids[i].c_str()));
    }
  }
}

/// Serving-layer parity: Replay at workers {1, 4}, streaming off vs on,
/// recovered sets identical pairwise and across worker counts.
TEST(StreamRecoveryTest, BitExactThroughServiceWorkers) {
  TempDir dir("stream-workers");
  StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                    /*cas_enabled=*/false, Compression::kNone);
  // Replay every saved set; Update sets take the cached path.
  std::vector<std::string> trace;
  for (const std::string& id : fixture.ids) trace.push_back(id);

  std::vector<ModelSet> reference;
  bool have_reference = false;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    for (bool streaming : {false, true}) {
      ModelSetManager::Options options;
      options.root_dir = dir.path() + "/store";
      options.resolver = fixture.scenario.get();
      options.streaming_recovery = streaming;
      auto manager = ModelSetManager::Open(options).ValueOrDie();
      ModelSetServiceOptions service_options;
      service_options.workers = workers;
      ModelSetService service(manager.get(), service_options);
      std::vector<ModelSet> recovered;
      std::vector<ServeResult> results = service.Replay(trace, &recovered);
      ASSERT_EQ(results.size(), trace.size());
      for (const ServeResult& r : results) {
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      }
      ASSERT_EQ(recovered.size(), trace.size());
      if (!have_reference) {
        reference = std::move(recovered);
        have_reference = true;
        continue;
      }
      for (size_t i = 0; i < recovered.size(); ++i) {
        ExpectSetsEqual(reference[i], recovered[i],
                        StringFormat("workers=%zu streaming=%d request %zu",
                                     workers, streaming, i));
      }
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
  std::vector<std::string> chain;
  for (size_t i = 0; i < fixture.ids.size(); ++i) {
    // BuildStore pushes approaches in kAllApproaches order; kUpdate is
    // index 2 within each group of 4.
    if (i % 4 == 2) chain.push_back(fixture.ids[i]);
  }
  ASSERT_EQ(chain.size(), 3u);

  ModelSetManager::Options options;
  options.root_dir = dir.path() + "/store";
  options.resolver = fixture.scenario.get();
  options.streaming_recovery = true;
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
    ExpectSetsEqual(cold_sets[i], warm_sets[i],
                    StringFormat("warm replay of %s", chain[i].c_str()));
  }
}

/// Shard-kill fault (blobs subtree unreachable): both read paths fail
/// cleanly with a non-OK status, and after healing both recover the exact
/// reference bytes. Streaming must not mask or reorder fault surfacing.
TEST(StreamRecoveryTest, FaultedBlobDirFailsCleanlyBothPaths) {
  TempDir dir("stream-fault");
  FaultInjectionEnv fault(Env::Default());
  const std::string root = dir.path() + "/store";
  StoreFixture fixture = BuildStore(root, &fault, /*cas_enabled=*/false,
                                    Compression::kLz);
  std::vector<ModelSet> reference =
      RecoverAll(root, &fault, fixture.scenario.get(), fixture.ids,
                 /*streaming=*/false, /*lanes=*/1);

  for (bool streaming : {false, true}) {
    ModelSetManager::Options options;
    options.root_dir = root;
    options.env = &fault;
    options.resolver = fixture.scenario.get();
    options.streaming_recovery = streaming;
    auto manager = ModelSetManager::Open(options).ValueOrDie();

    fault.FailPathsUnder(root + "/blobs");
    // Baseline's initial set (ids[1]) must read its param blob.
    Result<ModelSet> down = manager->Recover(fixture.ids[1]);
    EXPECT_FALSE(down.ok()) << "streaming=" << streaming;
    fault.HealPaths();

    for (size_t i = 0; i < fixture.ids.size(); ++i) {
      Result<ModelSet> up = manager->Recover(fixture.ids[i]);
      ASSERT_TRUE(up.ok()) << up.status().ToString();
      ExpectSetsEqual(reference[i], up.ValueOrDie(),
                      StringFormat("healed streaming=%d set %s",
                                   static_cast<int>(streaming),
                                   fixture.ids[i].c_str()));
    }
  }
}

/// Short read (a blob truncated on disk after a partial crash): both paths
/// must reject — never return a short or padded set — and agree on ok().
TEST(StreamRecoveryTest, TruncatedBlobRejectedByBothPaths) {
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

  size_t rejected = 0;
  for (const std::string& id : fixture.ids) {
    ModelSet materialized;
    bool mat_ok;
    {
      ModelSetManager::Options options;
      options.root_dir = root;
      options.resolver = fixture.scenario.get();
      options.streaming_recovery = false;
      auto manager = ModelSetManager::Open(options).ValueOrDie();
      Result<ModelSet> r = manager->Recover(id);
      mat_ok = r.ok();
      if (mat_ok) materialized = std::move(r).ValueOrDie();
    }
    ModelSetManager::Options options;
    options.root_dir = root;
    options.resolver = fixture.scenario.get();
    options.streaming_recovery = true;
    auto manager = ModelSetManager::Open(options).ValueOrDie();
    Result<ModelSet> streamed = manager->Recover(id);
    ASSERT_EQ(mat_ok, streamed.ok())
        << "paths disagree on set " << id << ": materializing "
        << (mat_ok ? "accepted" : "rejected") << ", streaming "
        << streamed.status().ToString();
    if (mat_ok) {
      ExpectSetsEqual(materialized, streamed.ValueOrDie(), "set " + id);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "truncation hit no recovery path";
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
      set.spec, raw.size(),
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
