#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/blob_formats.h"
#include "core/manager.h"
#include "core/set_codec.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "serve/layer_cache.h"
#include "serve/service.h"
#include "serve/trace.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::RandomTensor;
using testing::TempDir;

Sha256Digest DigestOf(uint8_t tag) {
  Sha256Digest d;
  d.bytes.fill(tag);
  return d;
}

std::shared_ptr<const Tensor> Shared(const Tensor& t) {
  return std::make_shared<const Tensor>(t);
}

// One-layer calls of the batched LayerCache interface.
std::shared_ptr<const Tensor> GetOne(LayerCache& cache,
                                     const Sha256Digest& hash) {
  std::shared_ptr<const Tensor> out;
  cache.Get({&hash, 1}, {&out, 1});
  return out;
}

bool PutOne(LayerCache& cache, const Sha256Digest& hash, const Tensor& t,
            bool pinned = false) {
  const std::shared_ptr<const Tensor> value = Shared(t);
  return cache.Put({&hash, 1}, {&value, 1}, pinned) == 1;
}

// ---------------------------------------------------------------------------
// LayerCache invariants.

TEST(LayerCacheTest, RoundTripAndHitCounters) {
  LayerCache cache(1 << 20);
  Tensor t = RandomTensor(Shape{16, 4}, 1);
  EXPECT_EQ(GetOne(cache, DigestOf(1)), nullptr);
  EXPECT_TRUE(PutOne(cache, DigestOf(1), t));
  EXPECT_FALSE(PutOne(cache, DigestOf(1), t));  // duplicate declined
  std::shared_ptr<const Tensor> out = GetOne(cache, DigestOf(1));
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->Equals(t));
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LayerCacheTest, CapacityNeverExceeded) {
  Tensor t = RandomTensor(Shape{64}, 2);
  uint64_t charge = LayerCache::ChargeOf(t);
  // Room for 4 entries.
  LayerCache cache(charge * 4);
  for (uint8_t i = 0; i < 100; ++i) {
    PutOne(cache, DigestOf(i), t);
    LayerCacheStats stats = cache.stats();
    ASSERT_LE(stats.bytes_used, cache.capacity_bytes());
    ASSERT_LE(stats.entries, 4u);
  }
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 96u);
  // An entry larger than the whole budget is declined outright.
  Tensor huge = RandomTensor(Shape{1024}, 3);
  EXPECT_FALSE(PutOne(cache, DigestOf(200), huge));
  EXPECT_LE(cache.stats().bytes_used, cache.capacity_bytes());
}

TEST(LayerCacheTest, PinnedEntriesSurviveEvictionPressure) {
  Tensor t = RandomTensor(Shape{64}, 4);
  uint64_t charge = LayerCache::ChargeOf(t);
  LayerCache cache(charge * 3);
  ASSERT_TRUE(PutOne(cache, DigestOf(1), t, /*pinned=*/true));
  ASSERT_TRUE(PutOne(cache, DigestOf(2), t));
  ASSERT_TRUE(cache.Pin(DigestOf(2)));
  for (uint8_t i = 10; i < 60; ++i) PutOne(cache, DigestOf(i), t);
  EXPECT_TRUE(cache.Contains(DigestOf(1)));
  EXPECT_TRUE(cache.Contains(DigestOf(2)));
  ASSERT_LE(cache.stats().bytes_used, cache.capacity_bytes());
  // With only pinned entries left in budget, an oversized Put is declined,
  // never evicting a pinned entry.
  Tensor big = RandomTensor(Shape{140}, 5);
  EXPECT_FALSE(PutOne(cache, DigestOf(99), big));
  EXPECT_TRUE(cache.Contains(DigestOf(1)));
  EXPECT_TRUE(cache.Contains(DigestOf(2)));
  // Unpinning releases them for eviction again.
  cache.Unpin(DigestOf(1));
  cache.Unpin(DigestOf(2));
  for (uint8_t i = 60; i < 70; ++i) PutOne(cache, DigestOf(i), t);
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
}

TEST(LayerCacheTest, InvalidateRemovesEvenPinned) {
  Tensor t = RandomTensor(Shape{8}, 6);
  LayerCache cache(1 << 20);
  ASSERT_TRUE(PutOne(cache, DigestOf(1), t, /*pinned=*/true));
  EXPECT_TRUE(cache.Invalidate(DigestOf(1)));
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes_used, 0u);
  EXPECT_EQ(stats.bytes_pinned, 0u);
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_FALSE(cache.Invalidate(DigestOf(1)));
}

// Segmented LRU: a run of admissions that are never hit churns probation
// only, so an entry hit after its admission outlives all of them, even one
// admitted later than it.
TEST(LayerCacheTest, AdmissionsNeverHitCannotEvictAHitEntry) {
  Tensor t = RandomTensor(Shape{64}, 7);
  LayerCache cache(LayerCache::ChargeOf(t) * 10);
  ASSERT_TRUE(PutOne(cache, DigestOf(1), t));
  for (uint8_t i = 10; i < 15; ++i) ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  ASSERT_NE(GetOne(cache, DigestOf(1)), nullptr);
  for (uint8_t i = 20; i < 220; ++i) ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  EXPECT_TRUE(cache.Contains(DigestOf(1)));
  EXPECT_FALSE(cache.Contains(DigestOf(10)));
  EXPECT_TRUE(cache.Contains(DigestOf(219)));
  EXPECT_EQ(cache.stats().entries, 10u);
}

// An entry that is never hit leaves again however old it is: newer
// admissions evict it while the entries that were hit stay.
TEST(LayerCacheTest, OldEntryNeverHitIsEvictedByNewerAdmissions) {
  Tensor t = RandomTensor(Shape{64}, 8);
  LayerCache cache(LayerCache::ChargeOf(t) * 10);
  ASSERT_TRUE(PutOne(cache, DigestOf(1), t));
  for (uint8_t i = 2; i < 5; ++i) {
    ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
    ASSERT_NE(GetOne(cache, DigestOf(i)), nullptr);
  }
  for (uint8_t i = 20; i < 40; ++i) ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
  for (uint8_t i = 2; i < 5; ++i) EXPECT_TRUE(cache.Contains(DigestOf(i)));
}

// The protected segment holds at most kProtectedPercent of the capacity: when
// every entry was hit, the least recently hit ones fall back to probation
// and make room for new admissions, while the rest stay.
TEST(LayerCacheTest, ProtectedSegmentKeepsRoomForNewEntries) {
  Tensor t = RandomTensor(Shape{64}, 9);
  LayerCache cache(LayerCache::ChargeOf(t) * 10);
  for (uint8_t i = 0; i < 10; ++i) ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_NE(GetOne(cache, DigestOf(i)), nullptr);
  }
  for (uint8_t i = 100; i < 150; ++i) {
    ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  }
  EXPECT_FALSE(cache.Contains(DigestOf(0)));
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
  for (uint8_t i = 2; i < 10; ++i) EXPECT_TRUE(cache.Contains(DigestOf(i)));
  EXPECT_TRUE(cache.Contains(DigestOf(149)));
  EXPECT_LE(cache.stats().bytes_used, cache.capacity_bytes());
}

// A batch behaves exactly like its layers offered one call each: the same
// hits, misses, admissions, evictions and resident bytes after every step
// of a seeded mix of probes and offers (layers of several sizes, some
// pinned), and the byte bound holds throughout.
TEST(LayerCacheTest, BatchedAndPerLayerCallsAgree) {
  std::vector<Tensor> tensors;
  for (uint64_t k = 0; k < 4; ++k) {
    tensors.push_back(RandomTensor(Shape{16 * (k + 1)}, 30 + k));
  }
  const uint64_t capacity = LayerCache::ChargeOf(tensors[1]) * 12;
  LayerCache batched(capacity);
  LayerCache single(capacity);
  Rng rng(17);
  for (int step = 0; step < 300; ++step) {
    const size_t count = 1 + rng.NextBounded(12);
    std::vector<Sha256Digest> hashes;
    std::vector<std::shared_ptr<const Tensor>> values;
    for (size_t i = 0; i < count; ++i) {
      const uint8_t tag = static_cast<uint8_t>(rng.NextBounded(40));
      hashes.push_back(DigestOf(tag));
      values.push_back(Shared(tensors[tag % tensors.size()]));
    }
    if (rng.NextBounded(2) == 0) {
      std::vector<std::shared_ptr<const Tensor>> out(count);
      const size_t hits = batched.Get(hashes, out);
      size_t single_hits = 0;
      for (size_t i = 0; i < count; ++i) {
        std::shared_ptr<const Tensor> one = GetOne(single, hashes[i]);
        ASSERT_EQ(one == nullptr, out[i] == nullptr) << "step " << step;
        single_hits += one == nullptr ? 0 : 1;
      }
      ASSERT_EQ(hits, single_hits);
    } else {
      const bool pinned = rng.NextBounded(10) == 0;
      const size_t admitted = batched.Put(hashes, values, pinned);
      size_t single_admitted = 0;
      for (size_t i = 0; i < count; ++i) {
        single_admitted +=
            PutOne(single, hashes[i], *values[i], pinned) ? 1 : 0;
      }
      ASSERT_EQ(admitted, single_admitted);
      if (rng.NextBounded(4) == 0) {
        for (const Sha256Digest& hash : hashes) {
          batched.Unpin(hash);
          single.Unpin(hash);
        }
      }
    }
    const LayerCacheStats a = batched.stats();
    const LayerCacheStats b = single.stats();
    ASSERT_EQ(a.hits, b.hits) << "step " << step;
    ASSERT_EQ(a.misses, b.misses);
    ASSERT_EQ(a.inserts, b.inserts);
    ASSERT_EQ(a.evictions, b.evictions);
    ASSERT_EQ(a.rejected, b.rejected);
    ASSERT_EQ(a.bytes_used, b.bytes_used);
    ASSERT_EQ(a.bytes_pinned, b.bytes_pinned);
    ASSERT_EQ(a.entries, b.entries);
    ASSERT_LE(a.bytes_used, capacity);
    for (uint8_t tag = 0; tag < 40; ++tag) {
      ASSERT_EQ(batched.Contains(DigestOf(tag)),
                single.Contains(DigestOf(tag)));
    }
  }
  EXPECT_GT(batched.stats().evictions, 0u);
  EXPECT_GT(batched.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// Trace generation.

TEST(TraceTest, ZipfianTraceIsDeterministicAndSkewed) {
  std::vector<std::string> ids = {"a", "b", "c", "d", "e"};
  std::vector<std::string> t1 = BuildZipfianTrace(ids, 1000, 0.99, 7);
  std::vector<std::string> t2 = BuildZipfianTrace(ids, 1000, 0.99, 7);
  EXPECT_EQ(t1, t2);
  std::map<std::string, size_t> counts;
  for (const std::string& id : t1) counts[id] += 1;
  // ids[0] is the hottest item by construction.
  EXPECT_GT(counts["a"], counts["e"]);
  EXPECT_GT(counts["a"], 1000u / ids.size());
}

TEST(TraceTest, SummarizePercentiles) {
  std::vector<uint64_t> nanos;
  for (uint64_t i = 1; i <= 100; ++i) nanos.push_back(i);
  LatencySummary s = Summarize(nanos);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.p50, 50u);
  EXPECT_EQ(s.p99, 99u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_EQ(Summarize({}).p99, 0u);
}

// ---------------------------------------------------------------------------
// ModelSetService: a small battery deployment saved by every approach.

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : temp_("serve") {}

  void OpenManager(UpdateApproachOptions update_options = {},
                   Compression compression = Compression::kNone,
                   bool cas = false) {
    ScenarioConfig config = ScenarioConfig::Battery(12);
    config.samples_per_dataset = 64;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    ASSERT_OK(scenario_->Init());
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    options.update_options = update_options;
    options.blob_compression = compression;
    options.cas.enabled = cas;
    // Modeled store latency on, so per-request cost comparisons are
    // meaningful (the clock is simulated — no real waiting).
    options.profile = SetupProfile::Server();
    ASSERT_OK_AND_ASSIGN(manager_, ModelSetManager::Open(options));
  }

  // Saves the current scenario state with `type` (derived from the
  // approach's chain head when `update` is given) and records the expected
  // recovered state.
  std::string Save(ApproachType type, const ModelSetUpdateInfo* update) {
    Result<SaveResult> saved =
        update == nullptr
            ? manager_->SaveInitial(type, scenario_->current_set())
            : [&] {
                ModelSetUpdateInfo derived = *update;
                derived.base_set_id = heads_[type];
                return manager_->SaveDerived(type, scenario_->current_set(),
                                             derived);
              }();
    saved.status().Check();
    heads_[type] = saved.ValueOrDie().set_id;
    expected_[saved.ValueOrDie().set_id] = scenario_->current_set();
    return saved.ValueOrDie().set_id;
  }

  // Saves the current state with all four approaches.
  void SaveAll(const ModelSetUpdateInfo* update) {
    for (ApproachType type : kAllApproaches) Save(type, update);
  }

  void ExpectSetEquals(const ModelSet& recovered, const ModelSet& expected) {
    ASSERT_EQ(recovered.models.size(), expected.models.size());
    ASSERT_EQ(recovered.spec, expected.spec);
    for (size_t m = 0; m < recovered.models.size(); ++m) {
      ASSERT_EQ(recovered.models[m].size(), expected.models[m].size());
      for (size_t p = 0; p < recovered.models[m].size(); ++p) {
        ASSERT_EQ(recovered.models[m][p].first, expected.models[m][p].first);
        ASSERT_TRUE(
            recovered.models[m][p].second.Equals(expected.models[m][p].second))
            << "model " << m << " param " << recovered.models[m][p].first;
      }
    }
  }

  size_t TotalLayers(const ModelSet& set) const {
    return set.models.empty() ? 0 : set.models.size() * set.models[0].size();
  }

  uint64_t SetChargeBytes(const ModelSet& set) const {
    uint64_t total = 0;
    for (const StateDict& model : set.models) {
      for (const auto& [key, tensor] : model) {
        total += LayerCache::ChargeOf(tensor);
      }
    }
    return total;
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
  std::map<ApproachType, std::string> heads_;
  std::map<std::string, ModelSet> expected_;
};

// All four approaches, served concurrently, stay bit-exact at any worker
// count (content-hash keying + deterministic lane assignment).
TEST_F(ServeTest, ReplayAllApproachesBitExact) {
  OpenManager();
  SaveAll(nullptr);
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    SaveAll(&update);
  }
  // Every saved set, twice, so the second round hits the warm cache.
  std::vector<std::string> trace;
  for (const auto& [id, set] : expected_) trace.push_back(id);
  const std::vector<std::string> once = trace;
  trace.insert(trace.end(), once.begin(), once.end());

  for (size_t workers : {size_t{1}, size_t{4}}) {
    ModelSetServiceOptions options;
    options.workers = workers;
    ModelSetService service(manager_.get(), options);
    std::vector<ModelSet> recovered;
    std::vector<ServeResult> results = service.Replay(trace, &recovered);
    ASSERT_EQ(results.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok())
          << "request " << i << " set " << trace[i] << ": "
          << results[i].status.ToString();
      EXPECT_EQ(results[i].set_id, trace[i]);
      ExpectSetEquals(recovered[i], expected_[trace[i]]);
    }
  }
}

// With the cache off and one worker, the service is a pass-through: results
// and modeled store cost are identical to calling Recover directly.
TEST_F(ServeTest, CacheOffSingleWorkerMatchesDirectRecover) {
  OpenManager();
  SaveAll(nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  SaveAll(&update);

  ModelSetServiceOptions options;
  options.workers = 1;
  options.cache_enabled = false;
  ModelSetService service(manager_.get(), options);
  for (const auto& [id, expected] : expected_) {
    RecoverStats direct_stats;
    ASSERT_OK_AND_ASSIGN(ModelSet direct,
                         manager_->Recover(id, &direct_stats));
    ServeResult result;
    ASSERT_OK_AND_ASSIGN(ModelSet served, service.Recover(id, &result));
    ExpectSetEquals(served, direct);
    ExpectSetEquals(served, expected);
    EXPECT_EQ(result.modeled_store_nanos, direct_stats.simulated_store_nanos);
    EXPECT_EQ(result.sets_walked, direct_stats.sets_recovered);
    EXPECT_EQ(result.cache.layer_hits + result.cache.layer_misses, 0u);
  }
}

// Exact hit accounting at one worker. A cold request probes each layer of
// the requested set once; a repeated request hits all of them and serves the
// set without a single file-store read; the base, recovered next, hits
// exactly the layers it shares with the head (ancestors are not admitted).
TEST_F(ServeTest, WarmCacheHitCountersAreExact) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  size_t layers = TotalLayers(expected_[head_id]);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  // Cold request: each of the head's layers misses once; the walk reads the
  // head's diff, then the base's snapshot for what the diff lacks.
  ServeResult cold;
  ASSERT_OK_AND_ASSIGN(ModelSet first, service.Recover(head_id, &cold));
  ExpectSetEquals(first, expected_[head_id]);
  EXPECT_EQ(cold.cache.layer_hits, 0u);
  EXPECT_EQ(cold.cache.layer_misses, layers);
  EXPECT_EQ(cold.cache.meta_misses, 1u);
  EXPECT_EQ(cold.sets_walked, 2u);

  // Warm request: all layers hit, zero file-store reads, strictly cheaper.
  StoreStats before = manager_->file_store()->stats();
  ServeResult warm;
  ASSERT_OK_AND_ASSIGN(ModelSet second, service.Recover(head_id, &warm));
  StoreStats delta = manager_->file_store()->stats() - before;
  ExpectSetEquals(second, expected_[head_id]);
  EXPECT_EQ(warm.cache.layer_hits, layers);
  EXPECT_EQ(warm.cache.layer_misses, 0u);
  EXPECT_EQ(warm.cache.meta_hits, 1u);
  EXPECT_EQ(warm.cache.sets_from_cache, 1u);
  EXPECT_EQ(warm.sets_walked, 1u);
  EXPECT_EQ(delta.read_ops, 0u);
  EXPECT_EQ(delta.bytes_read, 0u);
  EXPECT_LT(warm.modeled_store_nanos, cold.modeled_store_nanos);

  // Sibling sharing: the base's layers that the head kept are resident
  // under the same content hashes and hit; the ones the head changed miss
  // and come from the base's snapshot.
  HashTable head_hashes = ComputeHashTable(expected_[head_id]);
  std::set<std::string> resident;
  for (const auto& row : head_hashes) {
    for (const Sha256Digest& hash : row) resident.insert(hash.ToHex());
  }
  size_t shared = 0;
  for (const auto& row : ComputeHashTable(expected_[base_id])) {
    for (const Sha256Digest& hash : row) shared += resident.count(hash.ToHex());
  }
  ASSERT_GT(shared, 0u);
  ASSERT_LT(shared, layers);
  ServeResult base_result;
  ASSERT_OK_AND_ASSIGN(ModelSet base, service.Recover(base_id, &base_result));
  ExpectSetEquals(base, expected_[base_id]);
  EXPECT_EQ(base_result.cache.layer_hits, shared);
  EXPECT_EQ(base_result.cache.layer_misses, layers - shared);
  EXPECT_EQ(base_result.cache.sets_from_cache, 0u);
  EXPECT_EQ(base_result.sets_walked, 1u);
}

// Recovering the head after its base reads the head's diff blob and no
// parameter blob: the base's snapshot already put every shared layer in the
// cache, and the head's diff holds every layer it changed.
TEST_F(ServeTest, HeadAfterBaseReadsOnlyItsDiff) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  ASSERT_OK(service.Recover(base_id).status());
  StoreStats before = manager_->file_store()->stats();
  ServeResult result;
  ASSERT_OK_AND_ASSIGN(ModelSet head, service.Recover(head_id, &result));
  StoreStats delta = manager_->file_store()->stats() - before;
  ExpectSetEquals(head, expected_[head_id]);
  EXPECT_GT(result.cache.layer_hits, 0u);
  EXPECT_GT(result.cache.layer_misses, 0u);
  EXPECT_EQ(result.sets_walked, 1u);

  // Three blob reads: the head's hash table and the root's architecture
  // (the head's metadata memo missed), then the head's diff.
  ASSERT_OK_AND_ASSIGN(SetDocument head_doc,
                       FetchSetDocument(manager_->context(), head_id));
  ASSERT_OK_AND_ASSIGN(SetDocument base_doc,
                       FetchSetDocument(manager_->context(), base_id));
  FileStore* files = manager_->file_store();
  ASSERT_OK_AND_ASSIGN(uint64_t hash_bytes, files->Size(head_doc.hash_blob));
  ASSERT_OK_AND_ASSIGN(uint64_t arch_bytes, files->Size(base_doc.arch_blob));
  ASSERT_OK_AND_ASSIGN(uint64_t diff_bytes, files->Size(head_doc.diff_blob));
  ASSERT_OK_AND_ASSIGN(uint64_t param_bytes, files->Size(base_doc.param_blob));
  EXPECT_EQ(delta.read_ops, 3u);
  EXPECT_EQ(delta.bytes_read, hash_bytes + arch_bytes + diff_bytes);
  EXPECT_LT(delta.bytes_read, param_bytes);
}

// Pinned sets survive arbitrary eviction pressure; pin bookkeeping is
// rolled back cleanly when the cache cannot hold the set.
TEST_F(ServeTest, PinnedSetSurvivesEvictionPressure) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);

  // Budget: the base set plus a little headroom — not both sets.
  ModelSetServiceOptions options;
  options.cache_capacity_bytes =
      SetChargeBytes(expected_[base_id]) + (SetChargeBytes(expected_[base_id]) / 4);
  ModelSetService service(manager_.get(), options);

  ASSERT_OK(service.PinSet(base_id));
  EXPECT_EQ(service.PinnedSets(), std::vector<std::string>{base_id});
  EXPECT_TRUE(service.PinSet(base_id).IsAlreadyExists());

  // Churn the cache well past capacity; the pinned base must keep serving
  // from memory.
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(service.Recover(head_id).status());
  }
  ServeResult pinned_result;
  ASSERT_OK_AND_ASSIGN(ModelSet base, service.Recover(base_id, &pinned_result));
  ExpectSetEquals(base, expected_[base_id]);
  EXPECT_EQ(pinned_result.cache.layer_misses, 0u);
  EXPECT_EQ(pinned_result.cache.sets_from_cache, 1u);
  LayerCacheStats cache_stats = service.cache_stats();
  EXPECT_LE(cache_stats.bytes_used, cache_stats.capacity_bytes);
  EXPECT_GT(cache_stats.bytes_pinned, 0u);

  ASSERT_OK(service.UnpinSet(base_id));
  EXPECT_TRUE(service.UnpinSet(base_id).IsNotFound());
  EXPECT_EQ(service.cache_stats().bytes_pinned, 0u);

  // A cache that cannot hold the set refuses the pin and leaks nothing.
  ModelSetServiceOptions tiny;
  tiny.cache_capacity_bytes = 1024;
  ModelSetService tiny_service(manager_.get(), tiny);
  EXPECT_TRUE(tiny_service.PinSet(base_id).IsInvalidArgument());
  EXPECT_TRUE(tiny_service.PinnedSets().empty());
  EXPECT_EQ(tiny_service.cache_stats().bytes_pinned, 0u);
}

// GC coherence: deleting a collected set invalidates its cached layers, a
// pinned set blocks deletion of anything its recovery needs, and a set
// whose base was legally collected still recovers bit-exact.
TEST_F(ServeTest, DeleteInvalidatesAndRespectsPins) {
  UpdateApproachOptions update_options;
  update_options.snapshot_interval = 2;  // B(full) <- D1(delta) <- D2(full)
  OpenManager(update_options);
  std::string b_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo u1, scenario_->AdvanceCycle());
  std::string d1_id = Save(ApproachType::kUpdate, &u1);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo u2, scenario_->AdvanceCycle());
  std::string d2_id = Save(ApproachType::kUpdate, &u2);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  // Warm the cache with every set.
  for (const std::string& id : {b_id, d1_id, d2_id}) {
    ASSERT_OK(service.Recover(id).status());
  }

  // D1 is pinned: deleting it, or its recovery ancestors, pin-fails.
  ASSERT_OK(service.PinSet(d1_id));
  EXPECT_TRUE(service.DeleteSet(d1_id).status().IsInvalidArgument());
  EXPECT_TRUE(service.DeleteSet(b_id).status().IsInvalidArgument());
  ASSERT_OK(service.UnpinSet(d1_id));

  // D2 is a full snapshot, so its base D1 is legally collectable.
  uint64_t invalidated_before = service.cache_stats().invalidated;
  ASSERT_OK_AND_ASSIGN(DeleteReport report, service.DeleteSet(d1_id));
  EXPECT_EQ(report.deleted_set_ids, std::vector<std::string>{d1_id});
  EXPECT_GT(service.cache_stats().invalidated, invalidated_before);

  // The deleted set is gone for good — cached layers cannot resurrect it —
  // while its descendant still recovers bit-exact.
  EXPECT_TRUE(service.Recover(d1_id).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(ModelSet d2, service.Recover(d2_id));
  ExpectSetEquals(d2, expected_[d2_id]);
  ASSERT_OK_AND_ASSIGN(ModelSet b, service.Recover(b_id));
  ExpectSetEquals(b, expected_[b_id]);
}

// Compaction coherence: the compactor rewrites a cached set while a
// *different* set is pinned. The pinned set's lineage and cached layers must
// survive untouched, the rewritten set's stale cache entries must be
// invalidated, and every hit counter stays exact.
TEST_F(ServeTest, CompactionInvalidatesRewrittenSetsAndSparesPins) {
  OpenManager();
  std::string b_id = Save(ApproachType::kUpdate, nullptr);
  std::vector<std::string> chain{b_id};
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    chain.push_back(Save(ApproachType::kUpdate, &update));
  }
  const std::string d3_id = chain.back();  // depth 3
  size_t layers = TotalLayers(expected_[d3_id]);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  // Warm the cache through the deep set (walks and caches the whole chain),
  // then pin the root — a different set than the one compaction rewrites.
  ASSERT_OK(service.Recover(d3_id).status());
  ASSERT_OK(service.PinSet(b_id));

  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  uint64_t invalidated_before = service.cache_stats().invalidated;
  ASSERT_OK_AND_ASSIGN(CompactionReport report, service.CompactChains(policy));
  EXPECT_EQ(report.sets_rebased, 1u);
  EXPECT_EQ(report.rebased_set_ids, std::vector<std::string>{d3_id});
  EXPECT_EQ(report.rewritten_set_ids, std::vector<std::string>{d3_id});
  EXPECT_GT(service.cache_stats().invalidated, invalidated_before);

  // The pinned set still serves entirely from the cache: its layers were
  // spared by the pin-aware invalidation, and its metadata memo was not
  // touched (only rewritten sets are invalidated).
  ServeResult pinned;
  ASSERT_OK_AND_ASSIGN(ModelSet b, service.Recover(b_id, &pinned));
  ExpectSetEquals(b, expected_[b_id]);
  EXPECT_EQ(pinned.cache.layer_hits, layers);
  EXPECT_EQ(pinned.cache.layer_misses, 0u);
  EXPECT_EQ(pinned.cache.meta_hits, 1u);
  EXPECT_EQ(pinned.cache.sets_from_cache, 1u);

  // The rewritten set lost its metadata memo (its recorded chain shape
  // changed) and every cached layer except the ones the pinned set still
  // holds — layers are keyed by content hash, so exactly the tensors it
  // shares with the pinned root are still resident.
  size_t shared = 0;
  const ModelSet& d3 = expected_[d3_id];
  const ModelSet& root = expected_[b_id];
  for (size_t m = 0; m < d3.models.size(); ++m) {
    for (const auto& [key, tensor] : d3.models[m]) {
      bool resident = false;
      for (size_t rm = 0; rm < root.models.size() && !resident; ++rm) {
        for (const auto& [rkey, rtensor] : root.models[rm]) {
          if (tensor.Equals(rtensor)) {
            resident = true;
            break;
          }
        }
      }
      if (resident) ++shared;
    }
  }
  ASSERT_GT(shared, 0u);
  ASSERT_LT(shared, layers);
  ServeResult rewritten;
  ASSERT_OK_AND_ASSIGN(ModelSet d3_recovered, service.Recover(d3_id, &rewritten));
  ExpectSetEquals(d3_recovered, expected_[d3_id]);
  EXPECT_EQ(rewritten.cache.meta_misses, 1u);
  EXPECT_EQ(rewritten.cache.layer_hits, shared);
  EXPECT_EQ(rewritten.cache.layer_misses, layers - shared);
  // The rebase turned the set into a full snapshot: one set materialized,
  // no chain walk — the serving-side TTR bound compaction exists for.
  EXPECT_EQ(rewritten.sets_walked, 1u);

  // Unpin and recover once more: the service keeps functioning normally on
  // the compacted store.
  ASSERT_OK(service.UnpinSet(b_id));
  ASSERT_OK_AND_ASSIGN(ModelSet again, service.Recover(d3_id));
  ExpectSetEquals(again, expected_[d3_id]);
}

// RetainOnly through the service implicitly keeps pinned sets (and their
// lineage) and invalidates everything it collected.
TEST_F(ServeTest, RetainOnlyKeepsPinnedSets) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  std::string baseline_id = Save(ApproachType::kBaseline, nullptr);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  ASSERT_OK(service.Recover(head_id).status());
  ASSERT_OK(service.PinSet(head_id));

  // Keep only the baseline set; the pinned update chain must survive.
  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       service.RetainOnly({baseline_id}));
  EXPECT_EQ(report.sets_deleted, 0u);  // head's lineage covers base too

  ASSERT_OK_AND_ASSIGN(ModelSet head, service.Recover(head_id));
  ExpectSetEquals(head, expected_[head_id]);

  // After unpinning, the sweep collects the update chain and the service
  // refuses to serve it afterwards.
  ASSERT_OK(service.UnpinSet(head_id));
  ASSERT_OK_AND_ASSIGN(report, service.RetainOnly({baseline_id}));
  EXPECT_EQ(report.sets_deleted, 2u);
  EXPECT_TRUE(service.Recover(head_id).status().IsNotFound());
  EXPECT_TRUE(service.Recover(base_id).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(ModelSet baseline, service.Recover(baseline_id));
  ExpectSetEquals(baseline, expected_[baseline_id]);
}

// Concurrent Zipfian replay against one shared cache — the TSan target.
TEST_F(ServeTest, ConcurrentZipfianReplayIsRaceFreeAndExact) {
  OpenManager();
  Save(ApproachType::kUpdate, nullptr);
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    Save(ApproachType::kUpdate, &update);
  }
  std::vector<std::string> ids;
  for (const auto& [id, set] : expected_) ids.push_back(id);
  std::vector<std::string> trace = BuildZipfianTrace(ids, 60, 0.99, 11);

  ModelSetServiceOptions options;
  options.workers = 4;
  options.cache_capacity_bytes = 1 << 20;  // force eviction under load
  ModelSetService service(manager_.get(), options);
  std::vector<ModelSet> recovered;
  std::vector<ServeResult> results = service.Replay(trace, &recovered);
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_OK(results[i].status);
    ExpectSetEquals(recovered[i], expected_[trace[i]]);
  }
  LayerCacheStats cache_stats = service.cache_stats();
  EXPECT_LE(cache_stats.bytes_used, cache_stats.capacity_bytes);
}

// A set served from the cache shares the entries' buffers (a hit costs a
// reference-count bump), and a caller's writes copy them first: overwriting
// a hot recovery, or loading one into models and training them, never
// reaches the cache, pinned entries included.
TEST_F(ServeTest, CallerWritesNeverReachCachedLayers) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);

  ModelSetServiceOptions options;
  options.cache_capacity_bytes = 4 * SetChargeBytes(expected_[head_id]);
  ModelSetService service(manager_.get(), options);
  ASSERT_OK(service.PinSet(base_id));
  ASSERT_OK(service.Recover(head_id).status());

  ServeResult hot;
  ASSERT_OK_AND_ASSIGN(ModelSet first, service.Recover(head_id, &hot));
  ASSERT_OK_AND_ASSIGN(ModelSet second, service.Recover(head_id));
  EXPECT_EQ(hot.cache.layer_misses, 0u);
  EXPECT_EQ(first.models[0][0].second.data().data(),
            second.models[0][0].second.data().data());
  const ModelSet untouched = first;

  // Overwrite every tensor of one recovery in place.
  for (StateDict& model : first.models) {
    for (auto& [key, tensor] : model) {
      for (float& x : tensor.mutable_data()) x = -2.0f * x + 1.0f;
    }
  }
  // Load the other into models and train each for one step.
  const Tensor inputs = RandomTensor(Shape{8, 4}, 31);
  const Tensor targets = RandomTensor(Shape{8, 1}, 32);
  TrainConfig one_step;
  one_step.batch_size = 8;
  for (const StateDict& state : second.models) {
    ASSERT_OK_AND_ASSIGN(Model model, Model::Create(second.spec));
    ASSERT_OK(model.LoadStateDict(state));
    ASSERT_OK(TrainModel(&model, inputs, targets, one_step).status());
    EXPECT_FALSE(model.GetStateDict()[0].second.Equals(state[0].second));
  }

  ServeResult again;
  ASSERT_OK_AND_ASSIGN(ModelSet third, service.Recover(head_id, &again));
  EXPECT_EQ(again.cache.layer_misses, 0u);
  ASSERT_OK_AND_ASSIGN(ModelSet direct, manager_->Recover(head_id));
  ExpectSetEquals(third, expected_[head_id]);
  ExpectSetEquals(third, direct);
  ExpectSetEquals(untouched, expected_[head_id]);

  // The pinned base's layers survive the same treatment.
  ASSERT_OK_AND_ASSIGN(ModelSet base, service.Recover(base_id));
  for (StateDict& model : base.models) {
    for (auto& [key, tensor] : model) tensor.Fill(7.0f);
  }
  ServeResult pinned;
  ASSERT_OK_AND_ASSIGN(base, service.Recover(base_id, &pinned));
  EXPECT_EQ(pinned.cache.layer_misses, 0u);
  ExpectSetEquals(base, expected_[base_id]);
}

// Writers recover one hot set and overwrite their copies while readers
// recover the same set and compare it with the saved bytes. Every writer
// copies shared cache buffers concurrently with the readers (a TSan target).
TEST_F(ServeTest, ConcurrentWritersNeverDisturbCachedReaders) {
  OpenManager();
  std::string id = Save(ApproachType::kUpdate, nullptr);
  ModelSetServiceOptions options;
  options.cache_capacity_bytes = 4 * SetChargeBytes(expected_[id]);
  ModelSetService service(manager_.get(), options);
  ASSERT_OK(service.Recover(id).status());

  const ModelSet& saved = expected_[id];
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const bool writer = t % 2 == 0;
      for (int round = 0; round < 20; ++round) {
        Result<ModelSet> recovered = service.Recover(id);
        if (!recovered.ok()) {
          ++wrong;
          continue;
        }
        ModelSet set = std::move(recovered).ValueOrDie();
        for (size_t m = 0; m < set.models.size(); ++m) {
          for (size_t p = 0; p < set.models[m].size(); ++p) {
            Tensor& tensor = set.models[m][p].second;
            const Tensor& want = saved.models[m][p].second;
            if (writer) {
              tensor.Fill(static_cast<float>(t));
              if (tensor.data()[0] != static_cast<float>(t)) ++wrong;
            } else if (!tensor.Equals(want)) {
              ++wrong;
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  ASSERT_OK_AND_ASSIGN(ModelSet after, service.Recover(id));
  ExpectSetEquals(after, saved);
}

// Saves commit beside recoveries: one thread extends the Update chain with
// derived sets while two threads recover the already-saved sets through the
// service. Both sides touch the document store at once (the TSan target);
// every recovered set, and every newly saved one, is bit-exact.
TEST_F(ServeTest, SavesBesideConcurrentRecoveriesStayExact) {
  OpenManager();
  Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo first, scenario_->AdvanceCycle());
  Save(ApproachType::kUpdate, &first);
  const std::map<std::string, ModelSet> readable = expected_;

  // Cycles are trained up front so the writer only saves.
  std::vector<std::pair<ModelSetUpdateInfo, ModelSet>> cycles;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    cycles.emplace_back(update, scenario_->current_set());
  }

  ModelSetServiceOptions options;
  options.cache_capacity_bytes = 1 << 20;  // evict, so reads reach storage
  ModelSetService service(manager_.get(), options);

  std::atomic<int> readers_started{0};
  std::atomic<bool> writer_done{false};
  std::vector<std::pair<std::string, ModelSet>> saved;
  Status writer_status = Status::OK();
  std::thread writer([&] {
    // Saving starts only once both readers run, and they keep reading
    // until the last save returns, so the two sides always overlap.
    while (readers_started < 2) std::this_thread::yield();
    std::string head = heads_[ApproachType::kUpdate];
    for (const auto& [update, set] : cycles) {
      ModelSetUpdateInfo derived = update;
      derived.base_set_id = head;
      Result<SaveResult> result =
          manager_->SaveDerived(ApproachType::kUpdate, set, derived);
      if (!result.ok()) {
        writer_status = result.status();
        break;
      }
      head = result.ValueOrDie().set_id;
      saved.emplace_back(head, set);
    }
    writer_done = true;
  });

  std::vector<std::vector<std::pair<std::string, ModelSet>>> reads(2);
  std::vector<Status> reader_status(2, Status::OK());
  std::vector<std::thread> readers;
  for (size_t r = 0; r < reads.size(); ++r) {
    readers.emplace_back([&, r] {
      ++readers_started;
      for (size_t i = 0; i < readable.size() || !writer_done; ++i) {
        auto it = std::next(readable.begin(),
                            static_cast<ptrdiff_t>((i + r) % readable.size()));
        Result<ModelSet> recovered = service.Recover(it->first);
        if (!recovered.ok()) {
          reader_status[r] = recovered.status();
          return;
        }
        reads[r].emplace_back(it->first, std::move(recovered).ValueOrDie());
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  ASSERT_OK(writer_status);
  ASSERT_EQ(saved.size(), cycles.size());
  for (size_t r = 0; r < reads.size(); ++r) {
    ASSERT_OK(reader_status[r]);
    for (const auto& [id, set] : reads[r]) {
      ExpectSetEquals(set, readable.at(id));
    }
  }
  for (const auto& [id, set] : saved) {
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, service.Recover(id));
    ExpectSetEquals(recovered, set);
  }
}

// Per-request modeled store cost is exact at any worker count: charges are
// attributed through the per-thread clock accumulator and a request runs
// entirely on one worker, so the 4-worker replay reports the same
// modeled_store_nanos per request as the sequential one — not just the same
// total. Cache off, so every request takes the full store path.
TEST_F(ServeTest, PerRequestModeledCostExactUnderConcurrency) {
  OpenManager();
  SaveAll(nullptr);
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    SaveAll(&update);
  }
  std::vector<std::string> ids;
  for (const auto& [id, set] : expected_) ids.push_back(id);
  std::vector<std::string> trace = BuildZipfianTrace(ids, 48, 0.99, 13);

  std::vector<std::vector<ServeResult>> runs;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ModelSetServiceOptions options;
    options.workers = workers;
    options.cache_enabled = false;
    ModelSetService service(manager_.get(), options);
    runs.push_back(service.Replay(trace));
  }
  ASSERT_EQ(runs[0].size(), trace.size());
  ASSERT_EQ(runs[1].size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_OK(runs[0][i].status);
    ASSERT_OK(runs[1][i].status);
    EXPECT_GT(runs[0][i].modeled_store_nanos, 0u) << "request " << i;
    EXPECT_EQ(runs[0][i].modeled_store_nanos, runs[1][i].modeled_store_nanos)
        << "request " << i << " set " << trace[i];
    EXPECT_EQ(runs[0][i].sets_walked, runs[1][i].sets_walked);
  }
}

// A corrupt blob never poisons the layer cache. One byte of the base
// snapshot's parameter blob is flipped inside a layer the head shares with
// it. Recovering the base fails with Corruption and leaves no layer of that
// blob in the cache (layers are admitted only after their blob's CRC
// passed), so the head, recovered next, cannot be assembled from the
// flipped layer: it ends in Corruption or in bit-exact bytes.
TEST_F(ServeTest, CorruptBlobNeverPoisonsTheCache) {
  struct Arm {
    const char* name;
    Compression compression;
    bool cas;
  };
  for (const Arm& arm : {Arm{"raw", Compression::kNone, false},
                         Arm{"lz", Compression::kLz, false},
                         Arm{"cas", Compression::kNone, true}}) {
    SCOPED_TRACE(arm.name);
    manager_.reset();
    heads_.clear();
    expected_.clear();
    std::filesystem::remove_all(temp_.path() + "/store");
    OpenManager({}, arm.compression, arm.cas);
    std::string base_id = Save(ApproachType::kUpdate, nullptr);
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    std::string head_id = Save(ApproachType::kUpdate, &update);

    // The largest layer the head kept unchanged from the base.
    const ModelSet& base = expected_[base_id];
    const ModelSet& head = expected_[head_id];
    const Tensor* victim = nullptr;
    for (size_t m = 0; m < base.models.size(); ++m) {
      for (size_t p = 0; p < base.models[m].size(); ++p) {
        const Tensor& t = base.models[m][p].second;
        if (t.Equals(head.models[m][p].second) &&
            (victim == nullptr || t.numel() > victim->numel())) {
          victim = &t;
        }
      }
    }
    ASSERT_NE(victim, nullptr);
    ASSERT_GE(victim->numel(), 8u);
    // Stored files hold a shared layer's floats verbatim: raw blobs and CAS
    // chunks byte for byte, LZ blobs as literals (trained weights do not
    // compress). Flip a byte inside the first 16-byte window of the layer
    // that occurs exactly once across the store's blobs.
    const auto* bytes = reinterpret_cast<const char*>(victim->data().data());
    const size_t layer_bytes = victim->numel() * sizeof(float);
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(
             temp_.path() + "/store/blobs")) {
      if (entry.is_regular_file()) files.push_back(entry.path().string());
    }
    std::string flipped_file;
    for (size_t at = 0; at + 16 <= layer_bytes && flipped_file.empty();
         at += 16) {
      const std::string window(bytes + at, 16);
      std::vector<std::pair<std::string, size_t>> hits;
      for (const std::string& file : files) {
        std::ifstream in(file, std::ios::binary);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        for (size_t pos = content.find(window); pos != std::string::npos;
             pos = content.find(window, pos + 1)) {
          hits.emplace_back(file, pos);
        }
      }
      if (hits.size() != 1) continue;
      std::fstream io(hits[0].first,
                      std::ios::binary | std::ios::in | std::ios::out);
      io.seekg(static_cast<std::streamoff>(hits[0].second + 8));
      char c = 0;
      io.get(c);
      io.seekp(static_cast<std::streamoff>(hits[0].second + 8));
      io.put(static_cast<char>(c ^ 0x01));
      flipped_file = hits[0].first;
    }
    ASSERT_FALSE(flipped_file.empty()) << "no stored copy of the layer found";

    ModelSetService service(manager_.get(), ModelSetServiceOptions{});
    Result<ModelSet> base_result = service.Recover(base_id);
    ASSERT_TRUE(base_result.status().IsCorruption())
        << base_result.status().ToString();
    EXPECT_EQ(service.cache_stats().entries, 0u);
    EXPECT_EQ(service.cache_stats().inserts, 0u);

    Result<ModelSet> head_result = service.Recover(head_id);
    if (head_result.ok()) {
      ExpectSetEquals(head_result.ValueOrDie(), head);
    } else {
      EXPECT_TRUE(head_result.status().IsCorruption())
          << head_result.status().ToString();
    }
  }
}

// Verify-then-admit on the ranged root read. With half a set of capacity,
// a cold recovery of the root leaves its later layers resident, so the
// next recovery reads only the earlier ones, by range, from the raw param
// blob. A byte flipped inside one of those (a layer the cache missed) is
// outside any CRC the ranged read checks: its SHA-256 check fails the
// recovery with Corruption, and no layer of that request is admitted.
TEST_F(ServeTest, RangedRootReadFailsAFlippedLayerAndAdmitsNothing) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ModelSetServiceOptions options;
  options.cache_capacity_bytes = SetChargeBytes(expected_[base_id]) / 2;
  ModelSetService service(manager_.get(), options);
  ASSERT_OK(service.Recover(base_id).status());

  // Model 0's first layer: admitted first, so evicted first.
  ASSERT_OK_AND_ASSIGN(SetDocument doc,
                       FetchSetDocument(manager_->context(), base_id));
  FileStore* files = manager_->file_store();
  ASSERT_OK_AND_ASSIGN(uint64_t param_bytes, files->Size(doc.param_blob));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> prefix,
                       files->GetRange(doc.param_blob, 0,
                                       kParamBlobMaxHeaderBytes));
  ASSERT_OK_AND_ASSIGN(ParamBlobLayout layout, ReadParamBlobHeader(prefix));
  const std::string path = temp_.path() + "/store/blobs/" + doc.param_blob;
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(io.is_open()) << path;
  const auto at = static_cast<std::streamoff>(layout.ModelOffset(0) + 2);
  io.seekg(at);
  char c = 0;
  io.get(c);
  io.seekp(at);
  io.put(static_cast<char>(c ^ 0x10));
  io.close();

  const LayerCacheStats before = service.cache_stats();
  const StoreStats reads_before = files->stats();
  ServeResult result;
  Result<ModelSet> recovered = service.Recover(base_id, &result);
  ASSERT_TRUE(recovered.status().IsCorruption())
      << recovered.status().ToString();
  EXPECT_NE(recovered.status().ToString().find("sha-256"), std::string::npos)
      << recovered.status().ToString();
  // The layers came by range, not with the whole blob.
  EXPECT_LT((files->stats() - reads_before).bytes_read, param_bytes);
  const LayerCacheStats after = service.cache_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.entries, before.entries);
}

// Every Update read path against what was saved. Both diff encodings x
// compression {none, LZ} x CAS {off, on}, over a chain 4 deltas deep:
// Recover, RecoverModels of a fixed subset, and the service through caches
// of 0, 0.3x and 2x one set, replaying a seeded random order at workers 1
// and 4, all return exactly the saved version. The paths share one chain
// resolver, so each is checked against the saved bytes, not against
// another path. At 0.3x, entries are evicted while other workers still hold
// them (a TSan target), and on a raw, non-CAS store the root is read by
// range and each of those layers SHA-256-checked, under both encodings.
TEST_F(ServeTest, CachedMatchesDirectAcrossEncodingsCompressionCas) {
  for (DiffEncoding encoding : {DiffEncoding::kAbsolute, DiffEncoding::kXorBase}) {
    for (Compression compression : {Compression::kNone, Compression::kLz}) {
      for (bool cas : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "xor=" << (encoding == DiffEncoding::kXorBase)
                     << " lz=" << (compression == Compression::kLz)
                     << " cas=" << cas);
        TempDir dir("serve-parity");
        ModelSetManager::Options options;
        options.root_dir = dir.path() + "/store";
        options.update_options.diff_encoding = encoding;
        options.blob_compression = compression;
        options.cas.enabled = cas;
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<ModelSetManager> manager,
                             ModelSetManager::Open(options));

        // Each version changes a random subset of layers: nudged, zeroed
        // (so layers repeat within and across sets) or negated.
        Rng rng(23);
        ASSERT_OK_AND_ASSIGN(ModelSet set,
                             MakeInitializedSet(Ffnn48Spec(), 8, /*seed=*/5));
        ASSERT_OK_AND_ASSIGN(SaveResult saved,
                             manager->SaveInitial(ApproachType::kUpdate, set));
        std::vector<std::string> ids{saved.set_id};
        std::map<std::string, ModelSet> versions{{saved.set_id, set}};
        for (int version = 0; version < 4; ++version) {
          ModelSet base = set;
          for (size_t k = 0, n = 3 + rng.NextBounded(10); k < n; ++k) {
            StateDict& model = set.models[rng.NextBounded(set.models.size())];
            Tensor& tensor = model[rng.NextBounded(model.size())].second;
            switch (rng.NextBounded(3)) {
              case 0:
                tensor.at(rng.NextBounded(tensor.numel())) += 0.25f;
                break;
              case 1:
                tensor.Fill(0.0f);
                break;
              default:
                for (float& x : tensor.mutable_data()) x = -x;
                break;
            }
          }
          ModelSetUpdateInfo update;
          update.base_set_id = ids.back();
          update.base_set = &base;
          ASSERT_OK_AND_ASSIGN(
              saved, manager->SaveDerived(ApproachType::kUpdate, set, update));
          ids.push_back(saved.set_id);
          versions[saved.set_id] = set;
        }
        const std::vector<size_t> subset{5, 0, 5, 3};
        for (const std::string& id : ids) {
          ASSERT_OK_AND_ASSIGN(ModelSet direct, manager->Recover(id));
          ExpectSetEquals(direct, versions[id]);
          ASSERT_OK_AND_ASSIGN(std::vector<StateDict> models,
                               manager->RecoverModels(id, subset));
          ASSERT_EQ(models.size(), subset.size());
          ModelSet selected;
          selected.spec = versions[id].spec;
          for (size_t index : subset) {
            selected.models.push_back(versions[id].models[index]);
          }
          ExpectSetEquals(ModelSet{selected.spec, std::move(models)}, selected);
        }

        std::vector<std::string> trace;
        for (int i = 0; i < 24; ++i) {
          trace.push_back(ids[rng.NextBounded(ids.size())]);
        }
        const uint64_t set_bytes = SetChargeBytes(set);
        for (uint64_t capacity : {uint64_t{0}, set_bytes * 3 / 10, 2 * set_bytes}) {
          for (size_t workers : {size_t{1}, size_t{4}}) {
            SCOPED_TRACE(::testing::Message() << "capacity=" << capacity
                                              << " workers=" << workers);
            ModelSetServiceOptions service_options;
            service_options.workers = workers;
            service_options.cache_capacity_bytes = capacity;
            ModelSetService service(manager.get(), service_options);
            std::vector<ModelSet> recovered;
            std::vector<ServeResult> results = service.Replay(trace, &recovered);
            for (size_t i = 0; i < trace.size(); ++i) {
              ASSERT_OK(results[i].status);
              ExpectSetEquals(recovered[i], versions[trace[i]]);
            }
            EXPECT_LE(service.cache_stats().bytes_used, capacity);
          }
        }
        if (cas || compression != Compression::kNone) continue;
        // On a raw, non-CAS store the 0.3x cache leaves part of a set
        // resident, and a request that walks to the root reads just the
        // layers still missing there, by range: fewer bytes in the whole
        // request than the root's param blob alone.
        ASSERT_OK_AND_ASSIGN(SetDocument root_doc,
                             FetchSetDocument(manager->context(), ids[0]));
        ASSERT_OK_AND_ASSIGN(uint64_t param_bytes,
                             manager->file_store()->Size(root_doc.param_blob));
        ModelSetServiceOptions service_options;
        service_options.cache_capacity_bytes = set_bytes * 3 / 10;
        ModelSetService service(manager.get(), service_options);
        size_t ranged = 0;
        for (const std::string& id : trace) {
          const StoreStats before = manager->file_store()->stats();
          ServeResult result;
          ASSERT_OK_AND_ASSIGN(ModelSet served, service.Recover(id, &result));
          ExpectSetEquals(served, versions[id]);
          const auto depth = static_cast<uint64_t>(
              std::find(ids.begin(), ids.end(), id) - ids.begin());
          const uint64_t bytes =
              (manager->file_store()->stats() - before).bytes_read;
          if (result.sets_walked == depth + 1 &&
              result.cache.layer_misses > 0 && bytes < param_bytes) {
            ++ranged;
          }
        }
        EXPECT_GT(ranged, 0u);
      }
    }
  }
}

// Corrupted chains fail cleanly on every read path: Recover, RecoverModels
// and the cached path. Two planted delta documents whose base_set_ids point
// at each other end in Corruption within chain_depth + 1 fetches of the
// chain's documents; a diff entry whose model index is out of range, and a
// base of an unknown kind, end in Corruption too.
TEST_F(ServeTest, CorruptedChainsFailCleanlyOnBothPaths) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  const StoreContext& context = manager_->context();
  ASSERT_OK_AND_ASSIGN(SetDocument head_doc, FetchSetDocument(context, head_id));

  SetDocument a = head_doc;
  a.id = "set-cycle-a";
  a.base_set_id = "set-cycle-b";
  SetDocument b = head_doc;
  b.id = "set-cycle-b";
  b.base_set_id = "set-cycle-a";
  ASSERT_OK(InsertSetDocument(context, a));
  ASSERT_OK(InsertSetDocument(context, b));
  const uint64_t budget = a.chain_depth + 1;
  DocumentStore* docs = manager_->doc_store();

  // The approach itself fetches at most chain_depth + 1 documents; the
  // manager and the service each add one fetch up front to learn the
  // set's approach.
  uint64_t before = docs->stats().read_ops;
  Result<ModelSet> walked = manager_->update_approach()->Recover(a.id);
  EXPECT_TRUE(walked.status().IsCorruption()) << walked.status().ToString();
  EXPECT_LE(docs->stats().read_ops - before, budget);

  before = docs->stats().read_ops;
  Result<ModelSet> direct = manager_->Recover(a.id);
  EXPECT_TRUE(direct.status().IsCorruption()) << direct.status().ToString();
  EXPECT_NE(direct.status().ToString().find("cycle"), std::string::npos);
  EXPECT_LE(docs->stats().read_ops - before, budget + 1);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  before = docs->stats().read_ops;
  Result<ModelSet> served = service.Recover(a.id);
  EXPECT_TRUE(served.status().IsCorruption()) << served.status().ToString();
  EXPECT_NE(served.status().ToString().find("cycle"), std::string::npos);
  EXPECT_LE(docs->stats().read_ops - before, budget + 1);

  before = docs->stats().read_ops;
  Result<std::vector<StateDict>> selected = manager_->RecoverModels(a.id, {0});
  EXPECT_TRUE(selected.status().IsCorruption()) << selected.status().ToString();
  EXPECT_LE(docs->stats().read_ops - before, budget + 1);

  // A diff whose one entry names model num_models. It is encoded from the
  // head plus one extra model, so the blob itself decodes cleanly.
  ModelSet wider = expected_[head_id];
  wider.models.push_back(wider.models.back());
  std::vector<DiffEntry> entries{
      {static_cast<uint32_t>(head_doc.num_models), 0}};
  SetDocument oob = head_doc;
  oob.id = "set-oob";
  oob.diff_blob = "set-oob.diff.bin";
  ASSERT_OK(manager_->file_store()->Put(oob.diff_blob,
                                        EncodeDiffBlob(wider, entries)));
  ASSERT_OK(InsertSetDocument(context, oob));
  Result<ModelSet> oob_direct = manager_->Recover(oob.id);
  EXPECT_TRUE(oob_direct.status().IsCorruption())
      << oob_direct.status().ToString();
  ModelSetService cold_service(manager_.get(), ModelSetServiceOptions{});
  Result<ModelSet> oob_served = cold_service.Recover(oob.id);
  EXPECT_TRUE(oob_served.status().IsCorruption())
      << oob_served.status().ToString();
  EXPECT_NE(oob_served.status().ToString().find("out of range"),
            std::string::npos);
  Result<std::vector<StateDict>> oob_selected =
      manager_->RecoverModels(oob.id, {0});
  EXPECT_TRUE(oob_selected.status().IsCorruption())
      << oob_selected.status().ToString();

  // A base level of a kind an Update chain never holds.
  SetDocument odd_base = head_doc;
  odd_base.id = "set-odd-base";
  odd_base.kind = "prov";
  SetDocument odd = head_doc;
  odd.id = "set-odd";
  odd.base_set_id = odd_base.id;
  ASSERT_OK(InsertSetDocument(context, odd_base));
  ASSERT_OK(InsertSetDocument(context, odd));
  Result<ModelSet> odd_direct = manager_->Recover(odd.id);
  EXPECT_TRUE(odd_direct.status().IsCorruption())
      << odd_direct.status().ToString();
  Result<std::vector<StateDict>> odd_selected =
      manager_->RecoverModels(odd.id, {0});
  EXPECT_TRUE(odd_selected.status().IsCorruption())
      << odd_selected.status().ToString();
  Result<ModelSet> odd_served = cold_service.Recover(odd.id);
  EXPECT_TRUE(odd_served.status().IsCorruption())
      << odd_served.status().ToString();
}

}  // namespace
}  // namespace mmm
