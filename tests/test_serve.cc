#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/manager.h"
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

// ---------------------------------------------------------------------------
// LayerCache invariants.

TEST(LayerCacheTest, RoundTripAndHitCounters) {
  LayerCache cache(1 << 20, /*shards=*/4);
  Tensor t = RandomTensor(Shape{16, 4}, 1);
  Tensor out;
  EXPECT_FALSE(cache.Get(DigestOf(1), &out));
  EXPECT_TRUE(cache.Put(DigestOf(1), t));
  EXPECT_FALSE(cache.Put(DigestOf(1), t));  // duplicate declined
  EXPECT_TRUE(cache.Get(DigestOf(1), &out));
  EXPECT_TRUE(out.Equals(t));
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
  // One shard so the budget is a single LRU; room for ~4 entries.
  LayerCache cache(charge * 4, /*shards=*/1);
  for (uint8_t i = 0; i < 100; ++i) {
    cache.Put(DigestOf(i), t);
    LayerCacheStats stats = cache.stats();
    ASSERT_LE(stats.bytes_used, cache.capacity_bytes());
    ASSERT_LE(stats.entries, 4u);
  }
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 96u);
  // An entry larger than the whole budget is declined outright.
  Tensor huge = RandomTensor(Shape{1024}, 3);
  EXPECT_FALSE(cache.Put(DigestOf(200), huge));
  EXPECT_LE(cache.stats().bytes_used, cache.capacity_bytes());
}

TEST(LayerCacheTest, PinnedEntriesSurviveEvictionPressure) {
  Tensor t = RandomTensor(Shape{64}, 4);
  uint64_t charge = LayerCache::ChargeOf(t);
  LayerCache cache(charge * 3, /*shards=*/1);
  ASSERT_TRUE(cache.Put(DigestOf(1), t, /*pinned=*/true));
  ASSERT_TRUE(cache.Put(DigestOf(2), t));
  ASSERT_TRUE(cache.Pin(DigestOf(2)));
  for (uint8_t i = 10; i < 60; ++i) cache.Put(DigestOf(i), t);
  EXPECT_TRUE(cache.Contains(DigestOf(1)));
  EXPECT_TRUE(cache.Contains(DigestOf(2)));
  ASSERT_LE(cache.stats().bytes_used, cache.capacity_bytes());
  // With only pinned entries left in budget, an oversized Put is declined,
  // never evicting a pinned entry.
  Tensor big = RandomTensor(Shape{140}, 5);
  EXPECT_FALSE(cache.Put(DigestOf(99), big));
  EXPECT_TRUE(cache.Contains(DigestOf(1)));
  EXPECT_TRUE(cache.Contains(DigestOf(2)));
  // Unpinning releases them for eviction again.
  cache.Unpin(DigestOf(1));
  cache.Unpin(DigestOf(2));
  for (uint8_t i = 60; i < 70; ++i) cache.Put(DigestOf(i), t);
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
}

TEST(LayerCacheTest, InvalidateRemovesEvenPinned) {
  Tensor t = RandomTensor(Shape{8}, 6);
  LayerCache cache(1 << 20, /*shards=*/2);
  ASSERT_TRUE(cache.Put(DigestOf(1), t, /*pinned=*/true));
  EXPECT_TRUE(cache.Invalidate(DigestOf(1)));
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes_used, 0u);
  EXPECT_EQ(stats.bytes_pinned, 0u);
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_FALSE(cache.Invalidate(DigestOf(1)));
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

  void OpenManager(UpdateApproachOptions update_options = {}) {
    ScenarioConfig config = ScenarioConfig::Battery(12);
    config.samples_per_dataset = 64;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    ASSERT_OK(scenario_->Init());
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    options.update_options = update_options;
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

// Exact hit accounting at one worker: a repeated request probes every layer
// and hits all of them, serving the set without a single file-store read.
TEST_F(ServeTest, WarmCacheHitCountersAreExact) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  size_t layers = TotalLayers(expected_[head_id]);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  // Cold request: every probed layer misses (head + base are both walked).
  ServeResult cold;
  ASSERT_OK_AND_ASSIGN(ModelSet first, service.Recover(head_id, &cold));
  ExpectSetEquals(first, expected_[head_id]);
  EXPECT_EQ(cold.cache.layer_hits, 0u);
  EXPECT_EQ(cold.cache.layer_misses, 2 * layers);  // head + its base
  EXPECT_EQ(cold.cache.meta_misses, 2u);
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

  // Sibling sharing: the base set's unchanged layers are already resident,
  // so its first recovery hits on every layer too (the hash table is the
  // only store read left besides documents).
  ServeResult base_result;
  ASSERT_OK_AND_ASSIGN(ModelSet base, service.Recover(base_id, &base_result));
  ExpectSetEquals(base, expected_[base_id]);
  EXPECT_EQ(base_result.cache.layer_hits, layers);
  EXPECT_EQ(base_result.cache.sets_from_cache, 1u);
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
  options.cache_shards = 1;
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
  tiny.cache_shards = 1;
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

}  // namespace
}  // namespace mmm
