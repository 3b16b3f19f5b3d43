#include "storage/store_batch.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cas/blob_io.h"
#include "cas/chunker.h"
#include "cas/manifest.h"
#include "cas/pack.h"
#include "core/blob_formats.h"
#include "core/manager.h"
#include "serialize/binary_io.h"
#include "serialize/compress.h"
#include "serialize/crc32.h"
#include "serialize/sha256.h"
#include "storage/env.h"
#include "storage/executor.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(ExecutorTest, ClampsZeroLanesToOne) {
  Executor executor(0);
  EXPECT_EQ(executor.lanes(), 1u);
}

TEST(ExecutorTest, CoversEveryIndexExactlyOnce) {
  for (size_t lanes : {1u, 2u, 3u, 8u}) {
    Executor executor(lanes);
    std::vector<int> hits(100, 0);
    executor.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "index " << i << " with " << lanes << " lanes";
    }
  }
}

TEST(ExecutorTest, HandlesEmptyAndTinyCounts) {
  Executor executor(4);
  executor.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
  int calls = 0;
  executor.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
  // Fewer items than lanes: the surplus lanes have nothing to do.
  std::vector<int> hits(2, 0);
  executor.ParallelFor(2, [&](size_t i) { hits[i]++; });
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
}

TEST(ExecutorTest, ReusableAcrossDispatches) {
  Executor executor(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> hits(17, 0);
    executor.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

// ---------------------------------------------------------------------------
// StoreBatch
// ---------------------------------------------------------------------------

/// In-memory store pair with a configurable latency model and simulated
/// clock. A plain struct (not a fixture) so tests can spin up several
/// independent store worlds and compare them.
struct Stores {
  explicit Stores(StoreLatencyModel latency = {})
      : file_store(&env, "/blobs", latency, &sim_clock),
        doc_store(&env, "/wal", {}, &sim_clock) {
    file_store.Open().Check();
    doc_store.Open().Check();
  }

  /// Every blob name -> contents in the file store, for whole-store
  /// comparisons across lane counts.
  std::map<std::string, std::vector<uint8_t>> Blobs() {
    std::map<std::string, std::vector<uint8_t>> blobs;
    auto names = file_store.List().ValueOrDie();
    for (const std::string& name : names) {
      blobs[name] = file_store.Get(name).ValueOrDie();
    }
    return blobs;
  }

  InMemoryEnv env;
  SimulatedClock sim_clock;
  FileStore file_store;
  DocumentStore doc_store;
};

JsonValue Doc(const std::string& id) {
  JsonValue doc = JsonValue::Object();
  doc.Set("_id", id);
  return doc;
}

/// Stages the same mixed workload — eager blobs, string blobs, deferred
/// producers, interleaved document inserts — on any batch.
void StageMixedOps(StoreBatch* batch) {
  batch->PutBlob("b0.bin", {0, 1, 2, 3});
  batch->InsertDocument("sets", Doc("d0"));
  batch->PutBlobString("b1.txt", "payload-one");
  batch->PutBlobDeferred("b2.bin", [](BlobSink* sink) {
    return sink->Append(std::vector<uint8_t>{9, 8, 7});
  });
  batch->PutBlobDeferred("b3.bin", [](BlobSink* sink) {
    return sink->Append(std::vector<uint8_t>(100, 42));
  });
  batch->InsertDocument("sets", Doc("d1"));
}

TEST(StoreBatchTest, EmptyCommitIsFreeNoOp) {
  Stores stores;
  for (size_t lanes : {1u, 4u}) {
    Executor executor(lanes);
    StoreBatch batch(&stores.file_store, &stores.doc_store, &executor);
    ASSERT_OK(batch.Commit());
  }
  EXPECT_EQ(stores.file_store.stats().write_ops, 0u);
  EXPECT_EQ(stores.doc_store.stats().write_ops, 0u);
  EXPECT_EQ(stores.sim_clock.nanos(), 0u);
}

TEST(StoreBatchTest, CommitClearsBatch) {
  Stores stores;
  Executor executor(2);
  StoreBatch batch(&stores.file_store, &stores.doc_store, &executor);
  StageMixedOps(&batch);
  EXPECT_EQ(batch.staged_ops(), 6u);
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(batch.staged_ops(), 0u);
  // A failed commit clears too.
  batch.PutBlob("bad/name", {1});
  EXPECT_FALSE(batch.Commit().ok());
  EXPECT_EQ(batch.staged_ops(), 0u);
}

TEST(StoreBatchTest, StoreContentsIdenticalAcrossLaneCounts) {
  // Reference store written with one lane (no executor at all) ...
  Stores reference;
  {
    StoreBatch batch(&reference.file_store, &reference.doc_store, nullptr);
    StageMixedOps(&batch);
    ASSERT_OK(batch.Commit());
  }
  auto reference_blobs = reference.Blobs();
  auto reference_docs = reference.doc_store.All("sets").ValueOrDie();
  ASSERT_EQ(reference_blobs.size(), 4u);
  ASSERT_EQ(reference_docs.size(), 2u);

  // ... must match stores written with any lane count, byte for byte and
  // in document insertion order.
  for (size_t lanes : {2u, 8u}) {
    Stores fresh;
    Executor executor(lanes);
    StoreBatch batch(&fresh.file_store, &fresh.doc_store, &executor);
    StageMixedOps(&batch);
    ASSERT_OK(batch.Commit());
    EXPECT_EQ(fresh.Blobs(), reference_blobs) << lanes << " lanes";
    auto docs = fresh.doc_store.All("sets").ValueOrDie();
    ASSERT_EQ(docs.size(), reference_docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      EXPECT_EQ(docs[i].Dump(), reference_docs[i].Dump());
    }
  }
}

TEST(StoreBatchTest, CountersExactForAnyLaneCount) {
  // Pipeline accounting must stay exact under parallelism — per-op deltas
  // are merged once per commit, so counters cannot over- or under-count
  // regardless of thread interleaving.
  Stores reference;
  {
    StoreBatch batch(&reference.file_store, &reference.doc_store, nullptr);
    StageMixedOps(&batch);
    ASSERT_OK(batch.Commit());
  }
  EXPECT_EQ(reference.file_store.stats().write_ops, 4u);

  for (size_t lanes : {2u, 4u}) {
    Stores fresh;
    Executor executor(lanes);
    StoreBatch batch(&fresh.file_store, &fresh.doc_store, &executor);
    StageMixedOps(&batch);
    ASSERT_OK(batch.Commit());
    EXPECT_EQ(fresh.file_store.stats().write_ops,
              reference.file_store.stats().write_ops);
    EXPECT_EQ(fresh.file_store.stats().bytes_written,
              reference.file_store.stats().bytes_written);
    EXPECT_EQ(fresh.doc_store.stats().write_ops,
              reference.doc_store.stats().write_ops);
    EXPECT_EQ(fresh.doc_store.stats().bytes_written,
              reference.doc_store.stats().bytes_written);
  }
}

// 100 ns per op + 1 ns per byte: costs are easy to compute by hand.
StoreLatencyModel HandLatency() { return StoreLatencyModel{100, 1.0}; }

void StageThreeBlobs(StoreBatch* batch) {
  batch->PutBlob("a.bin", std::vector<uint8_t>(10, 1));  // cost 110
  batch->PutBlob("b.bin", std::vector<uint8_t>(20, 2));  // cost 120
  batch->PutBlob("c.bin", std::vector<uint8_t>(30, 3));  // cost 130
}

TEST(StoreBatchLatencyTest, SerialChargeIsSumOfOpCosts) {
  // One lane reproduces the paper's serialized cost model: the batch charge
  // equals the sum of per-op costs, no dispatch overhead.
  Stores stores(HandLatency());
  StorePipelineOptions options;
  options.dispatch_nanos_per_op = 5;  // must NOT be charged serially
  Executor executor(1);
  StoreBatch batch(&stores.file_store, &stores.doc_store, &executor, options);
  StageThreeBlobs(&batch);
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(stores.sim_clock.nanos(), 110u + 120u + 130u);
}

TEST(StoreBatchLatencyTest, ParallelChargeIsMaxLanePlusDispatch) {
  // Two lanes: op i lands on lane i % 2, so lane 0 costs 110 + 130 = 240
  // and lane 1 costs 120. The batch charges max(240, 120) plus the per-op
  // dispatch cost for all three ops.
  Stores stores(HandLatency());
  StorePipelineOptions options;
  options.lanes = 2;
  options.dispatch_nanos_per_op = 5;
  Executor executor(2);
  StoreBatch batch(&stores.file_store, &stores.doc_store, &executor, options);
  StageThreeBlobs(&batch);
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(stores.sim_clock.nanos(), 240u + 3u * 5u);
}

TEST(StoreBatchTest, SerialErrorStopsAtFailingOp) {
  Stores stores;
  StoreBatch batch(&stores.file_store, &stores.doc_store, nullptr);
  batch.PutBlob("ok.bin", {1});
  batch.PutBlob("bad/name", {2});  // '/' is rejected by the file store
  batch.PutBlob("never.bin", {3});
  batch.InsertDocument("sets", Doc("d0"));
  Status status = batch.Commit();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(stores.file_store.Exists("ok.bin").ValueOrDie());
  // Serial commit aborts at the failure: later ops never ran.
  EXPECT_FALSE(stores.file_store.Exists("never.bin").ValueOrDie());
  EXPECT_EQ(stores.doc_store.Count("sets"), 0u);
}

TEST(StoreBatchTest, ParallelCommitReportsFirstStagedError) {
  // Two failures staged at indices 1 (producer) and 3 (invalid name); the
  // reported error must be index 1's, deterministically, for any lane
  // count and any thread interleaving.
  Stores stores;
  Executor executor(8);
  StoreBatch batch(&stores.file_store, &stores.doc_store, &executor);
  batch.PutBlob("ok.bin", {1});
  batch.PutBlobDeferred("enc.bin", [](BlobSink*) {
    return Status::Internal("producer exploded");
  });
  batch.PutBlob("ok2.bin", {2});
  batch.PutBlob("bad/name", {3});
  batch.InsertDocument("sets", Doc("d0"));
  Status status = batch.Commit();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("producer exploded"), std::string::npos)
      << status.ToString();
  // A file-phase failure always skips the document phase.
  EXPECT_EQ(stores.doc_store.Count("sets"), 0u);
}

// ---------------------------------------------------------------------------
// Parallel hashing
// ---------------------------------------------------------------------------

TEST(HashTableParallelTest, StableAcrossLaneCounts) {
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 9, 3).ValueOrDie();
  HashTable reference = ComputeHashTable(set);
  for (size_t lanes : {1u, 2u, 8u}) {
    Executor executor(lanes);
    HashTable hashed = ComputeHashTable(set, &executor);
    ASSERT_EQ(hashed.size(), reference.size()) << lanes << " lanes";
    for (size_t m = 0; m < reference.size(); ++m) {
      ASSERT_EQ(hashed[m].size(), reference[m].size());
      for (size_t p = 0; p < reference[m].size(); ++p) {
        EXPECT_TRUE(hashed[m][p] == reference[m][p])
            << "model " << m << " param " << p << " with " << lanes
            << " lanes";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Digest memos on the save path
// ---------------------------------------------------------------------------

/// A copy of `set` in which every tensor owns a fresh buffer, so nothing in
/// it carries a digest memo and nothing it hashes is published.
ModelSet DeepCopy(const ModelSet& set) {
  ModelSet copy = set;
  for (StateDict& model : copy.models) {
    for (auto& [key, tensor] : model) {
      std::span<const float> values = tensor.data();
      tensor = Tensor(tensor.shape(),
                      std::vector<float>(values.begin(), values.end()));
    }
  }
  return copy;
}

void ExpectSameHashes(const HashTable& got, const HashTable& expected,
                      const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t m = 0; m < expected.size(); ++m) {
    ASSERT_EQ(got[m].size(), expected[m].size()) << label << " model " << m;
    for (size_t p = 0; p < expected[m].size(); ++p) {
      EXPECT_EQ(got[m][p], expected[m][p])
          << label << " model " << m << " param " << p;
    }
  }
}

void ExpectSameSet(const ModelSet& got, const ModelSet& expected,
                   const std::string& label) {
  ASSERT_EQ(got.models.size(), expected.models.size()) << label;
  for (size_t m = 0; m < expected.models.size(); ++m) {
    ASSERT_EQ(got.models[m].size(), expected.models[m].size()) << label;
    for (size_t p = 0; p < expected.models[m].size(); ++p) {
      EXPECT_TRUE(got.models[m][p].second.Equals(expected.models[m][p].second))
          << label << " model " << m << " param " << p;
    }
  }
}

/// Five versions of a 20-model set. Each rewrites some layers of two
/// models in place and shares every other buffer with its predecessor, as
/// a retrain-then-save cycle does.
std::vector<ModelSet> SharingChain() {
  std::vector<ModelSet> chain;
  chain.push_back(MakeInitializedSet(Ffnn48Spec(), 20, 11).ValueOrDie());
  for (size_t v = 1; v < 5; ++v) {
    ModelSet next = chain.back();
    for (size_t m : {(3 * v) % 20, (7 * v + 1) % 20}) {
      for (size_t p = v % 2; p < next.models[m].size(); p += 2) {
        for (float& x : next.models[m][p].second.mutable_data()) {
          x = x * 0.5f + 0.25f;
        }
      }
    }
    chain.push_back(std::move(next));
  }
  return chain;
}

std::unique_ptr<ModelSetManager> OpenInMemory(InMemoryEnv* env, size_t lanes) {
  ModelSetManager::Options options;
  options.root_dir = "/store";
  options.env = env;
  options.pipeline.lanes = lanes;
  return ModelSetManager::Open(options).ValueOrDie();
}

/// Saves `chain` as one Update chain (deep copies of it when `deep_copy`),
/// checks every version recovers bit-exact, and returns every blob by name.
std::map<std::string, std::vector<uint8_t>> SaveUpdateChain(
    const std::vector<ModelSet>& chain, size_t lanes, bool deep_copy) {
  const std::string label = "lanes=" + std::to_string(lanes) +
                            (deep_copy ? " deep" : " shared");
  InMemoryEnv env;
  std::unique_ptr<ModelSetManager> manager = OpenInMemory(&env, lanes);
  std::vector<std::string> ids;
  for (const ModelSet& version : chain) {
    ModelSet set = deep_copy ? DeepCopy(version) : version;
    ModelSetUpdateInfo update;
    if (!ids.empty()) update.base_set_id = ids.back();
    Result<SaveResult> saved =
        ids.empty() ? manager->SaveInitial(ApproachType::kUpdate, set)
                    : manager->SaveDerived(ApproachType::kUpdate, set, update);
    EXPECT_TRUE(saved.ok()) << label << ": " << saved.status().ToString();
    ids.push_back(saved.ValueOrDie().set_id);
  }
  for (size_t v = 0; v < chain.size(); ++v) {
    ExpectSameSet(manager->Recover(ids[v]).ValueOrDie(), chain[v],
                  label + " version " + std::to_string(v));
  }
  std::map<std::string, std::vector<uint8_t>> blobs;
  for (const std::string& name : manager->file_store()->List().ValueOrDie()) {
    blobs[name] = manager->file_store()->Get(name).ValueOrDie();
  }
  return blobs;
}

TEST(HashMemoTest, UpdateSavesAreBitExactWithAndWithoutMemos) {
  const std::vector<ModelSet> chain = SharingChain();
  // Memo-less reference: every save hashes every layer.
  const auto reference = SaveUpdateChain(chain, 1, /*deep_copy=*/true);
  size_t hash_blobs = 0;
  size_t diff_blobs = 0;
  for (const auto& [name, bytes] : reference) {
    hash_blobs += name.ends_with(".hashes.bin");
    diff_blobs += name.ends_with(".diff.bin");
  }
  EXPECT_EQ(hash_blobs, chain.size());
  EXPECT_EQ(diff_blobs, chain.size() - 1);

  // The first shared run publishes memos as it goes; the later ones find
  // every buffer already hashed.
  for (size_t lanes : {1u, 4u, 1u}) {
    EXPECT_EQ(SaveUpdateChain(chain, lanes, /*deep_copy=*/false), reference)
        << "shared, lanes=" << lanes;
    Sha256Digest memo;
    EXPECT_TRUE(chain[0].models[0][0].second.LoadDigest(&memo));
  }
  EXPECT_EQ(SaveUpdateChain(chain, 4, /*deep_copy=*/true), reference);
}

TEST(HashMemoTest, InPlaceWritesBySoleOwnerReachTheDiff) {
  InMemoryEnv env;
  std::unique_ptr<ModelSetManager> manager = OpenInMemory(&env, 1);
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 20, 13).ValueOrDie();
  ModelSet sharer = set;
  ASSERT_OK_AND_ASSIGN(SaveResult base,
                       manager->SaveInitial(ApproachType::kUpdate, set));
  Tensor& layer = set.models[5][2].second;
  Sha256Digest memo;
  ASSERT_TRUE(layer.LoadDigest(&memo));

  // `set` becomes the sole owner and writes the layer in place.
  sharer = ModelSet();
  const float* before = layer.data().data();
  layer.mutable_data()[0] += 1.0f;
  ASSERT_EQ(layer.data().data(), before);

  ModelSetUpdateInfo update;
  update.base_set_id = base.set_id;
  ASSERT_OK_AND_ASSIGN(SaveResult derived,
                       manager->SaveDerived(ApproachType::kUpdate, set, update));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> diff_blob,
                       manager->file_store()->Get(derived.set_id + ".diff.bin"));
  ASSERT_OK_AND_ASSIGN(DiffView diff, DiffView::Parse(set.spec, diff_blob));
  ASSERT_EQ(diff.entries().size(), 1u);
  EXPECT_EQ(diff.entries()[0].model_index, 5u);
  EXPECT_EQ(diff.entries()[0].param_index, 2u);
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager->Recover(derived.set_id));
  ExpectSameSet(recovered, set, "recovered");

  // A sole owner may keep writing through a span it took before a save:
  // that save must not have published a memo for the buffer.
  std::span<float> kept = set.models[6][1].second.mutable_data();
  update.base_set_id = derived.set_id;
  ASSERT_OK_AND_ASSIGN(SaveResult unchanged,
                       manager->SaveDerived(ApproachType::kUpdate, set, update));
  kept[0] += 1.0f;
  update.base_set_id = unchanged.set_id;
  ASSERT_OK_AND_ASSIGN(SaveResult written,
                       manager->SaveDerived(ApproachType::kUpdate, set, update));
  ASSERT_OK_AND_ASSIGN(diff_blob,
                       manager->file_store()->Get(written.set_id + ".diff.bin"));
  ASSERT_OK_AND_ASSIGN(diff, DiffView::Parse(set.spec, diff_blob));
  ASSERT_EQ(diff.entries().size(), 1u);
  EXPECT_EQ(diff.entries()[0].model_index, 6u);
  EXPECT_EQ(diff.entries()[0].param_index, 1u);
  ASSERT_OK_AND_ASSIGN(recovered, manager->Recover(written.set_id));
  ExpectSameSet(recovered, set, "recovered after the span write");
}

TEST(HashMemoTest, NonUniformSetsHashLikeTheScalarPath) {
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 20, 5).ValueOrDie();
  set.models[3][0].second = testing::RandomTensor(Shape{7}, 1);
  set.models[17].pop_back();
  HashTable expected(set.models.size());
  for (size_t m = 0; m < set.models.size(); ++m) {
    for (const auto& [key, tensor] : set.models[m]) {
      expected[m].push_back(Sha256::Hash(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(tensor.data().data()),
          tensor.numel() * sizeof(float))));
    }
  }
  const ModelSet sharer = set;  // lets the first pass publish its memos
  for (size_t lanes : {1u, 4u}) {
    Executor executor(lanes);
    for (int pass = 0; pass < 2; ++pass) {
      ExpectSameHashes(ComputeHashTable(set, &executor), expected,
                       "lanes=" + std::to_string(lanes) + " pass " +
                           std::to_string(pass));
    }
  }
  ExpectSameHashes(ComputeHashTable(DeepCopy(set)), expected, "deep copy");
}

TEST(HashMemoTest, ConcurrentHashersOfSharedBuffersAgree) {
  for (uint64_t round = 0; round < 4; ++round) {
    const ModelSet set =
        MakeInitializedSet(Ffnn48Spec(), 40, 100 + round).ValueOrDie();
    const HashTable expected = ComputeHashTable(DeepCopy(set));
    // Two sets over the same buffers, hashed at once: both race to publish
    // every memo, then both read them.
    const ModelSet a = set;
    const ModelSet b = set;
    for (int pass = 0; pass < 2; ++pass) {
      HashTable got_b;
      std::thread other([&] {
        Executor executor(2);
        got_b = ComputeHashTable(b, &executor);
      });
      HashTable got_a = ComputeHashTable(a);
      other.join();
      const std::string label =
          "round " + std::to_string(round) + " pass " + std::to_string(pass);
      ExpectSameHashes(got_a, expected, label + " a");
      ExpectSameHashes(got_b, expected, label + " b");
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: every approach is lane-invariant
// ---------------------------------------------------------------------------

struct ManagerRun {
  std::unique_ptr<TempDir> temp;
  std::unique_ptr<MultiModelScenario> scenario;
  std::unique_ptr<ModelSetManager> manager;
  std::vector<SaveResult> saves;
  std::vector<ModelSet> recovered;
};

/// Saves an initial set plus one derived cycle with `type`, then recovers
/// both, against a manager configured with `lanes` pipeline lanes. The
/// scenario is deterministic in its config, so two runs see bit-identical
/// workloads.
ManagerRun RunApproach(ApproachType type, size_t lanes) {
  ManagerRun run;
  run.temp = std::make_unique<TempDir>(
      "pipeline-" + ApproachTypeName(type) + "-" + std::to_string(lanes));
  ScenarioConfig config = ScenarioConfig::Battery(6);
  config.samples_per_dataset = 32;
  run.scenario = std::make_unique<MultiModelScenario>(config);
  EXPECT_OK(run.scenario->Init());

  ModelSetManager::Options options;
  options.root_dir = run.temp->path() + "/store";
  options.resolver = run.scenario.get();
  options.pipeline.lanes = lanes;
  auto manager_or = ModelSetManager::Open(options);
  EXPECT_OK(manager_or.status());
  run.manager = std::move(manager_or).ValueOrDie();

  SaveResult initial =
      run.manager->SaveInitial(type, run.scenario->current_set()).ValueOrDie();
  run.saves.push_back(initial);
  ModelSetUpdateInfo update = run.scenario->AdvanceCycle().ValueOrDie();
  update.base_set_id = initial.set_id;
  run.saves.push_back(
      run.manager->SaveDerived(type, run.scenario->current_set(), update)
          .ValueOrDie());
  for (const SaveResult& save : run.saves) {
    run.recovered.push_back(run.manager->Recover(save.set_id).ValueOrDie());
  }
  return run;
}

TEST(PipelineEquivalenceTest, AllApproachesLaneInvariant) {
  for (ApproachType type : kAllApproaches) {
    SCOPED_TRACE(ApproachTypeName(type));
    ManagerRun serial = RunApproach(type, /*lanes=*/1);
    ManagerRun parallel = RunApproach(type, /*lanes=*/4);

    // SaveResult counters are exact, not approximate, under parallelism.
    ASSERT_EQ(serial.saves.size(), parallel.saves.size());
    for (size_t i = 0; i < serial.saves.size(); ++i) {
      EXPECT_EQ(serial.saves[i].set_id, parallel.saves[i].set_id);
      EXPECT_EQ(serial.saves[i].bytes_written, parallel.saves[i].bytes_written);
      EXPECT_EQ(serial.saves[i].file_store_writes,
                parallel.saves[i].file_store_writes);
      EXPECT_EQ(serial.saves[i].doc_store_writes,
                parallel.saves[i].doc_store_writes);
      EXPECT_EQ(serial.saves[i].simulated_store_nanos,
                parallel.saves[i].simulated_store_nanos);
    }

    // Every persisted blob is byte-identical across lane counts.
    auto names = serial.manager->file_store()->List().ValueOrDie();
    auto parallel_names = parallel.manager->file_store()->List().ValueOrDie();
    ASSERT_EQ(names, parallel_names);
    for (const std::string& name : names) {
      EXPECT_EQ(serial.manager->file_store()->Get(name).ValueOrDie(),
                parallel.manager->file_store()->Get(name).ValueOrDie())
          << "blob " << name;
    }

    // Recovery is bit-exact in both worlds.
    ASSERT_EQ(serial.recovered.size(), parallel.recovered.size());
    for (size_t s = 0; s < serial.recovered.size(); ++s) {
      ExpectSameSet(parallel.recovered[s], serial.recovered[s],
                    "set " + std::to_string(s));
    }
  }
}


// ---------------------------------------------------------------------------
// One streamed save path: stored bytes
// ---------------------------------------------------------------------------

/// A whole-blob param encoder kept in the test, independent of the
/// library's window encoder: header, floats, layer CRC table, footer.
std::vector<uint8_t> ReferenceParamBlob(const ModelSet& set) {
  BinaryWriter writer;
  const char magic[] = "MMMPARM2";
  writer.WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(magic), 8));
  writer.WriteVarint(set.models.size());
  writer.WriteVarint(set.spec.ParameterCount());
  std::vector<uint32_t> table;
  for (const StateDict& model : set.models) {
    for (const auto& [key, tensor] : model) {
      const size_t at = writer.size();
      writer.WriteFloatSpan(tensor.data());
      table.push_back(Crc32::Compute(
          std::span<const uint8_t>(writer.buffer()).subspan(at)));
    }
  }
  for (uint32_t crc : table) writer.WriteUint32(crc);
  writer.WriteUint32(Crc32::Compute(writer.buffer()));
  return writer.TakeBuffer();
}

/// One saved store: every blob's logical bytes by name (a manifest read
/// back through the CAS read path), without the pack blobs.
struct SavedStore {
  std::map<std::string, std::vector<uint8_t>> blobs;
  std::map<std::string, CasManifest> manifests;
  std::vector<std::pair<std::string, ModelSet>> snapshots;  ///< param blob
};

SavedStore SaveScenario(ApproachType type, Compression codec, bool cas,
                        size_t lanes) {
  // 60 FFNN-48 models: a 1.2 MB param blob, two write windows.
  ScenarioConfig config =
      ScenarioConfig::Battery(type == ApproachType::kMMlibBase ? 6 : 60);
  config.samples_per_dataset = 16;
  MultiModelScenario scenario(config);
  scenario.Init().Check();
  InMemoryEnv env;
  ModelSetManager::Options options;
  options.root_dir = "/store";
  options.env = &env;
  options.resolver = &scenario;
  options.blob_compression = codec;
  options.cas.enabled = cas;
  options.pipeline.lanes = lanes;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  SavedStore out;
  SaveResult saved =
      manager->SaveInitial(type, scenario.current_set()).ValueOrDie();
  out.snapshots.push_back({saved.set_id + ".params.bin",
                           scenario.current_set()});
  ModelSetUpdateInfo update = scenario.AdvanceCycle().ValueOrDie();
  update.base_set_id = saved.set_id;
  manager->SaveDerived(type, scenario.current_set(), update).ValueOrDie();

  FileStore* files = manager->file_store();
  for (const std::string& name : files->List().ValueOrDie()) {
    if (IsPackBlobName(name)) continue;
    out.blobs[name] =
        cas ? CasReadBlobRange(files, manager->cas(), name, 0,
                               CasBlobSize(files, manager->cas(), name)
                                   .ValueOrDie())
                  .ValueOrDie()
            : files->Get(name).ValueOrDie();
    std::vector<uint8_t> stored = files->Get(name).ValueOrDie();
    if (IsManifestPayload(stored)) {
      out.manifests[name] = DecodeManifest(stored).ValueOrDie();
    }
  }
  return out;
}

TEST(StreamedSaveTest, StoredBlobsMatchTheReferenceEncodersEverywhere) {
  CasOptions chunking;
  for (ApproachType type : kAllApproaches) {
    for (Compression codec :
         {Compression::kNone, Compression::kLz, Compression::kShuffleLz}) {
      const std::string combo =
          ApproachTypeName(type) + "/" + std::string(CompressionName(codec));
      // One lane, no CAS: every param blob equals the test's own encoder
      // (framed by the codec); the other blobs come from their whole-blob
      // encoders and are the reference for the other configurations.
      const SavedStore reference = SaveScenario(type, codec, false, 1);
      for (const auto& [name, set] : reference.snapshots) {
        if (type == ApproachType::kMMlibBase) continue;
        const std::vector<uint8_t> raw = ReferenceParamBlob(set);
        ASSERT_TRUE(reference.blobs.count(name) != 0) << combo << " " << name;
        EXPECT_TRUE(reference.blobs.at(name) ==
                    (codec == Compression::kNone ? raw
                                                 : CompressBlob(codec, raw)))
            << combo << " " << name;
      }
      for (bool cas : {false, true}) {
        for (size_t lanes : {size_t{1}, size_t{4}}) {
          const std::string label = combo + (cas ? " cas" : " raw") +
                                    " lanes=" + std::to_string(lanes);
          const SavedStore saved = SaveScenario(type, codec, cas, lanes);
          EXPECT_EQ(saved.blobs.size(), reference.blobs.size()) << label;
          for (const auto& [name, bytes] : reference.blobs) {
            auto it = saved.blobs.find(name);
            ASSERT_TRUE(it != saved.blobs.end()) << label << " " << name;
            EXPECT_TRUE(it->second == bytes) << label << " " << name;
          }
          if (!cas) {
            EXPECT_TRUE(saved.manifests.empty()) << label;
            continue;
          }
          // A manifest lists the chunks ChunkBlob cuts from the whole
          // payload, with its size and CRC.
          for (const auto& [name, manifest] : saved.manifests) {
            const std::vector<uint8_t>& payload = reference.blobs.at(name);
            EXPECT_EQ(manifest.raw_size, payload.size()) << label << " " << name;
            EXPECT_EQ(manifest.raw_crc, Crc32::Compute(payload))
                << label << " " << name;
            const std::vector<ChunkSpan> spans = ChunkBlob(payload, chunking);
            ASSERT_EQ(manifest.chunks.size(), spans.size())
                << label << " " << name;
            for (size_t c = 0; c < spans.size(); ++c) {
              EXPECT_EQ(manifest.chunks[c].length, spans[c].length);
              EXPECT_EQ(manifest.chunks[c].hash_hex,
                        Sha256::Hash(std::span<const uint8_t>(payload).subspan(
                                         spans[c].offset, spans[c].length))
                            .ToHex())
                  << label << " " << name << " chunk " << c;
            }
          }
          EXPECT_FALSE(saved.manifests.empty()) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mmm
