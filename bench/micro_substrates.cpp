// Micro-benchmarks of the substrates the management approaches are built on
// (google-benchmark). These quantify the constants behind the end-to-end
// numbers: hashing cost per MB (Update's save overhead), blob codec
// throughput (Baseline's save path), store op costs, ECM stepping and
// training throughput (Provenance's recovery path).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "battery/data_gen.h"
#include "battery/drive_cycle.h"
#include "battery/ecm.h"
#include "cas/manifest.h"
#include "common/rng.h"
#include "core/blob_formats.h"
#include "core/gc.h"
#include "core/manager.h"
#include "nn/trainer.h"
#include "serialize/crc32.h"
#include "serialize/json.h"
#include "serialize/sha256.h"
#include "serve/layer_cache.h"
#include "storage/document_store.h"
#include "storage/executor.h"
#include "storage/file_store.h"
#include "storage/store_batch.h"
#include "tensor/ops.h"

namespace mmm {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1 << 10)->Arg(20 << 10)->Arg(1 << 20);

void BM_Sha256HashMany(benchmark::State& state) {
  // One FFNN-48 layer across a 500-model set, as ComputeHashTable batches
  // it: 500 equal-length streams of 768 B (fc1's 4x48 weight) or 9,216 B
  // (a 48x48 hidden weight).
  constexpr size_t kStreams = 500;
  const size_t length = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> data(kStreams * length);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + (i >> 9));
  }
  std::vector<const uint8_t*> streams(kStreams);
  for (size_t m = 0; m < kStreams; ++m) streams[m] = data.data() + m * length;
  std::vector<Sha256Digest> digests(kStreams);
  for (auto _ : state) {
    Sha256HashMany(streams.data(), length, kStreams, digests.data());
    benchmark::DoNotOptimize(digests.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kStreams * length));
}
BENCHMARK(BM_Sha256HashMany)->Arg(768)->Arg(9216);

void BM_VerifyWindowCrc(benchmark::State& state) {
  // One 256 KiB window of a ranged root read (the default stream window):
  // consecutive FFNN-48 layers, model after model, each checked against
  // its layer CRC table entry the way the ranged readers check them.
  constexpr size_t kWindowBytes = 256 << 10;
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 16, 1).ValueOrDie();
  std::vector<uint8_t> window;
  std::vector<size_t> ends;
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < set.models.size() * set.models[0].size(); ++i) {
    const Tensor& tensor =
        set.models[i / set.models[0].size()][i % set.models[0].size()].second;
    const size_t bytes = tensor.numel() * sizeof(float);
    if (window.size() + bytes > kWindowBytes) break;
    const auto* data = reinterpret_cast<const uint8_t*>(tensor.data().data());
    window.insert(window.end(), data, data + bytes);
    ends.push_back(window.size());
    expected.push_back(LayerCrc(tensor));
  }
  for (auto _ : state) {
    size_t begin = 0;
    for (size_t k = 0; k < ends.size(); ++k) {
      std::span<const uint8_t> layer(window.data() + begin, ends[k] - begin);
      if (Crc32::Compute(layer) != expected[k]) {
        state.SkipWithError("layer crc mismatch");
        break;
      }
      begin = ends[k];
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(window.size()));
}
BENCHMARK(BM_VerifyWindowCrc);

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32::Compute(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 64 B and 4 KiB are the sizes of journal records, manifests and hash
// tables, where dispatch and the table-loop tail cost show; 1 MiB is the
// blob-footer bulk.
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4 << 10)->Arg(1 << 20);

// One combine per chunk of a CAS read (8,249 B is a typical chunk), and
// lengths whose upper bytes use the rest of the shift table.
void BM_Crc32Combine(benchmark::State& state) {
  const auto length = static_cast<uint64_t>(state.range(0));
  uint32_t crc = 0x12345678u;
  for (auto _ : state) {
    crc = Crc32::Combine(crc, 0x9abcdef0u, length);
    benchmark::DoNotOptimize(crc);
  }
}
BENCHMARK(BM_Crc32Combine)
    ->Arg(8249)
    ->Arg(1 << 20)
    ->Arg(int64_t{1} << 40);

// A 10 MB snapshot's manifest (1,220 chunk refs) in the JSON form of older
// stores (arg 1) and the binary MMCASM2 form (arg 2).
void BM_DecodeManifest(benchmark::State& state) {
  CasManifest manifest;
  for (uint64_t i = 0; i < 1220; ++i) {
    const std::string seed = std::to_string(i);
    manifest.chunks.push_back(
        {Sha256::Hash(std::string_view(seed)).ToHex(), 8000 + i % 500});
    manifest.raw_size += manifest.chunks.back().length;
  }
  manifest.raw_crc = 0xdeadbeefu;
  std::vector<uint8_t> encoded = EncodeManifest(manifest);
  if (state.range(0) == 1) {
    std::string text = "MMCASM1\n{\"raw_size\":" +
                       std::to_string(manifest.raw_size) + ",\"raw_crc\":" +
                       std::to_string(manifest.raw_crc) + ",\"chunks\":[";
    for (size_t i = 0; i < manifest.chunks.size(); ++i) {
      text += (i > 0 ? ",[\"" : "[\"") + manifest.chunks[i].hash_hex + "\"," +
              std::to_string(manifest.chunks[i].length) + "]";
    }
    text += "]}";
    encoded.assign(text.begin(), text.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeManifest(encoded).ValueOrDie());
  }
  state.SetBytesProcessed(state.iterations() * encoded.size());
}
BENCHMARK(BM_DecodeManifest)->Arg(1)->Arg(2);

/// The window encoder into a sink that drops every window: the encode and
/// CRC work of a save, without the copy a store or buffer would add.
void BM_EncodeParamBlob(benchmark::State& state) {
  class DiscardingSink : public BlobSink {
   public:
    Status Append(std::span<const uint8_t> bytes) override {
      benchmark::DoNotOptimize(bytes.data());
      return Status::OK();
    }
  };
  ModelSet set =
      MakeInitializedSet(Ffnn48Spec(), static_cast<size_t>(state.range(0)), 1)
          .ValueOrDie();
  DiscardingSink sink;
  for (auto _ : state) {
    EncodeParamBlob(set, &sink).Check();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4993 * 4);
}
BENCHMARK(BM_EncodeParamBlob)->Arg(100)->Arg(1000);

void BM_DecodeParamBlob(benchmark::State& state) {
  ModelSet set =
      MakeInitializedSet(Ffnn48Spec(), static_cast<size_t>(state.range(0)), 1)
          .ValueOrDie();
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecodeParamBlob(set.spec, blob, set.models.size()).ValueOrDie());
  }
  state.SetBytesProcessed(state.iterations() * blob.size());
}
BENCHMARK(BM_DecodeParamBlob)->Arg(100)->Arg(1000);

void BM_LayerCacheRequest(benchmark::State& state) {
  // One recover_cold-shaped request against a full cache of half a set:
  // 4,000 probes of a 500-model FFNN-48 set (each layer one of three
  // versions, picked at random), then one offer batch of the misses.
  constexpr size_t kModels = 500;
  constexpr size_t kVersions = 3;
  const ParamLayout layout = LayoutOf(Ffnn48Spec());
  const size_t num_slots = kModels * layout.size();
  std::vector<Tensor> tensors;
  uint64_t set_charge = 0;
  for (const auto& [key, shape] : layout) {
    tensors.emplace_back(shape);
    set_charge += kModels * LayerCache::ChargeOf(tensors.back());
  }
  std::vector<Sha256Digest> universe(num_slots * kVersions);
  for (size_t i = 0; i < universe.size(); ++i) {
    universe[i] = Sha256::Hash("layer " + std::to_string(i));
  }
  LayerCache cache(set_charge / 2);
  Rng rng(5);
  std::vector<Sha256Digest> hashes(num_slots);
  std::vector<Tensor> found;
  // Times the two cache calls only: drawing the request, clearing the
  // slots a recovery starts with and copying the offered tensors (a
  // recovery decodes them) are paused.
  auto request = [&](bool timed) {
    if (timed) state.PauseTiming();
    for (size_t slot = 0; slot < num_slots; ++slot) {
      hashes[slot] = universe[slot * kVersions + rng.NextBounded(kVersions)];
    }
    found.assign(num_slots, Tensor());
    if (timed) state.ResumeTiming();
    const std::vector<bool> hit = cache.Get(hashes, found);
    if (timed) state.PauseTiming();
    std::vector<Sha256Digest> missed;
    std::vector<Tensor> values;
    for (size_t slot = 0; slot < num_slots; ++slot) {
      if (hit[slot]) continue;
      missed.push_back(hashes[slot]);
      values.push_back(tensors[slot % layout.size()]);
    }
    if (timed) state.ResumeTiming();
    cache.Put(missed, values);
  };
  for (int warm = 0; warm < 20; ++warm) request(false);
  const LayerCacheStats before = cache.stats();
  for (auto _ : state) request(true);
  const LayerCacheStats after = cache.stats();
  const double requests = static_cast<double>(state.iterations());
  state.counters["hit_ratio"] =
      static_cast<double>(after.hits - before.hits) /
      static_cast<double>(after.hits + after.misses - before.hits -
                          before.misses);
  state.counters["evictions_per_req"] =
      static_cast<double>(after.evictions - before.evictions) / requests;
}
BENCHMARK(BM_LayerCacheRequest)->Unit(benchmark::kMicrosecond);

void BM_LayerCacheHotRequest(benchmark::State& state) {
  // One recover_hot-shaped request: 4,000 probes of a 500-model FFNN-48 set
  // that is wholly resident in a cache of twice its charge, so every probe
  // hits and no offer follows. The threads probe the same set at once, as
  // concurrent readers of one hot version do, and contend for the cache
  // lock and for the entries' reference counts. Each iteration also drops
  // its copies, as a caller does when done with the set.
  struct HotSet {
    std::vector<Sha256Digest> hashes;
    std::unique_ptr<LayerCache> cache;
  };
  static const HotSet hot = [] {
    constexpr size_t kModels = 500;
    const ParamLayout layout = LayoutOf(Ffnn48Spec());
    HotSet set;
    std::vector<Tensor> values;
    uint64_t set_charge = 0;
    for (size_t slot = 0; slot < kModels * layout.size(); ++slot) {
      set.hashes.push_back(Sha256::Hash("layer " + std::to_string(slot)));
      values.emplace_back(layout[slot % layout.size()].second);
      set_charge += LayerCache::ChargeOf(values.back());
    }
    set.cache = std::make_unique<LayerCache>(2 * set_charge);
    set.cache->Put(set.hashes, values);
    return set;
  }();
  const std::vector<Sha256Digest>& hashes = hot.hashes;
  LayerCache& cache = *hot.cache;
  std::vector<Tensor> found;
  size_t hits = 0;
  for (auto _ : state) {
    found.assign(hashes.size(), Tensor());
    const std::vector<bool> hit = cache.Get(hashes, found);
    benchmark::DoNotOptimize(found.data());
    hits += static_cast<size_t>(std::count(hit.begin(), hit.end(), true));
  }
  state.counters["hit_ratio"] = benchmark::Counter(
      static_cast<double>(hits) /
          static_cast<double>(hashes.size() * state.iterations()),
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_LayerCacheHotRequest)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime()
    ->Threads(1)
    ->Threads(3);

void BM_EncodeStateDict(benchmark::State& state) {
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 1, 1).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeStateDict(set.models[0]));
  }
}
BENCHMARK(BM_EncodeStateDict);

void BM_ComputeHashTable(benchmark::State& state) {
  // Cold: the set's buffers are its own, so no digest memo is published and
  // every iteration hashes every layer.
  ModelSet set =
      MakeInitializedSet(Ffnn48Spec(), static_cast<size_t>(state.range(0)), 1)
          .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeHashTable(set));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeHashTable)->Arg(100)->Arg(1000);

void BM_ComputeHashTableWarm(benchmark::State& state) {
  // Warm: the save after a retrain cycle. The set shares every buffer with
  // the previous version, which was hashed already, except those of the
  // 10% of models rewritten since; only those are hashed again (the digest
  // memo, see Tensor).
  const size_t models = static_cast<size_t>(state.range(0));
  const ModelSet previous =
      MakeInitializedSet(Ffnn48Spec(), models, 1).ValueOrDie();
  ModelSet current = previous;
  ComputeHashTable(previous);
  for (auto _ : state) {
    state.PauseTiming();
    current = previous;
    for (size_t m = 0; m < models; m += 10) {
      for (auto& [key, tensor] : current.models[m]) {
        tensor.mutable_data()[0] += 1.0f;
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(ComputeHashTable(current));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeHashTableWarm)->Arg(100)->Arg(1000);

void BM_ComputeHashTableParallel(benchmark::State& state) {
  // Update's per-save hashing cost, fanned across pipeline lanes, cold as
  // above. Speedup over the lanes=1 row shows up on multi-core hosts only.
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 1000, 1).ValueOrDie();
  Executor executor(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeHashTable(set, &executor));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ComputeHashTableParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_StoreBatchCommit(benchmark::State& state) {
  // One save's worth of blob writes committed through the pipeline,
  // parameterized by lane count (lanes=1 is the serial reference).
  InMemoryEnv env;
  FileStore file_store(&env, "/blobs");
  file_store.Open().Check();
  DocumentStore doc_store(&env, "/wal");
  doc_store.Open().Check();
  Executor executor(static_cast<size_t>(state.range(0)));
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 32, 1).ValueOrDie();
  for (auto _ : state) {
    StoreBatch batch(&file_store, &doc_store, &executor);
    for (size_t m = 0; m < set.models.size(); ++m) {
      const StateDict* model = &set.models[m];
      batch.PutBlobDeferred("m" + std::to_string(m) + ".bin",
                            [model](BlobSink* sink) {
                              return sink->Append(EncodeStateDict(*model));
                            });
    }
    batch.Commit().Check();
  }
  state.SetItemsProcessed(state.iterations() * set.models.size());
}
BENCHMARK(BM_StoreBatchCommit)->Arg(1)->Arg(2)->Arg(4);

void BM_CasCommit(benchmark::State& state) {
  // One Baseline save with CAS on (default chunking, in-memory Env) into a
  // store that already holds range(0) live sets of 100 FFNN-48 models
  // (~2 MB of distinct chunks each). A commit writes its pack, manifests
  // and documents, so its time should not grow with the live sets.
  // Deleting the saved set after each timed save (paused) keeps the store
  // at the same size, and the next save packs its chunks anew.
  constexpr size_t kModels = 100;
  InMemoryEnv env;
  ModelSetManager::Options options;
  options.root_dir = "/store";
  options.env = &env;
  options.cas.enabled = true;
  std::unique_ptr<ModelSetManager> manager =
      ModelSetManager::Open(options).ValueOrDie();
  for (int64_t i = 0; i < state.range(0); ++i) {
    const ModelSet live =
        MakeInitializedSet(Ffnn48Spec(), kModels, 100 + static_cast<uint64_t>(i))
            .ValueOrDie();
    manager->SaveInitial(ApproachType::kBaseline, live).status().Check();
  }
  const ModelSet set =
      MakeInitializedSet(Ffnn48Spec(), kModels, 1).ValueOrDie();
  for (auto _ : state) {
    const std::string id =
        manager->SaveInitial(ApproachType::kBaseline, set).ValueOrDie().set_id;
    state.PauseTiming();
    DeleteSet(manager->context(), id).status().Check();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CasCommit)->Arg(1)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_DiffHashTables(benchmark::State& state) {
  ModelSet base =
      MakeInitializedSet(Ffnn48Spec(), static_cast<size_t>(state.range(0)), 1)
          .ValueOrDie();
  ModelSet current = base;
  current.models[0][0].second.at(0) += 1.0f;
  HashTable a = ComputeHashTable(base);
  HashTable b = ComputeHashTable(current);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiffHashTables(a, b).ValueOrDie());
  }
}
BENCHMARK(BM_DiffHashTables)->Arg(1000);

void BM_DocumentStoreInsert(benchmark::State& state) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  store.Open().Check();
  JsonValue doc = JsonValue::Object();
  doc.Set("set_id", "set-000001");
  doc.Set("model_index", 7);
  doc.Set("weights_blob", "set-000001-m00007.weights.bin");
  int64_t counter = 0;
  for (auto _ : state) {
    doc.Set("_id", "doc-" + std::to_string(counter++));
    store.Insert("bench", doc).Check();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DocumentStoreInsert);

void BM_FileStorePut(benchmark::State& state) {
  InMemoryEnv env;
  FileStore store(&env, "/blobs");
  store.Open().Check();
  std::vector<uint8_t> blob(static_cast<size_t>(state.range(0)), 0x77);
  int64_t counter = 0;
  for (auto _ : state) {
    store.Put("b" + std::to_string(counter++ % 64), blob).Check();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FileStorePut)->Arg(20 << 10);

void BM_EcmStep(benchmark::State& state) {
  EcmCell cell(EcmParameters{});
  cell.ResetState(0.9);
  double current = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Step(current, 1.0));
    current = -current * 0.99;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcmStep);

void BM_DriveCycleGenerate(benchmark::State& state) {
  DriveCycleGenerator gen(7);
  uint64_t cycle = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Generate(cycle++, 512));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DriveCycleGenerate);

void BM_BatteryDatasetGeneration(benchmark::State& state) {
  BatteryDataConfig config;
  config.samples_per_cycle = 256;
  BatteryDataGenerator gen(config);
  uint64_t cell = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.GenerateCellDataset(cell++, 1, 0.95));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BatteryDatasetGeneration);

void BM_MatMul(benchmark::State& state) {
  auto n = static_cast<size_t>(state.range(0));
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 1, 1).ValueOrDie();
  Tensor a(Shape{n, n}, std::vector<float>(n * n, 0.5f));
  Tensor b(Shape{n, n}, std::vector<float>(n * n, 0.25f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128);

void BM_Ffnn48TrainStep(benchmark::State& state) {
  // One model update at the workload's default scale — the unit cost behind
  // Provenance's recovery staircase.
  BatteryDataConfig data_config;
  data_config.samples_per_cycle = 256;
  BatteryDataGenerator gen(data_config);
  TrainingData data = gen.GenerateCellDataset(1, 1, 0.95);
  Model model = Model::CreateInitialized(Ffnn48Spec(), 3).ValueOrDie();
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 64;
  config.learning_rate = 0.05f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TrainModel(&model, data.inputs, data.targets, config).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Ffnn48TrainStep);

void BM_JsonParseSetDocument(benchmark::State& state) {
  std::string text =
      R"({"_id":"set-000123-abcd1234","approach":"update","kind":"delta",)"
      R"("base_set_id":"set-000122-ffee0011","family":"FFNN-48",)"
      R"("num_models":5000,"chain_depth":3,"arch_blob":"","param_blob":"",)"
      R"("hash_blob":"set-000123.hashes.bin","diff_blob":"set-000123.diff.bin",)"
      R"("prov_blob":""})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(JsonValue::Parse(text).ValueOrDie());
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_JsonParseSetDocument);

}  // namespace
}  // namespace mmm

BENCHMARK_MAIN();
