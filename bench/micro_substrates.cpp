// Micro-benchmarks of the substrates the management approaches are built on
// (google-benchmark). These quantify the constants behind the end-to-end
// numbers: hashing cost per MB (Update's save overhead), blob codec
// throughput (Baseline's save path), store op costs, ECM stepping and
// training throughput (Provenance's recovery path).

#include <benchmark/benchmark.h>

#include "battery/data_gen.h"
#include "battery/drive_cycle.h"
#include "battery/ecm.h"
#include "core/blob_formats.h"
#include "nn/trainer.h"
#include "serialize/crc32.h"
#include "serialize/json.h"
#include "serialize/sha256.h"
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

void BM_EncodeParamBlob(benchmark::State& state) {
  ModelSet set =
      MakeInitializedSet(Ffnn48Spec(), static_cast<size_t>(state.range(0)), 1)
          .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeParamBlob(set));
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

void BM_EncodeStateDict(benchmark::State& state) {
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 1, 1).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeStateDict(set.models[0]));
  }
}
BENCHMARK(BM_EncodeStateDict);

void BM_ComputeHashTable(benchmark::State& state) {
  ModelSet set =
      MakeInitializedSet(Ffnn48Spec(), static_cast<size_t>(state.range(0)), 1)
          .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeHashTable(set));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeHashTable)->Arg(100)->Arg(1000);

void BM_ComputeHashTableParallel(benchmark::State& state) {
  // Update's per-save hashing cost, fanned across pipeline lanes. Speedup
  // over the lanes=1 row shows up on multi-core hosts only.
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
                            [model]() -> Result<std::vector<uint8_t>> {
                              return EncodeStateDict(*model);
                            });
    }
    batch.Commit().Check();
  }
  state.SetItemsProcessed(state.iterations() * set.models.size());
}
BENCHMARK(BM_StoreBatchCommit)->Arg(1)->Arg(2)->Arg(4);

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
