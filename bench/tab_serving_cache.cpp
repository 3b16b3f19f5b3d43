// Serving-layer benchmark: recovery cost under a Zipfian request trace as a
// function of layer-cache capacity.
//
// A battery deployment is saved with the Update approach (one full base set,
// then one delta per update cycle). A multi-version Zipfian trace — newest
// sets hottest — is then replayed through ModelSetService at several cache
// capacities, from cache-off to 4x the base set's footprint. Reported per
// capacity: layer hit rate, sets served without any store read, file-store
// read ops, the file-store bytes the cache avoided against the cache-off
// row, the cache's admissions and evictions per request, and the modeled
// per-request recovery cost (mean / p99).
//
// Expected shape: layer hits save bytes in proportion to the hit rate,
// because the root snapshot is read by range for just the layers that
// missed; with the cache sized to hold the base set, derived-set
// recoveries stop re-reading the base snapshot (the staircase in the
// paper's Figure 5 flattens), so store reads and modeled cost drop sharply;
// beyond that, extra capacity buys diminishing returns. workers=1 keeps
// every request's counters exact and the run bit-deterministic.
//
// Results are also written to BENCH_serving.json. Exits 1 if a row with a
// nonzero hit rate reads as many file-store bytes as the cache-off row:
// its hits saved no I/O. Exits 1 too if the 0.5x row evicts more than a
// quarter of a set's layers per request: a cache smaller than the working
// set must keep the layers requests share instead of turning over.
//
// A second table replays the trace at workers {1, N}; its quantiles are
// computed over the pooled per-request samples of every worker (quantiles
// of per-worker means would understate p99).
//
// Knobs: MMM_MODELS (default 200), MMM_SAMPLES (128), MMM_U3_ITERATIONS (8),
// MMM_REQUESTS (200), MMM_WORKERS (4).

#include "bench/bench_util.h"
#include "serve/layer_cache.h"
#include "serve/service.h"
#include "serve/trace.h"

using namespace mmm;         // NOLINT — benchmark driver
using namespace mmm::bench;  // NOLINT

int main() {
  BenchKnobs knobs = BenchKnobs::FromEnv(/*default_models=*/200,
                                         /*default_runs=*/1);
  knobs.samples = static_cast<size_t>(GetEnvInt64("MMM_SAMPLES", 128));
  knobs.u3_iterations = static_cast<size_t>(GetEnvInt64("MMM_U3_ITERATIONS", 8));
  size_t requests = static_cast<size_t>(GetEnvInt64("MMM_REQUESTS", 200));
  knobs.Describe("tab_serving_cache");

  // Build the versioned store: base set + one Update delta per cycle.
  ScenarioConfig scenario_config = ScenarioConfig::Battery(knobs.models);
  scenario_config.samples_per_dataset = knobs.samples;
  MultiModelScenario scenario(scenario_config);
  scenario.Init().Check();

  ModelSetManager::Options options;
  options.root_dir = "/tmp/mmm-bench-serving/store";
  options.resolver = &scenario;
  options.profile = SetupProfile::Server();
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  std::vector<std::string> ids;
  ModelSet base_set = scenario.current_set();
  ids.push_back(manager->SaveInitial(ApproachType::kUpdate, base_set)
                    .ValueOrDie()
                    .set_id);
  for (size_t cycle = 0; cycle < knobs.u3_iterations; ++cycle) {
    ModelSetUpdateInfo update = scenario.AdvanceCycle().ValueOrDie();
    update.base_set_id = ids.back();
    ids.push_back(
        manager->SaveDerived(ApproachType::kUpdate, scenario.current_set(), update)
            .ValueOrDie()
            .set_id);
  }

  // The base set's cache footprint anchors the capacity sweep.
  uint64_t base_bytes = 0;
  uint64_t set_layers = 0;
  for (const StateDict& model : base_set.models) {
    for (const auto& [key, tensor] : model) {
      base_bytes += LayerCache::ChargeOf(tensor);
      set_layers += 1;
    }
  }

  // Newest versions first: they take the head of the Zipfian distribution.
  std::vector<std::string> hot_first(ids.rbegin(), ids.rend());
  std::vector<std::string> trace =
      BuildZipfianTrace(hot_first, requests, /*theta=*/0.99, /*seed=*/7);

  struct Row {
    std::string label;
    uint64_t capacity;
  };
  const Row rows[] = {
      {"off", 0},
      {"0.5x base", base_bytes / 2},
      {"1x base", base_bytes + base_bytes / 8},  // base + headroom for deltas
      {"2x base", 2 * base_bytes},
      {"4x base", 4 * base_bytes},
  };

  std::printf(
      "\nUpdate approach, %zu models, %zu versions, %zu Zipfian requests "
      "(theta 0.99, base footprint %.2f MB):\n",
      knobs.models, ids.size(), trace.size(),
      static_cast<double>(base_bytes) / 1e6);
  std::printf("%-10s | %8s | %10s | %10s | %14s | %9s | %9s | %12s | %12s\n",
              "cache", "hit %", "from-cache", "file reads", "bytes avoided",
              "admit/req", "evict/req", "mean ms", "p99 ms");

  JsonValue out_rows = JsonValue::Array();
  uint64_t cache_off_bytes = 0;
  std::vector<std::string> no_savings;
  std::vector<std::string> churning;
  for (const Row& row : rows) {
    ModelSetServiceOptions service_options;
    service_options.workers = 1;  // exact per-request counters
    service_options.cache_enabled = row.capacity > 0;
    service_options.cache_capacity_bytes = row.capacity;
    ModelSetService service(manager.get(), service_options);

    StoreStats before = manager->file_store()->stats();
    std::vector<ServeResult> results = service.Replay(trace);
    StoreStats reads = manager->file_store()->stats() - before;

    CacheRequestStats cache;
    std::vector<uint64_t> modeled;
    modeled.reserve(results.size());
    for (const ServeResult& r : results) {
      r.status.Check();  // every request must succeed, bit-exact
      cache += r.cache;
      modeled.push_back(r.modeled_store_nanos);
    }
    uint64_t probes = cache.layer_hits + cache.layer_misses;
    double hit_rate =
        probes == 0 ? 0.0
                    : static_cast<double>(cache.layer_hits) /
                          static_cast<double>(probes);
    LatencySummary lat = Summarize(modeled);
    if (row.capacity == 0) cache_off_bytes = reads.bytes_read;
    const int64_t bytes_avoided = static_cast<int64_t>(cache_off_bytes) -
                                  static_cast<int64_t>(reads.bytes_read);
    if (hit_rate > 0.0 && bytes_avoided <= 0) no_savings.push_back(row.label);
    const LayerCacheStats residency = service.cache_stats();
    const double admissions_per_req =
        static_cast<double>(residency.inserts) / static_cast<double>(trace.size());
    const double evictions_per_req = static_cast<double>(residency.evictions) /
                                     static_cast<double>(trace.size());
    if (row.capacity == base_bytes / 2 &&
        evictions_per_req > static_cast<double>(set_layers) / 4) {
      churning.push_back(row.label);
    }

    std::printf(
        "%-10s | %8.1f | %10llu | %10llu | %14lld | %9.1f | %9.1f | %12.3f | "
        "%12.3f\n",
        row.label.c_str(), 100.0 * hit_rate,
        static_cast<unsigned long long>(cache.sets_from_cache),
        static_cast<unsigned long long>(reads.read_ops),
        static_cast<long long>(bytes_avoided), admissions_per_req,
        evictions_per_req, lat.mean / 1e6, static_cast<double>(lat.p99) / 1e6);

    JsonValue entry = JsonValue::Object();
    entry.Set("label", row.label);
    entry.Set("capacity_bytes", row.capacity);
    entry.Set("layer_hit_rate", hit_rate);
    entry.Set("layer_hits", cache.layer_hits);
    entry.Set("layer_misses", cache.layer_misses);
    entry.Set("sets_from_cache", cache.sets_from_cache);
    entry.Set("file_read_ops", reads.read_ops);
    entry.Set("file_bytes_read", reads.bytes_read);
    entry.Set("bytes_avoided", bytes_avoided);
    entry.Set("admissions_per_request", admissions_per_req);
    entry.Set("evictions_per_request", evictions_per_req);
    entry.Set("mean_recover_nanos", lat.mean);
    entry.Set("p99_recover_nanos", lat.p99);
    out_rows.Append(std::move(entry));
  }

  // Worker sweep at the 1x-base capacity: tail latency over the *pooled*
  // per-request samples of all workers. (Quantiles of per-worker means
  // would understate p99 — one slow request on one worker disappears into
  // that worker's mean.) The cache hit pattern can shift at workers>1
  // (concurrent requests race to populate shared entries), so hit counters
  // are reported per arm rather than asserted.
  size_t sweep_workers = static_cast<size_t>(GetEnvInt64("MMM_WORKERS", 4));
  std::printf("\nWorker sweep at 1x base capacity (pooled per-request "
              "quantiles):\n");
  std::printf("%-10s | %8s | %12s | %12s | %12s\n", "workers", "hit %",
              "mean ms", "p50 ms", "p99 ms");
  JsonValue worker_rows = JsonValue::Array();
  for (size_t workers : {size_t{1}, sweep_workers}) {
    ModelSetServiceOptions service_options;
    service_options.workers = workers;
    service_options.cache_enabled = true;
    service_options.cache_capacity_bytes = base_bytes + base_bytes / 8;
    ModelSetService service(manager.get(), service_options);

    std::vector<ServeResult> results = service.Replay(trace);
    CacheRequestStats cache;
    std::vector<uint64_t> modeled;  // pooled across all workers
    modeled.reserve(results.size());
    for (const ServeResult& r : results) {
      r.status.Check();
      cache += r.cache;
      modeled.push_back(r.modeled_store_nanos);
    }
    uint64_t probes = cache.layer_hits + cache.layer_misses;
    double hit_rate = probes == 0 ? 0.0
                                  : static_cast<double>(cache.layer_hits) /
                                        static_cast<double>(probes);
    LatencySummary lat = Summarize(std::move(modeled));
    std::printf("%-10zu | %8.1f | %12.3f | %12.3f | %12.3f\n", workers,
                100.0 * hit_rate, lat.mean / 1e6,
                static_cast<double>(lat.p50) / 1e6,
                static_cast<double>(lat.p99) / 1e6);

    JsonValue entry = JsonValue::Object();
    entry.Set("workers", static_cast<uint64_t>(workers));
    entry.Set("layer_hit_rate", hit_rate);
    entry.Set("mean_recover_nanos", lat.mean);
    entry.Set("p50_recover_nanos", lat.p50);
    entry.Set("p99_recover_nanos", lat.p99);
    worker_rows.Append(std::move(entry));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "tab_serving_cache");
  doc.Set("models", static_cast<uint64_t>(knobs.models));
  doc.Set("versions", static_cast<uint64_t>(ids.size()));
  doc.Set("requests", static_cast<uint64_t>(trace.size()));
  doc.Set("theta", 0.99);
  doc.Set("base_footprint_bytes", base_bytes);
  doc.Set("layers_per_set", set_layers);
  doc.Set("rows", std::move(out_rows));
  doc.Set("worker_rows", std::move(worker_rows));
  std::string json = doc.DumpPretty() + "\n";
  Env::Default()
      ->WriteFile("BENCH_serving.json",
                  std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(json.data()),
                      json.size()))
      .Check();
  std::printf(
      "\nwrote BENCH_serving.json\n"
      "(Expected: at >= 1x base capacity, derived-set recoveries stop "
      "re-reading the base snapshot\n and mean/p99 modeled cost drop; 'off' "
      "is the cache-less control arm.)\n");

  CleanupWorkDir(knobs, "/tmp/mmm-bench-serving");
  for (const std::string& label : no_savings) {
    std::fprintf(stderr,
                 "FAIL: the '%s' row hits the cache but reads as many "
                 "file-store bytes as the cache-off row\n",
                 label.c_str());
  }
  for (const std::string& label : churning) {
    std::fprintf(stderr,
                 "FAIL: the '%s' row evicts more than a quarter of a set's "
                 "%llu layers per request\n",
                 label.c_str(), static_cast<unsigned long long>(set_layers));
  }
  return no_savings.empty() && churning.empty() ? 0 : 1;
}
