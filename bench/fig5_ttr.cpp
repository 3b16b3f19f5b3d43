// Figure 5 (paper §4.4): median time-to-recover per use case, on both
// hardware profiles (5a: M1 laptop, 5b: server).
//
// Expected shape (paper): MMlib-base and Baseline are flat across use cases
// (every set is independently recoverable), with MMlib-base much slower;
// Update and Provenance show a staircase — recovering U3-k walks the whole
// chain back to U1. Provenance uses the paper's measurement protocol
// ("only train one model with reduced data per iteration"); see
// tab_provenance_training for the extensive-training staircase.
//
// A second section replays a Zipfian trace through ModelSetService at
// workers {1, N} (cache off, so every request takes the streaming store
// read path of DESIGN.md §12). Tail latency is computed over the *pooled*
// per-request samples of all workers — quantiles of per-worker means would
// understate p99 at workers>1.
//
// Results are also written to BENCH_ttr.json.
//
// Knobs: MMM_MODELS (default 5000), MMM_RUNS (3; paper uses 5),
// MMM_U3_ITERATIONS (3), MMM_SAMPLES (256), MMM_PROV_REPLAY_MODELS (1),
// MMM_PROV_REPLAY_SAMPLES (64), MMM_SERVE_REQUESTS (64),
// MMM_SERVE_WORKERS (4).

#include <cstdlib>

#include "bench/bench_util.h"
#include "serve/service.h"
#include "serve/trace.h"

using namespace mmm;         // NOLINT — benchmark driver
using namespace mmm::bench;  // NOLINT

namespace {

JsonValue SummaryJson(const LatencySummary& summary) {
  JsonValue json = JsonValue::Object();
  json.Set("mean_nanos", summary.mean);
  json.Set("p50_nanos", summary.p50);
  json.Set("p99_nanos", summary.p99);
  json.Set("max_nanos", summary.max);
  return json;
}

struct ServeArm {
  LatencySummary wall;
  LatencySummary modeled;
};

/// Replays `trace` at the given worker count, pooling the raw per-request
/// samples of every worker before the quantiles are taken.
ServeArm RunServeArm(const std::string& root, MultiModelScenario* scenario,
                     const std::vector<std::string>& trace, size_t workers) {
  ModelSetManager::Options options;
  options.root_dir = root;
  options.resolver = scenario;
  options.profile = SetupProfile::Server();
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  ModelSetServiceOptions service_options;
  service_options.workers = workers;
  // Cache off: every request pays the full store read, and workers>1 stay
  // free of cache-race noise.
  service_options.cache_enabled = false;
  ModelSetService service(manager.get(), service_options);

  std::vector<ServeResult> results = service.Replay(trace);
  std::vector<uint64_t> wall;
  std::vector<uint64_t> modeled;
  wall.reserve(results.size());
  modeled.reserve(results.size());
  for (const ServeResult& r : results) {
    r.status.Check();
    wall.push_back(r.wall_nanos);
    modeled.push_back(r.modeled_store_nanos);
  }
  ServeArm arm;
  arm.wall = Summarize(std::move(wall));
  arm.modeled = Summarize(std::move(modeled));
  return arm;
}

}  // namespace

int main() {
  BenchKnobs knobs = BenchKnobs::FromEnv();
  knobs.Describe("fig5_ttr");
  ProvenanceRecoverOptions prov;
  prov.max_replay_models =
      static_cast<size_t>(GetEnvInt64("MMM_PROV_REPLAY_MODELS", 1));
  prov.max_replay_samples =
      static_cast<size_t>(GetEnvInt64("MMM_PROV_REPLAY_SAMPLES", 64));

  JsonValue profiles_json = JsonValue::Array();
  for (const SetupProfile& profile :
       {SetupProfile::M1(), SetupProfile::Server()}) {
    ExperimentConfig config;
    config.scenario = ScenarioConfig::Battery(knobs.models);
    config.scenario.samples_per_dataset = knobs.samples;
    config.u3_iterations = knobs.u3_iterations;
    config.runs = knobs.runs;
    config.measure_ttr = true;
    config.profile = profile;
    config.provenance_recover = prov;
    config.work_dir = "/tmp/mmm-bench-fig5-" + profile.name;

    ExperimentRunner runner(config);
    auto results = runner.Run().ValueOrDie();

    const char* figure = profile.name == "M1" ? "5a" : "5b";
    PrintMetricTable(
        StringFormat("Figure %s: median time-to-recover in s (%s setup, %zu "
                     "models, %d runs)",
                     figure, profile.name.c_str(), knobs.models, knobs.runs),
        results, [](const ApproachMetrics& m) { return Seconds(m.ttr_seconds); });
    PrintMetricTable(
        StringFormat("  breakdown, %s: modeled store latency portion in s",
                     profile.name.c_str()),
        results,
        [](const ApproachMetrics& m) { return Seconds(m.ttr_modeled_seconds); });

    JsonValue profile_json = JsonValue::Object();
    profile_json.Set("profile", profile.name);
    JsonValue use_cases = JsonValue::Array();
    for (const UseCaseResult& row : results) {
      JsonValue entry = JsonValue::Object();
      entry.Set("use_case", row.use_case);
      JsonValue approaches = JsonValue::Object();
      for (const auto& [type, metrics] : row.metrics) {
        JsonValue m = JsonValue::Object();
        m.Set("ttr_seconds", metrics.ttr_seconds);
        m.Set("ttr_wall_seconds", metrics.ttr_wall_seconds);
        m.Set("ttr_modeled_seconds", metrics.ttr_modeled_seconds);
        approaches.Set(ApproachTypeName(type), std::move(m));
      }
      entry.Set("approaches", std::move(approaches));
      use_cases.Append(std::move(entry));
    }
    profile_json.Set("use_cases", std::move(use_cases));
    profiles_json.Append(std::move(profile_json));

    CleanupWorkDir(knobs, config.work_dir);
  }

  // ---- Serving arm: pooled per-request p99 at workers {1, N}. ----
  size_t serve_requests =
      static_cast<size_t>(GetEnvInt64("MMM_SERVE_REQUESTS", 64));
  size_t serve_workers =
      static_cast<size_t>(GetEnvInt64("MMM_SERVE_WORKERS", 4));

  const std::string serve_root = "/tmp/mmm-bench-fig5-serve";
  ScenarioConfig scenario_config = ScenarioConfig::Battery(knobs.models);
  scenario_config.samples_per_dataset = knobs.samples;
  MultiModelScenario scenario(scenario_config);
  scenario.Init().Check();
  {
    ModelSetManager::Options options;
    options.root_dir = serve_root + "/store";
    options.resolver = &scenario;
    options.profile = SetupProfile::Server();
    auto manager = ModelSetManager::Open(options).ValueOrDie();
    std::vector<std::string> ids;
    ids.push_back(manager->SaveInitial(ApproachType::kUpdate,
                                       scenario.current_set())
                      .ValueOrDie()
                      .set_id);
    for (size_t cycle = 0; cycle < knobs.u3_iterations; ++cycle) {
      ModelSetUpdateInfo update = scenario.AdvanceCycle().ValueOrDie();
      update.base_set_id = ids.back();
      ids.push_back(manager
                        ->SaveDerived(ApproachType::kUpdate,
                                      scenario.current_set(), update)
                        .ValueOrDie()
                        .set_id);
    }
    std::vector<std::string> hot_first(ids.rbegin(), ids.rend());
    std::vector<std::string> trace =
        BuildZipfianTrace(hot_first, serve_requests, /*theta=*/0.99, /*seed=*/7);

    std::printf(
        "\nServing TTR, Update chain of %zu versions, %zu Zipfian requests "
        "(cache off, pooled per-request quantiles):\n",
        ids.size(), trace.size());
    std::printf("%-22s | %12s | %12s | %12s\n", "arm", "mean ms", "p99 ms",
                "modeled p99");

    JsonValue serving_json = JsonValue::Array();
    for (size_t workers : {size_t{1}, serve_workers}) {
      ServeArm arm =
          RunServeArm(serve_root + "/store", &scenario, trace, workers);
      std::printf("%-22s | %12.3f | %12.3f | %12.3f\n",
                  StringFormat("w%zu", workers).c_str(), arm.wall.mean / 1e6,
                  static_cast<double>(arm.wall.p99) / 1e6,
                  static_cast<double>(arm.modeled.p99) / 1e6);
      JsonValue entry = JsonValue::Object();
      entry.Set("workers", static_cast<uint64_t>(workers));
      entry.Set("requests", static_cast<uint64_t>(trace.size()));
      entry.Set("wall", SummaryJson(arm.wall));
      entry.Set("modeled", SummaryJson(arm.modeled));
      serving_json.Append(std::move(entry));
    }

    JsonValue doc = JsonValue::Object();
    doc.Set("bench", "fig5_ttr");
    doc.Set("models", static_cast<uint64_t>(knobs.models));
    doc.Set("runs", static_cast<int64_t>(knobs.runs));
    doc.Set("u3_iterations", static_cast<uint64_t>(knobs.u3_iterations));
    doc.Set("profiles", std::move(profiles_json));
    doc.Set("serving", std::move(serving_json));
    std::string json = doc.DumpPretty() + "\n";
    Env::Default()
        ->WriteFile("BENCH_ttr.json",
                    std::span<const uint8_t>(
                        reinterpret_cast<const uint8_t*>(json.data()),
                        json.size()))
        .Check();
    std::printf("\nwrote BENCH_ttr.json\n");
  }

  CleanupWorkDir(knobs, serve_root);
  return 0;
}
