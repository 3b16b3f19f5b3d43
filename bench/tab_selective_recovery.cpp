// Extension experiment (motivated by §1: "we ... only recover a selected
// number of models, for example, after an accident"): selective model
// recovery.
//
// Measures time and store bytes read to recover k models out of a 5000-model
// fleet at the end of a 3-delta chain, per approach, compared against full
// set recovery. Baseline/Update use ranged parameter-blob reads; MMlib-base
// fetches per-model artifacts; Provenance replays only the requested models.
// Every selective result is compared, layer by layer and bit for bit, with
// the same models of the full recovery; a mismatch exits 1.
//
// Knobs: MMM_MODELS (default 5000), MMM_SAMPLES (256).

#include "bench/bench_util.h"

using namespace mmm;         // NOLINT — benchmark driver
using namespace mmm::bench;  // NOLINT

int main() {
  BenchKnobs knobs = BenchKnobs::FromEnv(/*default_models=*/5000,
                                         /*default_runs=*/1);
  knobs.Describe("tab_selective_recovery");

  // Build one store with a 3-delta chain per approach.
  ScenarioConfig scenario_config = ScenarioConfig::Battery(knobs.models);
  scenario_config.samples_per_dataset = knobs.samples;
  MultiModelScenario scenario(scenario_config);
  scenario.Init().Check();

  std::string work_dir = "/tmp/mmm-bench-selective";
  Env::Default()->RemoveDirs(work_dir).Check();
  ModelSetManager::Options options;
  options.root_dir = work_dir;
  options.resolver = &scenario;
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  std::map<ApproachType, std::string> heads;
  for (ApproachType type : kAllApproaches) {
    heads[type] =
        manager->SaveInitial(type, scenario.current_set()).ValueOrDie().set_id;
  }
  for (int cycle = 0; cycle < static_cast<int>(knobs.u3_iterations); ++cycle) {
    ModelSetUpdateInfo update = scenario.AdvanceCycle().ValueOrDie();
    for (ApproachType type : kAllApproaches) {
      ModelSetUpdateInfo derived = update;
      derived.base_set_id = heads[type];
      heads[type] = manager
                        ->SaveDerived(type, scenario.current_set(), derived)
                        .ValueOrDie()
                        .set_id;
    }
  }

  std::printf(
      "\nRecovering k of %zu models from the newest set (3-delta chain):\n",
      knobs.models);
  std::printf("%-11s | %6s | %12s | %14s | %12s\n", "approach", "k",
              "time (s)", "bytes read", "vs full");

  Rng rng(99);
  for (ApproachType type : kAllApproaches) {
    // Full recovery as the reference point.
    manager->file_store()->ResetStats();
    manager->doc_store()->ResetStats();
    StopWatch full_watch;
    ModelSet full = manager->Recover(heads[type]).ValueOrDie();
    double full_time = full_watch.ElapsedSeconds();
    uint64_t full_bytes = manager->file_store()->stats().bytes_read +
                          manager->doc_store()->stats().bytes_read;

    for (size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
      std::vector<size_t> indices;
      for (size_t i = 0; i < k; ++i) {
        indices.push_back(rng.NextBounded(knobs.models));
      }
      manager->file_store()->ResetStats();
      manager->doc_store()->ResetStats();
      StopWatch watch;
      std::vector<StateDict> selected =
          manager->RecoverModels(heads[type], indices).ValueOrDie();
      double elapsed = watch.ElapsedSeconds();
      uint64_t bytes = manager->file_store()->stats().bytes_read +
                       manager->doc_store()->stats().bytes_read;
      for (size_t i = 0; i < indices.size(); ++i) {
        const StateDict& expected = full.models[indices[i]];
        bool same = selected[i].size() == expected.size();
        for (size_t p = 0; same && p < expected.size(); ++p) {
          same = selected[i][p].first == expected[p].first &&
                 selected[i][p].second.Equals(expected[p].second);
        }
        if (!same) {
          std::fprintf(stderr,
                       "%s: selective recovery of model %zu differs from "
                       "the full recovery\n",
                       ApproachTypeName(type).c_str(), indices[i]);
          return 1;
        }
      }
      std::printf("%-11s | %6zu | %12.4f | %14llu | %11.1f%%\n",
                  ApproachTypeName(type).c_str(), k, elapsed,
                  static_cast<unsigned long long>(bytes),
                  100.0 * static_cast<double>(bytes) /
                      static_cast<double>(full_bytes));
    }
    std::printf("%-11s | %6s | %12.4f | %14llu | %11s\n",
                ApproachTypeName(type).c_str(), "all", full_time,
                static_cast<unsigned long long>(full_bytes), "100.0%");
  }
  std::printf(
      "\n(Expected: for the blob-based approaches, bytes read scale with k, "
      "not with\n the fleet size; Update additionally reads the chain's "
      "diff blobs; Provenance\n pays k x chain retraining time but reads "
      "almost nothing.)\n");

  CleanupWorkDir(knobs, work_dir);
  return 0;
}
