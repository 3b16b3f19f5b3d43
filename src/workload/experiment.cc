#include "workload/experiment.h"

#include <algorithm>

#include "common/clock.h"
#include "common/strings.h"

namespace mmm {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config)) {}

Result<std::vector<UseCaseResult>> ExperimentRunner::Run() {
  Env* env = Env::Default();
  MMM_RETURN_NOT_OK(env->RemoveDirs(config_.work_dir));
  MMM_RETURN_NOT_OK(env->CreateDirs(config_.work_dir));

  scenario_ = std::make_unique<MultiModelScenario>(config_.scenario);
  MMM_RETURN_NOT_OK(scenario_->Init());

  // Environment captured once and shared so every approach persists
  // identical metadata.
  EnvironmentInfo environment = EnvironmentInfo::Capture();
  managers_.clear();
  chain_head_.clear();
  for (ApproachType type : config_.approaches) {
    ModelSetManager::Options options;
    options.root_dir = config_.work_dir + "/" + ApproachTypeName(type);
    options.profile = config_.profile;
    options.resolver = scenario_.get();
    options.environment = environment;
    options.update_options = config_.update_options;
    options.provenance_recover_options = config_.provenance_recover;
    options.blob_compression = config_.blob_compression;
    // The paper harness owns one isolated store per approach; the sharded
    // tier is out of scope for it.
    // MMMSA(direct-manager-open): per-approach store of the paper harness.
    MMM_ASSIGN_OR_RETURN(managers_[type], ModelSetManager::Open(options));
  }

  std::vector<UseCaseResult> results;
  {
    MMM_ASSIGN_OR_RETURN(UseCaseResult u1,
                         MeasureUseCase("U1", /*initial=*/true, nullptr));
    results.push_back(std::move(u1));
  }
  for (size_t iteration = 1; iteration <= config_.u3_iterations; ++iteration) {
    MMM_ASSIGN_OR_RETURN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    std::string label = StringFormat("U3-%zu", iteration);
    MMM_ASSIGN_OR_RETURN(UseCaseResult row,
                         MeasureUseCase(label, /*initial=*/false, &update));
    results.push_back(std::move(row));
  }
  return results;
}

Result<UseCaseResult> ExperimentRunner::MeasureUseCase(
    const std::string& label, bool initial, const ModelSetUpdateInfo* update) {
  UseCaseResult row;
  row.use_case = label;
  const ModelSet& set = scenario_->current_set();

  for (ApproachType type : config_.approaches) {
    ModelSetManager* manager = managers_.at(type).get();
    ApproachMetrics metrics;

    // --- Time-to-save: `runs` saves; the first one is canonical. ---
    std::vector<double> tts_total, tts_wall, tts_modeled;
    for (int run = 0; run < config_.runs; ++run) {
      ModelSetUpdateInfo derived;
      if (!initial) {
        derived = *update;
        derived.base_set_id = chain_head_.at(type);
      }
      StopWatch watch;
      Result<SaveResult> saved =
          initial ? manager->SaveInitial(type, set)
                  : manager->SaveDerived(type, set, derived);
      double wall = watch.ElapsedSeconds();
      if (!saved.ok()) {
        return saved.status().WithContext("saving ", label, " with ",
                                          ApproachTypeName(type));
      }
      double modeled =
          static_cast<double>(saved.ValueOrDie().simulated_store_nanos) * 1e-9;
      tts_wall.push_back(wall);
      tts_modeled.push_back(modeled);
      tts_total.push_back(wall + modeled);
      if (run == 0) {
        metrics.set_id = saved.ValueOrDie().set_id;
        metrics.storage_bytes = saved.ValueOrDie().bytes_written;
        metrics.file_store_writes = saved.ValueOrDie().file_store_writes;
        metrics.doc_store_writes = saved.ValueOrDie().doc_store_writes;
      }
    }
    metrics.tts_seconds = Median(tts_total);
    metrics.tts_wall_seconds = Median(tts_wall);
    metrics.tts_modeled_seconds = Median(tts_modeled);
    chain_head_[type] = metrics.set_id;

    // --- Time-to-recover: `runs` recoveries of the canonical set. ---
    // A recovery that replays everything must give back the saved set bit
    // for bit; a capped Provenance replay (the §4.4 shortcut) does not.
    const bool exact = type != ApproachType::kProvenance ||
                       (config_.provenance_recover.max_replay_models == 0 &&
                        config_.provenance_recover.max_replay_samples == 0);
    auto check = [&](const ModelSet& recovered) -> Status {
      if (!exact) return Status::OK();
      std::string diff = DiffSets(recovered, set);
      if (diff.empty()) return Status::OK();
      return Status::Corruption("recovered ", label, " with ",
                                ApproachTypeName(type),
                                " differs from the saved set: ", diff);
    };
    if (config_.measure_ttr) {
      if (config_.ttr_warmup) {
        Result<ModelSet> warmup = manager->Recover(metrics.set_id, nullptr);
        if (!warmup.ok()) {
          return warmup.status().WithContext("warm-up recovery of ", label,
                                             " with ", ApproachTypeName(type));
        }
        MMM_RETURN_NOT_OK(check(warmup.ValueOrDie()));
      }
      std::vector<double> ttr_total, ttr_wall, ttr_modeled;
      for (int run = 0; run < config_.runs; ++run) {
        RecoverStats stats;
        StopWatch watch;
        Result<ModelSet> recovered = manager->Recover(metrics.set_id, &stats);
        double wall = watch.ElapsedSeconds();
        if (!recovered.ok()) {
          return recovered.status().WithContext("recovering ", label, " with ",
                                                ApproachTypeName(type));
        }
        MMM_RETURN_NOT_OK(check(recovered.ValueOrDie()));
        double modeled = static_cast<double>(stats.simulated_store_nanos) * 1e-9;
        ttr_wall.push_back(wall);
        ttr_modeled.push_back(modeled);
        ttr_total.push_back(wall + modeled);
      }
      metrics.ttr_seconds = Median(ttr_total);
      metrics.ttr_wall_seconds = Median(ttr_wall);
      metrics.ttr_modeled_seconds = Median(ttr_modeled);
    }
    row.metrics[type] = std::move(metrics);
  }
  return row;
}

}  // namespace mmm
