#ifndef MMM_WORKLOAD_EXPERIMENT_H_
#define MMM_WORKLOAD_EXPERIMENT_H_

#include <map>
#include <string>
#include <vector>

#include "core/manager.h"
#include "workload/scenario.h"

namespace mmm {

/// \brief Per-(use case, approach) measurements, matching the paper's three
/// metrics.
struct ApproachMetrics {
  std::string set_id;           ///< canonical saved set of this use case
  uint64_t storage_bytes = 0;   ///< storage consumption (constant across runs)
  uint64_t file_store_writes = 0;
  uint64_t doc_store_writes = 0;
  double tts_seconds = 0.0;     ///< median time-to-save (wall + modeled)
  double tts_wall_seconds = 0.0;      ///< median measured wall clock only
  double tts_modeled_seconds = 0.0;   ///< median modeled store latency only
  double ttr_seconds = 0.0;     ///< median time-to-recover (wall + modeled)
  double ttr_wall_seconds = 0.0;
  double ttr_modeled_seconds = 0.0;
};

/// \brief One row of the evaluation: a use case (U1, U3-1, ...) with metrics
/// for every approach.
struct UseCaseResult {
  std::string use_case;
  std::map<ApproachType, ApproachMetrics> metrics;
};

/// \brief Configuration of a full Figure-2 experiment run.
struct ExperimentConfig {
  ScenarioConfig scenario = ScenarioConfig::Battery();
  /// U3 iterations after U1 (paper: 3).
  size_t u3_iterations = 3;
  /// Runs per measurement; the median is reported (paper: 5).
  int runs = 5;
  SetupProfile profile = SetupProfile::Server();
  /// Working directory; wiped and recreated by Run().
  std::string work_dir = "/tmp/mmm-experiment";
  /// Approaches to evaluate (default: all four).
  std::vector<ApproachType> approaches = {kAllApproaches,
                                          kAllApproaches + 4};
  bool measure_ttr = true;
  /// Run one untimed recovery before the timed ones so all measured runs see
  /// the same (warm) cache state — the paper's medians-of-5 serve the same
  /// purpose.
  bool ttr_warmup = true;
  /// Provenance recovery protocol. Defaults to the paper's measurement
  /// shortcut (§4.4): replay one model per set on a reduced dataset.
  ProvenanceRecoverOptions provenance_recover{/*max_replay_models=*/1,
                                              /*max_replay_samples=*/64};
  UpdateApproachOptions update_options;
  /// Codec applied to parameter/diff/hash blobs (§4.5 future work).
  Compression blob_compression = Compression::kNone;
};

/// \brief Runs the Figure-2 use-case sequence (U1, U3-1..U3-k) against every
/// configured approach on identical model states and collects storage, TTS,
/// and TTR.
///
/// Saving is repeated `runs` times per (use case, approach) for the median
/// TTS; the first save of each cycle is the canonical set that derived saves
/// and recoveries reference. TTR is measured by `runs` recoveries of the
/// canonical set. Every recovery that is not a capped Provenance replay is
/// compared with the set that was saved; a difference fails Run() with
/// Corruption.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig config);

  /// Runs the whole experiment. Idempotent: wipes work_dir first.
  Result<std::vector<UseCaseResult>> Run();

  /// The scenario driver (valid during/after Run, e.g. for inspection).
  MultiModelScenario* scenario() { return scenario_.get(); }

 private:
  Result<UseCaseResult> MeasureUseCase(const std::string& label, bool initial,
                                       const ModelSetUpdateInfo* update);

  ExperimentConfig config_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::map<ApproachType, std::unique_ptr<ModelSetManager>> managers_;
  /// Canonical chain head per approach (base for the next derived save).
  std::map<ApproachType, std::string> chain_head_;
};

/// Sorts a copy of `values` and returns the median (0 for empty input).
double Median(std::vector<double> values);

}  // namespace mmm

#endif  // MMM_WORKLOAD_EXPERIMENT_H_
