#ifndef MMM_WORKLOAD_SCENARIO_H_
#define MMM_WORKLOAD_SCENARIO_H_

#include <string>
#include <vector>

#include "battery/data_gen.h"
#include "core/model_set.h"
#include "data/cifar_synthetic.h"
#include "data/dataset_ref.h"
#include "storage/executor.h"

namespace mmm {

/// Which deployment the scenario emulates (paper §4.1).
enum class ScenarioKind { kBattery, kCifar };

/// \brief Parameters of the evaluation scenario (Figure 2: one U1 followed
/// by iterations of U3).
struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kBattery;
  ArchitectureSpec spec;
  /// Number of models in the set; the paper uses 5000 battery cells.
  size_t num_models = 5000;
  /// Fractions of models fully / partially updated per U3 iteration
  /// (paper default: 5% + 5% = 10% update rate).
  double full_update_fraction = 0.05;
  double partial_update_fraction = 0.05;
  /// Layers retrained by partial updates (last two layers by default,
  /// realizing §2.1's "retrain single layers").
  std::vector<std::string> partial_layers;
  uint64_t seed = 7;

  /// \name Training-scale knobs (scaled down from the paper's 342 M samples;
  /// see DESIGN.md §1).
  /// @{
  size_t samples_per_dataset = 256;
  int epochs = 1;
  size_t batch_size = 64;
  float learning_rate = 0.05f;
  /// @}

  /// Battery aging: SoH decrement per update cycle (§4.1: "we decrement the
  /// state of health of the batteries every update cycle").
  double initial_soh = 1.0;
  double soh_decrement = 0.01;

  /// Threads that train a cycle's models (0 = hardware threads). At most
  /// 8 are used. The trained sets do not depend on it.
  size_t train_lanes = 0;

  /// Default battery scenario (FFNN-48).
  static ScenarioConfig Battery(size_t num_models = 5000);
  /// Battery scenario with the larger FFNN-69 model.
  static ScenarioConfig BatteryLarge(size_t num_models = 5000);
  /// Image-classification scenario (CIFAR convnet).
  static ScenarioConfig Cifar(size_t num_models = 5000);
};

/// \brief Drives the multi-model deployment: maintains the live model set,
/// schedules updates, trains updated models, and resolves dataset
/// references during Provenance recovery.
///
/// Fully deterministic in the config: two scenarios with equal configs
/// produce bit-identical model-set sequences, so every approach can be
/// evaluated on exactly the same workload. `train_lanes` is no exception:
/// each model trains alone on its own data, so the lane that runs it cannot
/// change a bit.
///
/// Thread-safety: Resolve() reads only the config and the generators, so it
/// is safe to call concurrently (provenance recovery calls it from service
/// worker threads), even while AdvanceCycle runs. Init and AdvanceCycle are
/// confined to one thread.
class MultiModelScenario : public DatasetResolver {
 public:
  explicit MultiModelScenario(ScenarioConfig config);

  /// Builds the initial model set (use case U1). Must be called once before
  /// AdvanceCycle.
  Status Init();

  /// Runs one U3 iteration: selects models per the update fractions,
  /// retrains them on freshly generated data, and returns the derivation
  /// metadata (base_set_id left empty — each approach chain fills its own).
  /// The selected models train in parallel on the scenario's lanes. If any
  /// fails, the first failing one in schedule order is returned and the set
  /// and cycle stay as they were.
  Result<ModelSetUpdateInfo> AdvanceCycle();

  /// The live model set (after Init / the latest AdvanceCycle).
  const ModelSet& current_set() const { return set_; }

  /// Completed U3 iterations.
  uint64_t cycle() const { return cycle_; }

  const ScenarioConfig& config() const { return config_; }

  /// Lanes AdvanceCycle trains on (config().train_lanes resolved and capped).
  size_t train_lanes() const { return train_executor_.lanes(); }

  /// The shared training pipeline of cycle `cycle` (identical across models
  /// of a cycle — §3.4's assumption 1).
  TrainPipelineSpec PipelineForCycle(uint64_t cycle) const;

  /// Canonical dataset reference of (model, cycle), with content hash.
  DatasetRef MakeDatasetRef(uint64_t model_index, uint64_t cycle) const;

  /// DatasetResolver: regenerates the referenced dataset (the scenario's
  /// generators play the role of the external data owner) and verifies the
  /// content hash. Safe to call concurrently.
  Result<TrainingData> Resolve(const DatasetRef& ref) override;

 private:
  /// "<scheme>://<entity>/<model>/cycle/<cycle>", the URI Resolve parses.
  std::string DatasetUri(uint64_t model_index, uint64_t cycle) const;
  /// Pure function of (config, model, cycle); safe to call concurrently,
  /// which the training lanes and concurrent Resolve() calls rely on.
  TrainingData GenerateData(uint64_t model_index, uint64_t cycle) const;
  /// Trains model `model_index` of the current set for `cycle` into
  /// `trained`, leaving the set untouched. Safe to call concurrently for
  /// distinct models.
  Status TrainOne(size_t model_index, UpdateKind kind, uint64_t cycle,
                  StateDict* trained, std::string* content_hash) const;

  ScenarioConfig config_;
  BatteryDataGenerator battery_gen_;
  CifarSyntheticGenerator cifar_gen_;
  ModelSet set_;
  uint64_t cycle_ = 0;
  bool initialized_ = false;
  /// Declared last, so its threads are joined before any other member goes.
  Executor train_executor_;
};

}  // namespace mmm

#endif  // MMM_WORKLOAD_SCENARIO_H_
