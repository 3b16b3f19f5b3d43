#ifndef MMM_FLEET_CONTENT_H_
#define MMM_FLEET_CONTENT_H_

#include <cstdint>
#include <map>

#include "battery/data_gen.h"
#include "core/model_set.h"

namespace mmm {

/// \brief Deterministic model-set content, keyed by save ordinal.
///
/// The simulator needs, for every save ordinal of a fleet plan, (a) the
/// exact parameter bytes to hand the save path and (b) the exact bytes a
/// later recovery must reproduce — under every approach, including
/// Provenance, whose recovery *re-runs training*. So derived content is not
/// invented: it is produced by actually retraining a deterministic subset of
/// the parent set's models on deterministic battery datasets, mirroring what
/// ReplayEngine does from the persisted pipeline + dataset refs. The engine
/// doubles as the DatasetResolver those refs resolve through, closing the
/// loop: recovered bytes are bit-exact against the memoized expected set by
/// construction of the system under test, never by construction of the
/// oracle.
///
/// Unlike MultiModelScenario (one linear version history), content is
/// branch-native: a derived set is keyed by (ordinal, parent ordinal), so a
/// plan may derive several children from one base. Everything is memoized;
/// computing a set twice returns the identical object.
///
/// Thread-safety: Resolve() and GenerateData() are pure (no memo access)
/// and safe to call concurrently, because provenance recovery calls Resolve
/// from service worker threads; all other methods are confined to the
/// simulator thread.
class FleetContentEngine : public DatasetResolver {
 public:
  struct Config {
    uint64_t seed = 7;
    size_t models_per_set = 4;
    size_t samples_per_dataset = 32;
    double full_update_fraction = 0.25;
    double partial_update_fraction = 0.25;
  };

  explicit FleetContentEngine(const Config& config);

  /// Content of initial-save `ordinal`: freshly initialized models, seeded
  /// by (config.seed, ordinal). Memoized.
  Result<const ModelSet*> InitialSet(uint64_t ordinal);

  /// Content of derived-save `ordinal`: the parent's models with a
  /// deterministic subset retrained on cycle-`ordinal` battery data.
  /// `parent` must already have been computed. Memoized.
  Result<const ModelSet*> DerivedSet(uint64_t ordinal, uint64_t parent);

  /// Derivation metadata matching DerivedSet(ordinal, parent): per-model
  /// update kinds, dataset refs, the cycle's training pipeline, and partial
  /// layers. `base_set_id` is left empty (the simulator binds it) and
  /// `base_set` points at the memoized parent. DerivedSet must have been
  /// called first.
  ModelSetUpdateInfo UpdateFor(uint64_t ordinal, uint64_t parent);

  /// The memoized expected content of any computed ordinal.
  const ModelSet& ExpectedSet(uint64_t ordinal) const;
  bool Computed(uint64_t ordinal) const { return sets_.count(ordinal) != 0; }

  /// DatasetResolver for provenance replay: regenerates
  /// "battery://cell/<model>/cycle/<ordinal>" and verifies the hash. Pure.
  Result<TrainingData> Resolve(const DatasetRef& ref) override;

  const Config& config() const { return config_; }

 private:
  struct StoredUpdate {
    std::vector<UpdateKind> kinds;
    std::vector<DatasetRef> data_refs;
    uint64_t parent = 0;
  };

  /// Pure function of (config, model, cycle); safe to call concurrently.
  TrainingData GenerateData(uint64_t model_index, uint64_t cycle) const;
  TrainPipelineSpec PipelineFor(uint64_t ordinal) const;

  Config config_;
  ArchitectureSpec spec_;
  std::vector<std::string> partial_layers_;
  BatteryDataGenerator battery_gen_;
  std::map<uint64_t, ModelSet> sets_;
  std::map<uint64_t, StoredUpdate> updates_;
};

}  // namespace mmm

#endif  // MMM_FLEET_CONTENT_H_
