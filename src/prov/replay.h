#ifndef MMM_PROV_REPLAY_H_
#define MMM_PROV_REPLAY_H_

#include "data/dataset_ref.h"
#include "nn/model.h"
#include "prov/pipeline.h"

namespace mmm {

/// \brief Deterministically re-executes training pipelines from provenance.
///
/// The Provenance approach recovers a model by "deterministically repeating
/// its training on the associated dataset" (paper §3.4). ReplayEngine is
/// that recovery path: it resolves the dataset reference (verifying its
/// content hash), validates the pipeline record, and re-runs the exact
/// TrainConfig on the model's current parameters.
class ReplayEngine {
 public:
  /// \param resolver external system that owns the training data
  explicit ReplayEngine(DatasetResolver* resolver) : resolver_(resolver) {}

  /// Replays one model update in place. `model` must hold the parameters it
  /// had *before* the update being replayed (Provenance recovery
  /// guarantees this by replaying a chain's levels oldest first).
  ///
  /// \param max_samples optional cap on the replayed dataset size (the
  ///        paper's "reduced data" recovery protocol, §4.4); 0 = use all.
  Status ReplayUpdate(Model* model, const TrainPipelineSpec& pipeline,
                      const DatasetRef& data_ref, size_t max_samples = 0);

  DatasetResolver* resolver() { return resolver_; }

 private:
  DatasetResolver* resolver_;
};

}  // namespace mmm

#endif  // MMM_PROV_REPLAY_H_
