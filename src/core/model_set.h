#ifndef MMM_CORE_MODEL_SET_H_
#define MMM_CORE_MODEL_SET_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset_ref.h"
#include "nn/architecture.h"
#include "nn/model.h"
#include "prov/pipeline.h"

namespace mmm {

/// \brief A set of models sharing one architecture (Figure 1 of the paper).
///
/// The unit of every save/recover operation in multi-model management.
/// Model k corresponds to the same real-world entity (battery cell k) in
/// every version of the set.
struct ModelSet {
  ArchitectureSpec spec;
  /// One state dict per model; all must match the spec's parameter layout.
  std::vector<StateDict> models;

  size_t size() const { return models.size(); }
};

/// (qualified key, shape) of every parameter tensor, in state-dict order.
using ParamLayout = std::vector<std::pair<std::string, Shape>>;

/// Derives the parameter layout implied by an architecture spec without
/// instantiating a network.
ParamLayout LayoutOf(const ArchitectureSpec& spec);

/// Scalar parameter count of a layout.
size_t LayoutNumel(const ParamLayout& layout);

/// Verifies every model in the set matches the spec's layout.
Status CheckSetConsistent(const ModelSet& set);

/// "" when `got` equals `want` bit for bit (spec, model count, parameter
/// keys, shapes and bytes), else a one-line description of the first
/// divergence.
std::string DiffSets(const ModelSet& got, const ModelSet& want);

/// Creates a set of `count` freshly initialized models. Model k is seeded
/// with (seed, k), so sets are reproducible and models differ from each
/// other.
Result<ModelSet> MakeInitializedSet(const ArchitectureSpec& spec, size_t count,
                                    uint64_t seed);

/// How a model changed relative to the base set (paper §2.1).
enum class UpdateKind : int {
  kNone = 0,     ///< not retrained; parameters identical to the base set
  kPartial = 1,  ///< a subset of layers retrained
  kFull = 2,     ///< all layers retrained
};

/// \brief Derivation metadata available when saving a non-initial set.
///
/// Baseline/MMlib-base ignore everything but nothing breaks without it;
/// Update needs `base_set_id`; Provenance needs all fields.
struct ModelSetUpdateInfo {
  /// Id of the set this one was derived from (must already be saved).
  std::string base_set_id;
  /// Per-model update kind; size must equal the set size. Empty means
  /// unknown (treated as all-full by Provenance validation).
  std::vector<UpdateKind> kinds;
  /// Per-model training-data reference; only entries of updated models are
  /// read.
  std::vector<DatasetRef> data_refs;
  /// The shared training pipeline used for this update cycle.
  TrainPipelineSpec pipeline;
  /// Layers retrained for kPartial models (shared across the set).
  std::vector<std::string> partial_layers;
  /// Optional borrowed view of the base set's parameter values. Only needed
  /// when the Update approach runs with XOR delta encoding (the saver — the
  /// fleet manager that just retrained the models — usually still holds the
  /// previous version in memory).
  const ModelSet* base_set = nullptr;
};

}  // namespace mmm

#endif  // MMM_CORE_MODEL_SET_H_
