#ifndef MMM_NN_TRAINER_H_
#define MMM_NN_TRAINER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "serialize/json.h"
#include "nn/model.h"

namespace mmm {

/// \brief Fully deterministic training-run description.
///
/// A TrainConfig plus a dataset plus the starting parameters determine the
/// resulting parameters bit-exactly (single-threaded FP32, seeded shuffling,
/// fixed reduction order). The Provenance approach persists exactly this
/// config (as JSON) and replays it to recover models.
struct TrainConfig {
  int epochs = 1;
  size_t batch_size = 32;
  float learning_rate = 0.01f;
  float momentum = 0.0f;
  std::string optimizer = "sgd";  ///< "sgd" | "adam"
  std::string loss = "mse";       ///< "mse" | "cross_entropy"
  uint64_t shuffle_seed = 1;
  /// Layer names to train; empty = full update, non-empty = partial update
  /// (all other layers are frozen, paper §2.1).
  std::vector<std::string> trainable_layers;

  JsonValue ToJson() const;
  static Result<TrainConfig> FromJson(const JsonValue& json);

  bool operator==(const TrainConfig& other) const = default;
};

/// \brief Outcome statistics of one training run.
struct TrainReport {
  /// Loss of the last mini-batch (0 when no step ran).
  float final_loss = 0.0f;
  int64_t steps = 0;
};

/// \brief Runs deterministic mini-batch training on a model.
///
/// `inputs` is [n, features...] (first dim = sample), `targets` is
/// [n, outputs] for MSE or [n] class indices for cross-entropy.
Result<TrainReport> TrainModel(Model* model, const Tensor& inputs,
                               const Tensor& targets, const TrainConfig& config);

/// Mean loss of `model` on the given data (no parameter updates).
Result<float> EvaluateLoss(Model* model, const Tensor& inputs,
                           const Tensor& targets, const std::string& loss);

}  // namespace mmm

#endif  // MMM_NN_TRAINER_H_
