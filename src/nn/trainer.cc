#include "nn/trainer.h"

#include <cstdlib>
#include <memory>

#include "common/rng.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace mmm {

JsonValue TrainConfig::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("epochs", static_cast<int64_t>(epochs));
  json.Set("batch_size", static_cast<int64_t>(batch_size));
  json.Set("learning_rate", static_cast<double>(learning_rate));
  json.Set("momentum", static_cast<double>(momentum));
  json.Set("optimizer", optimizer);
  json.Set("loss", loss);
  // Stored as a string: JSON numbers are doubles and would silently lose
  // precision for full-range 64-bit seeds, breaking bit-exact replay.
  json.Set("shuffle_seed", std::to_string(shuffle_seed));
  JsonValue layer_array = JsonValue::Array();
  for (const std::string& layer : trainable_layers) layer_array.Append(layer);
  json.Set("trainable_layers", std::move(layer_array));
  return json;
}

Result<TrainConfig> TrainConfig::FromJson(const JsonValue& json) {
  TrainConfig config;
  MMM_ASSIGN_OR_RETURN(int64_t epochs, json.GetInt64("epochs"));
  config.epochs = static_cast<int>(epochs);
  MMM_ASSIGN_OR_RETURN(int64_t batch, json.GetInt64("batch_size"));
  config.batch_size = static_cast<size_t>(batch);
  MMM_ASSIGN_OR_RETURN(double lr, json.GetDouble("learning_rate"));
  config.learning_rate = static_cast<float>(lr);
  config.momentum = static_cast<float>(json.GetDoubleOr("momentum", 0.0));
  MMM_ASSIGN_OR_RETURN(config.optimizer, json.GetString("optimizer"));
  MMM_ASSIGN_OR_RETURN(config.loss, json.GetString("loss"));
  MMM_ASSIGN_OR_RETURN(std::string seed_text, json.GetString("shuffle_seed"));
  char* end = nullptr;
  config.shuffle_seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (end == seed_text.c_str() || *end != '\0') {
    return Status::Corruption("train config: bad shuffle_seed '", seed_text, "'");
  }
  MMM_ASSIGN_OR_RETURN(const JsonValue* layers, json.Get("trainable_layers"));
  for (const JsonValue& layer : layers->array_items()) {
    MMM_ASSIGN_OR_RETURN(std::string name, layer.AsString());
    config.trainable_layers.push_back(std::move(name));
  }
  return config;
}

namespace {

Result<std::unique_ptr<Loss>> MakeLoss(const std::string& name) {
  if (name == "mse") return std::unique_ptr<Loss>(std::make_unique<MSELoss>());
  if (name == "cross_entropy") {
    return std::unique_ptr<Loss>(std::make_unique<CrossEntropyLoss>());
  }
  return Status::InvalidArgument("unknown loss '", name, "'");
}

Result<std::unique_ptr<Optimizer>> MakeOptimizer(const TrainConfig& config,
                                                 std::vector<Parameter*> params) {
  if (config.optimizer == "sgd") {
    return std::unique_ptr<Optimizer>(std::make_unique<SGD>(
        std::move(params), config.learning_rate, config.momentum));
  }
  if (config.optimizer == "adam") {
    return std::unique_ptr<Optimizer>(
        std::make_unique<Adam>(std::move(params), config.learning_rate));
  }
  return Status::InvalidArgument("unknown optimizer '", config.optimizer, "'");
}

/// Copies sample rows `indices[start, start+count)` of `data` (first dim =
/// sample) into a new tensor with the same trailing dims.
Tensor GatherBatch(const Tensor& data, const std::vector<size_t>& indices,
                   size_t start, size_t count) {
  size_t sample_size = data.dim(0) == 0 ? 0 : data.numel() / data.dim(0);
  Shape batch_shape = data.shape();
  batch_shape[0] = count;
  Tensor batch(batch_shape);
  auto src = data.data();
  auto dst = batch.mutable_data();
  for (size_t i = 0; i < count; ++i) {
    size_t sample = indices[start + i];
    for (size_t j = 0; j < sample_size; ++j) {
      dst[i * sample_size + j] = src[sample * sample_size + j];
    }
  }
  return batch;
}

}  // namespace

Result<TrainReport> TrainModel(Model* model, const Tensor& inputs,
                               const Tensor& targets, const TrainConfig& config) {
  if (inputs.ndim() < 1 || targets.ndim() < 1 ||
      inputs.dim(0) != targets.dim(0)) {
    return Status::InvalidArgument("inputs and targets must share dim 0");
  }
  if (inputs.dim(0) == 0) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (config.epochs < 0) {
    return Status::InvalidArgument("epochs must be non-negative");
  }

  MMM_RETURN_NOT_OK(model->network()->SetTrainableLayers(config.trainable_layers));
  MMM_ASSIGN_OR_RETURN(std::unique_ptr<Loss> loss, MakeLoss(config.loss));
  MMM_ASSIGN_OR_RETURN(
      std::unique_ptr<Optimizer> optimizer,
      MakeOptimizer(config, model->network()->Parameters()));

  TrainReport report;
  const size_t n = inputs.dim(0);
  Rng shuffle_rng = Rng(config.shuffle_seed).Fork("train-shuffle");
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    shuffle_rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += config.batch_size) {
      size_t count = std::min(config.batch_size, n - start);
      Tensor batch_x = GatherBatch(inputs, order, start, count);
      Tensor batch_y = GatherBatch(targets, order, start, count);
      Tensor prediction = model->network()->Forward(batch_x);
      report.final_loss = loss->Forward(prediction, batch_y);
      optimizer->ZeroGrad();
      model->network()->Backward(loss->Backward());
      optimizer->Step();
      ++report.steps;
    }
  }
  // Leave the model fully trainable for subsequent callers.
  MMM_RETURN_NOT_OK(model->network()->SetTrainableLayers({}));
  return report;
}

Result<float> EvaluateLoss(Model* model, const Tensor& inputs,
                           const Tensor& targets, const std::string& loss_name) {
  MMM_ASSIGN_OR_RETURN(std::unique_ptr<Loss> loss, MakeLoss(loss_name));
  Tensor prediction = model->network()->Forward(inputs);
  return loss->Forward(prediction, targets);
}

}  // namespace mmm
