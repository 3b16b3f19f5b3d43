#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/strings.h"
#include "nn/trainer.h"
#include "prov/pipeline.h"

namespace mmm {
namespace {

BatteryDataConfig MakeBatteryDataConfig(const ScenarioConfig& config) {
  BatteryDataConfig data_config;
  data_config.seed = config.seed;
  data_config.samples_per_cycle = config.samples_per_dataset;
  return data_config;
}

constexpr size_t kMaxTrainLanes = 8;

size_t TrainLanes(const ScenarioConfig& config) {
  size_t lanes = config.train_lanes;
  if (lanes == 0) lanes = std::thread::hardware_concurrency();
  return std::clamp<size_t>(lanes, 1, kMaxTrainLanes);
}

}  // namespace

ScenarioConfig ScenarioConfig::Battery(size_t num_models) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kBattery;
  config.spec = Ffnn48Spec();
  config.num_models = num_models;
  config.partial_layers = {"fc3", "fc4"};
  return config;
}

ScenarioConfig ScenarioConfig::BatteryLarge(size_t num_models) {
  ScenarioConfig config = Battery(num_models);
  config.spec = Ffnn69Spec();
  return config;
}

ScenarioConfig ScenarioConfig::Cifar(size_t num_models) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kCifar;
  config.spec = CifarNetSpec();
  config.num_models = num_models;
  config.partial_layers = {"fc1"};
  config.samples_per_dataset = 48;
  config.batch_size = 16;
  config.learning_rate = 0.01f;
  return config;
}

MultiModelScenario::MultiModelScenario(ScenarioConfig config)
    : config_(std::move(config)),
      battery_gen_(MakeBatteryDataConfig(config_)),
      cifar_gen_(config_.seed),
      train_executor_(TrainLanes(config_)) {}

Status MultiModelScenario::Init() {
  if (initialized_) return Status::InvalidArgument("scenario already initialized");
  MMM_ASSIGN_OR_RETURN(
      set_, MakeInitializedSet(config_.spec, config_.num_models, config_.seed));
  initialized_ = true;
  return Status::OK();
}

TrainPipelineSpec MultiModelScenario::PipelineForCycle(uint64_t cycle) const {
  TrainConfig train;
  train.epochs = config_.epochs;
  train.batch_size = config_.batch_size;
  train.learning_rate = config_.learning_rate;
  train.optimizer = "sgd";
  train.loss = config_.kind == ScenarioKind::kCifar ? "cross_entropy" : "mse";
  train.shuffle_seed = Rng::Mix64(config_.seed ^ (0xabcdef12345ULL + cycle));
  return TrainPipelineSpec::Create(train, CanonicalPipelineCode(train));
}

TrainingData MultiModelScenario::GenerateData(uint64_t model_index,
                                              uint64_t cycle) const {
  if (config_.kind == ScenarioKind::kCifar) {
    return cifar_gen_.Generate(model_index, cycle, config_.samples_per_dataset);
  }
  double soh =
      std::max(0.5, config_.initial_soh -
                        config_.soh_decrement * static_cast<double>(cycle));
  return battery_gen_.GenerateCellDataset(model_index, cycle, soh);
}

std::string MultiModelScenario::DatasetUri(uint64_t model_index,
                                          uint64_t cycle) const {
  const char* scheme =
      config_.kind == ScenarioKind::kCifar ? "cifar://model" : "battery://cell";
  return StringFormat("%s/%llu/cycle/%llu", scheme,
                      static_cast<unsigned long long>(model_index),
                      static_cast<unsigned long long>(cycle));
}

DatasetRef MultiModelScenario::MakeDatasetRef(uint64_t model_index,
                                              uint64_t cycle) const {
  DatasetRef ref;
  ref.uri = DatasetUri(model_index, cycle);
  ref.content_hash = HashTrainingData(GenerateData(model_index, cycle));
  return ref;
}

Result<TrainingData> MultiModelScenario::Resolve(const DatasetRef& ref) {
  // Parse "<scheme>://<entity>/<index>/cycle/<cycle>".
  std::vector<std::string> parts = Split(ref.uri, '/');
  // e.g. {"battery:", "", "cell", "17", "cycle", "2"}
  if (parts.size() != 6 || parts[4] != "cycle") {
    return Status::InvalidArgument("malformed dataset uri '", ref.uri, "'");
  }
  const char* expected_scheme =
      config_.kind == ScenarioKind::kCifar ? "cifar:" : "battery:";
  if (parts[0] != expected_scheme) {
    return Status::InvalidArgument("dataset uri '", ref.uri,
                                   "' does not match the scenario kind");
  }
  char* end = nullptr;
  uint64_t model_index = std::strtoull(parts[3].c_str(), &end, 10);
  if (end == parts[3].c_str() || *end != '\0') {
    return Status::InvalidArgument("bad model index in uri '", ref.uri, "'");
  }
  uint64_t cycle = std::strtoull(parts[5].c_str(), &end, 10);
  if (end == parts[5].c_str() || *end != '\0') {
    return Status::InvalidArgument("bad cycle in uri '", ref.uri, "'");
  }
  TrainingData data = GenerateData(model_index, cycle);
  if (!ref.content_hash.empty() &&
      HashTrainingData(data) != ref.content_hash) {
    return Status::Corruption("dataset '", ref.uri,
                              "' no longer matches its content hash");
  }
  return data;
}

Status MultiModelScenario::TrainOne(size_t model_index, UpdateKind kind,
                                    uint64_t cycle, StateDict* trained,
                                    std::string* content_hash) const {
  TrainingData data = GenerateData(model_index, cycle);
  *content_hash = HashTrainingData(data);
  MMM_ASSIGN_OR_RETURN(Model model, Model::Create(config_.spec));
  MMM_RETURN_NOT_OK(model.LoadStateDict(set_.models[model_index]));
  TrainConfig train = PipelineForCycle(cycle).train_config;
  if (kind == UpdateKind::kPartial) {
    train.trainable_layers = config_.partial_layers;
  }
  MMM_RETURN_NOT_OK(
      TrainModel(&model, data.inputs, data.targets, train).status());
  *trained = model.GetStateDict();
  return Status::OK();
}

Result<ModelSetUpdateInfo> MultiModelScenario::AdvanceCycle() {
  if (!initialized_) {
    return Status::InvalidArgument("scenario not initialized");
  }
  const uint64_t cycle = cycle_ + 1;

  const size_t n = config_.num_models;
  auto count_full = static_cast<size_t>(
      std::llround(config_.full_update_fraction * static_cast<double>(n)));
  auto count_partial = static_cast<size_t>(
      std::llround(config_.partial_update_fraction * static_cast<double>(n)));
  count_full = std::min(count_full, n);
  count_partial = std::min(count_partial, n - count_full);
  const size_t count = count_full + count_partial;

  // "only a subset of models has diverged significantly ... and needs
  // updating" (§4.1) — the subset is drawn fresh every cycle.
  Rng schedule_rng = Rng(config_.seed).Fork("update-schedule", cycle);
  std::vector<size_t> order = schedule_rng.Permutation(n);
  auto kind_of = [count_full](size_t i) {
    return i < count_full ? UpdateKind::kFull : UpdateKind::kPartial;
  };

  // Item i trains model order[i] on lane i % lanes. Each reads only its own
  // model and writes only its own slot, so no lane sees another's work.
  struct Trained {
    Status status;
    StateDict state;
    std::string content_hash;
  };
  std::vector<Trained> trained(count);
  train_executor_.ParallelFor(count, [&](size_t i) {
    trained[i].status = TrainOne(order[i], kind_of(i), cycle, &trained[i].state,
                                 &trained[i].content_hash);
  });
  for (const Trained& slot : trained) MMM_RETURN_NOT_OK(slot.status);

  ModelSetUpdateInfo info;
  info.kinds.assign(n, UpdateKind::kNone);
  info.data_refs.resize(n);
  info.pipeline = PipelineForCycle(cycle);
  info.partial_layers = config_.partial_layers;
  for (size_t i = 0; i < count; ++i) {
    size_t model_index = order[i];
    info.kinds[model_index] = kind_of(i);
    DatasetRef& ref = info.data_refs[model_index];
    ref.uri = DatasetUri(model_index, cycle);
    ref.content_hash = std::move(trained[i].content_hash);
    set_.models[model_index] = std::move(trained[i].state);
  }
  cycle_ = cycle;
  return info;
}

}  // namespace mmm
