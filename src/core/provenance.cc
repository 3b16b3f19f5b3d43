#include "core/provenance.h"

#include <algorithm>

#include "cas/blob_io.h"
#include "core/set_codec.h"

namespace mmm {
namespace {

const char* UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kNone:
      return "none";
    case UpdateKind::kPartial:
      return "partial";
    case UpdateKind::kFull:
      return "full";
  }
  return "?";
}

Result<UpdateKind> UpdateKindFromName(const std::string& name) {
  if (name == "none") return UpdateKind::kNone;
  if (name == "partial") return UpdateKind::kPartial;
  if (name == "full") return UpdateKind::kFull;
  return Status::Corruption("unknown update kind '", name, "'");
}

}  // namespace

ProvenanceApproach::ProvenanceApproach(StoreContext context,
                                       DatasetResolver* resolver,
                                       EnvironmentInfo environment,
                                       ProvenanceRecoverOptions recover_options)
    : ModelSetApproach(context),
      replay_(resolver),
      environment_(std::move(environment)),
      recover_options_(recover_options) {}

Result<SaveResult> ProvenanceApproach::SaveInitial(const ModelSet& set) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // "For the initial model set, we save complete model representations
  // using Baseline's logic." (§3.4)
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  MMM_RETURN_NOT_OK(StageFullSnapshot(context_, &batch, result.set_id, set, &doc));
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  return result;
}

Result<SaveResult> ProvenanceApproach::SaveDerived(
    const ModelSet& set, const ModelSetUpdateInfo& update) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  if (update.base_set_id.empty()) {
    return Status::InvalidArgument("provenance approach needs a base_set_id");
  }
  if (update.kinds.size() != set.models.size()) {
    return Status::InvalidArgument("provenance approach needs per-model update "
                                   "kinds (got ",
                                   update.kinds.size(), " for ",
                                   set.models.size(), " models)");
  }
  if (update.pipeline.pipeline_code.empty()) {
    return Status::InvalidArgument("provenance approach needs the pipeline spec");
  }
  MMM_RETURN_NOT_OK(update.pipeline.Validate());
  MMM_ASSIGN_OR_RETURN(SetDocument base_doc,
                       FetchSetDocument(context_, update.base_set_id));
  if (base_doc.approach != Name()) {
    return Status::InvalidArgument("base set ", update.base_set_id,
                                   " was saved by '", base_doc.approach,
                                   "', not provenance");
  }
  if (base_doc.num_models != set.models.size()) {
    return Status::InvalidArgument("set has ", set.models.size(),
                                   " models but base has ", base_doc.num_models);
  }

  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // Environment, pipeline, and partial-layer list once per set; one dataset
  // reference per *updated* model (§3.4).
  JsonValue record = JsonValue::Object();
  record.Set("environment", environment_.ToJson());
  record.Set("pipeline", update.pipeline.ToJson());
  JsonValue partial_layers = JsonValue::Array();
  for (const std::string& layer : update.partial_layers) {
    partial_layers.Append(layer);
  }
  record.Set("partial_layers", std::move(partial_layers));
  JsonValue updates = JsonValue::Array();
  for (size_t index = 0; index < update.kinds.size(); ++index) {
    if (update.kinds[index] == UpdateKind::kNone) continue;
    if (index >= update.data_refs.size() || update.data_refs[index].uri.empty()) {
      return Status::InvalidArgument("updated model ", index,
                                     " is missing its dataset reference");
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("index", static_cast<int64_t>(index));
    entry.Set("kind", UpdateKindName(update.kinds[index]));
    entry.Set("data_ref", update.data_refs[index].ToJson());
    updates.Append(std::move(entry));
  }
  record.Set("updates", std::move(updates));

  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  doc.kind = "prov";
  doc.base_set_id = update.base_set_id;
  doc.family = base_doc.family;
  doc.num_models = set.models.size();
  doc.chain_depth = base_doc.chain_depth + 1;
  doc.prov_blob = result.set_id + ".prov.json";
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  batch.PutBlobString(doc.prov_blob, record.Dump());
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  result.chain_depth = doc.chain_depth;
  return result;
}

Result<ModelSet> ProvenanceApproach::Resolve(SetDocument doc,
                                             const std::vector<size_t>* models,
                                             RecoverStats* stats) {
  // The chain from the requested set down to its full snapshot, newest
  // first, each document fetched once. The budget (one more than the sets
  // stored) ends a corrupted base-pointer cycle.
  std::vector<SetDocument> chain;
  chain.push_back(std::move(doc));
  uint64_t depth_budget = context_.doc_store->Count(kSetCollection) + 1;
  while (chain.back().kind != "full") {
    const SetDocument& level = chain.back();
    if (level.kind != "prov") {
      return Status::Corruption("set ", level.id, " has unexpected kind '",
                                level.kind, "'");
    }
    if (--depth_budget == 0) {
      return Status::Corruption(
          "provenance recovery chain too deep (cycle?) at ", level.base_set_id);
    }
    MMM_ASSIGN_OR_RETURN(SetDocument base,
                         FetchSetDocument(context_, level.base_set_id));
    if (base.approach != Name()) {
      return Status::InvalidArgument("set ", base.id, " was saved by '",
                                     base.approach, "', not provenance");
    }
    if (base.num_models != chain.front().num_models) {
      return Status::Corruption("base set ", base.id, " holds ",
                                base.num_models, " models, derived set ",
                                chain.front().id, " holds ",
                                chain.front().num_models);
    }
    chain.push_back(std::move(base));
  }
  if (stats != nullptr) stats->sets_recovered += chain.size();

  // The base rows, then every level's updates oldest first over them: a
  // retrain starts from the previous level's parameters (§3.4). The
  // recover-option caps are a whole-set measurement protocol; selective
  // recovery is always exact.
  MMM_ASSIGN_OR_RETURN(ModelSet set,
                       ReadSnapshot(context_, chain.back(), models));
  const uint64_t num_models = chain.front().num_models;
  const bool capped = models == nullptr;
  const size_t max_models = capped ? recover_options_.max_replay_models : 0;
  const size_t max_samples = capped ? recover_options_.max_replay_samples : 0;
  for (size_t level = chain.size() - 1; level-- > 0;) {
    MMM_ASSIGN_OR_RETURN(std::string record_text,
                         CasReadBlobString(context_.file_store, context_.cas,
                                           chain[level].prov_blob));
    MMM_ASSIGN_OR_RETURN(JsonValue record, JsonValue::Parse(record_text));
    MMM_ASSIGN_OR_RETURN(const JsonValue* pipeline_json,
                         record.Get("pipeline"));
    MMM_ASSIGN_OR_RETURN(TrainPipelineSpec pipeline,
                         TrainPipelineSpec::FromJson(*pipeline_json));
    MMM_ASSIGN_OR_RETURN(const JsonValue* partial_json,
                         record.Get("partial_layers"));
    std::vector<std::string> partial_layers;
    for (const JsonValue& layer : partial_json->array_items()) {
      MMM_ASSIGN_OR_RETURN(std::string name, layer.AsString());
      partial_layers.push_back(std::move(name));
    }
    MMM_ASSIGN_OR_RETURN(const JsonValue* updates, record.Get("updates"));

    size_t replayed = 0;
    for (const JsonValue& entry : updates->array_items()) {
      if (max_models > 0 && replayed >= max_models) {
        break;  // measurement protocol: remaining models keep base parameters
      }
      MMM_ASSIGN_OR_RETURN(int64_t index_value, entry.GetInt64("index"));
      if (index_value < 0 || static_cast<uint64_t>(index_value) >= num_models) {
        return Status::Corruption("provenance update references model ",
                                  index_value);
      }
      auto index = static_cast<size_t>(index_value);
      size_t row = index;
      if (models != nullptr) {
        auto it = std::lower_bound(models->begin(), models->end(), index);
        if (it == models->end() || *it != index) continue;  // not requested
        row = static_cast<size_t>(it - models->begin());
      }
      MMM_ASSIGN_OR_RETURN(std::string kind_name, entry.GetString("kind"));
      MMM_ASSIGN_OR_RETURN(UpdateKind kind, UpdateKindFromName(kind_name));
      MMM_ASSIGN_OR_RETURN(const JsonValue* ref_json, entry.Get("data_ref"));
      MMM_ASSIGN_OR_RETURN(DatasetRef data_ref,
                           DatasetRef::FromJson(*ref_json));

      MMM_ASSIGN_OR_RETURN(Model model, Model::Create(set.spec));
      MMM_RETURN_NOT_OK(model.LoadStateDict(set.models[row]));
      TrainPipelineSpec model_pipeline = pipeline;
      model_pipeline.train_config.trainable_layers =
          kind == UpdateKind::kPartial ? partial_layers
                                       : std::vector<std::string>{};
      MMM_RETURN_NOT_OK(
          replay_.ReplayUpdate(&model, model_pipeline, data_ref, max_samples));
      set.models[row] = model.GetStateDict();
      if (stats != nullptr) stats->models_retrained += 1;
      ++replayed;
    }
  }
  return set;
}

}  // namespace mmm
