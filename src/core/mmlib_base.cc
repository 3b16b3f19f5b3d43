#include "core/mmlib_base.h"

#include "cas/blob_io.h"
#include "common/strings.h"
#include "core/blob_formats.h"
#include "core/set_codec.h"

namespace mmm {

MMlibBaseApproach::MMlibBaseApproach(StoreContext context,
                                     EnvironmentInfo environment)
    : ModelSetApproach(context), environment_(std::move(environment)) {}

Result<SaveResult> MMlibBaseApproach::SaveAllIndividually(const ModelSet& set) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  const JsonValue architecture_json = set.spec.ToJson();
  const JsonValue environment_json = environment_.ToJson();
  const std::string source_code = set.spec.SourceCode();
  // MMlib records per-model training metadata with every save; like the
  // architecture and environment it is identical across the set, i.e.
  // redundant (O1).
  JsonValue train_info = JsonValue::Object();
  train_info.Set("framework", "pytorch-1.7.1-compatible");
  train_info.Set("optimizer", "sgd");
  train_info.Set("loss", "mse");
  train_info.Set("device", "cpu");
  train_info.Set("dataset_format", "normalized-float32");
  train_info.Set("save_reason", "scheduled-update");
  train_info.Set("library", environment_.library_version);

  // All per-model artifacts of one save commit through a single batch: the
  // n weight encodes run as deferred work items across the pipeline lanes,
  // while the n metadata inserts stay serialized on the one document-store
  // connection (which is exactly what keeps MMlib-base expensive).
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  for (size_t index = 0; index < set.models.size(); ++index) {
    // One weights artifact (state dict *with* keys — the per-model
    // serialization overhead Baseline eliminates) ...
    std::string model_id = StringFormat("%s-m%05zu", result.set_id.c_str(), index);
    std::string weights_blob = model_id + ".weights.bin";
    const StateDict* model = &set.models[index];
    batch.PutBlobDeferred(weights_blob, [model](BlobSink* sink) {
      return sink->Append(EncodeStateDict(*model));
    });
    // ... one code artifact ...
    std::string code_blob = model_id + ".code.py";
    batch.PutBlobString(code_blob, source_code);
    // ... and one metadata document embedding architecture + environment.
    JsonValue doc = JsonValue::Object();
    doc.Set("_id", model_id);
    doc.Set("set_id", result.set_id);
    doc.Set("model_index", static_cast<int64_t>(index));
    doc.Set("architecture", architecture_json);
    doc.Set("environment", environment_json);
    doc.Set("train_info", train_info);
    doc.Set("weights_blob", weights_blob);
    doc.Set("code_blob", code_blob);
    batch.InsertDocument(kMmlibModelCollection, std::move(doc));
  }

  SetDocument set_doc;
  set_doc.id = result.set_id;
  set_doc.approach = Name();
  set_doc.kind = "full";
  set_doc.family = set.spec.family;
  set_doc.num_models = set.models.size();
  StageSetDocument(&batch, set_doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  return result;
}

Result<SaveResult> MMlibBaseApproach::SaveInitial(const ModelSet& set) {
  return SaveAllIndividually(set);
}

Result<SaveResult> MMlibBaseApproach::SaveDerived(const ModelSet& set,
                                                  const ModelSetUpdateInfo&) {
  // Single-model management has no notion of set derivation: every save is a
  // full independent snapshot of every model.
  return SaveAllIndividually(set);
}

Result<ModelSet> MMlibBaseApproach::Resolve(SetDocument set_doc,
                                            const std::vector<size_t>* models,
                                            RecoverStats* stats) {
  const size_t num_rows =
      models == nullptr ? set_doc.num_models : models->size();
  ModelSet set;
  set.models.resize(num_rows);
  for (size_t row = 0; row < num_rows; ++row) {
    const size_t index = models == nullptr ? row : (*models)[row];
    std::string model_id =
        StringFormat("%s-m%05zu", set_doc.id.c_str(), index);
    MMM_ASSIGN_OR_RETURN(JsonValue doc,
                         context_.doc_store->Get(kMmlibModelCollection, model_id));
    if (row == 0) {
      MMM_ASSIGN_OR_RETURN(const JsonValue* arch, doc.Get("architecture"));
      MMM_ASSIGN_OR_RETURN(set.spec, ArchitectureSpec::FromJson(*arch));
    }
    MMM_ASSIGN_OR_RETURN(std::string weights_blob, doc.GetString("weights_blob"));
    MMM_ASSIGN_OR_RETURN(
        std::vector<uint8_t> blob,
        CasReadBlobDecompressed(context_.file_store, context_.cas,
                                weights_blob));
    MMM_ASSIGN_OR_RETURN(set.models[row], DecodeStateDict(blob));
  }
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  if (stats != nullptr) stats->sets_recovered += 1;
  return set;
}

}  // namespace mmm
