#include "core/baseline.h"

#include "core/set_codec.h"

namespace mmm {

Result<SaveResult> BaselineApproach::SaveSnapshot(const ModelSet& set,
                                                  const std::string& base_set_id) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // One batch per save: both snapshot blobs plus the set document commit
  // through the write pipeline together.
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  doc.base_set_id = base_set_id;
  MMM_RETURN_NOT_OK(StageFullSnapshot(context_, &batch, result.set_id, set, &doc));
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  return result;
}

Result<SaveResult> BaselineApproach::SaveInitial(const ModelSet& set) {
  return SaveSnapshot(set, /*base_set_id=*/"");
}

Result<SaveResult> BaselineApproach::SaveDerived(const ModelSet& set,
                                                 const ModelSetUpdateInfo& update) {
  // Baseline ignores derivation for storage purposes (it always writes a
  // full snapshot) but records lineage for analytics.
  return SaveSnapshot(set, update.base_set_id);
}

Result<ModelSet> BaselineApproach::Resolve(SetDocument doc,
                                           const std::vector<size_t>* models,
                                           RecoverStats* stats) {
  if (stats != nullptr) stats->sets_recovered += 1;
  return ReadSnapshot(context_, doc, models);
}

}  // namespace mmm
