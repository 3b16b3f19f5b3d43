#include "core/gc.h"

#include <map>
#include <set>

#include "cas/manifest.h"
#include "cas/pack.h"
#include "common/strings.h"
#include "core/mmlib_base.h"
#include "core/set_codec.h"

namespace mmm {
namespace {

/// Deletes one artifact blob, CAS-aware: a chunked blob's manifest is
/// unregistered first so its chunks' refcounts drop (the zero-refcount
/// chunks are reclaimed by the sweep the caller runs afterwards — the
/// decrement-then-sweep protocol of DESIGN.md §10).
Status DeleteArtifactBlob(const StoreContext& context, const std::string& blob,
                          DeleteReport* report) {
  auto size = context.file_store->Size(blob);
  if (size.ok()) {
    report->bytes_reclaimed += size.ValueOrDie();
    ++report->blobs_deleted;
  }
  if (context.cas != nullptr) context.cas->OnManifestDeleted(blob);
  return context.file_store->Delete(blob);
}

/// Drops every chunk no surviving manifest references and reclaims the
/// packs that leaves dead (or, repacked, mostly dead); folds the dropped
/// chunks and deleted packs into the report. No-op without CAS.
Status SweepCasChunks(const StoreContext& context, DeleteReport* report) {
  if (context.cas == nullptr) return Status::OK();
  MMM_ASSIGN_OR_RETURN(CasStore::SweepReport swept,
                       context.cas->SweepZeroRefChunks());
  report->blobs_deleted += swept.packs_deleted;
  report->bytes_reclaimed += swept.bytes_swept;
  report->chunks_swept += swept.chunks_swept;
  report->packs_repacked += swept.packs_repacked;
  return Status::OK();
}

Result<std::map<std::string, SetDocument>> LoadAllSetDocs(
    const StoreContext& context) {
  std::map<std::string, SetDocument> by_id;
  if (context.doc_store->Count(kSetCollection) == 0) return by_id;
  MMM_ASSIGN_OR_RETURN(std::vector<JsonValue> docs,
                       context.doc_store->All(kSetCollection));
  for (const JsonValue& json : docs) {
    MMM_ASSIGN_OR_RETURN(SetDocument doc, SetDocument::FromJson(json));
    by_id[doc.id] = std::move(doc);
  }
  return by_id;
}

/// Deletes one set's artifacts and documents (no dependency checks).
Status DeleteOne(const StoreContext& context, const SetDocument& doc,
                 DeleteReport* report) {
  for (const std::string& blob :
       {doc.arch_blob, doc.param_blob, doc.hash_blob, doc.diff_blob,
        doc.prov_blob}) {
    if (blob.empty()) continue;
    MMM_RETURN_NOT_OK(DeleteArtifactBlob(context, blob, report));
  }
  if (doc.approach == "mmlib-base") {
    for (uint64_t index = 0; index < doc.num_models; ++index) {
      std::string model_id = StringFormat(
          "%s-m%05llu", doc.id.c_str(), static_cast<unsigned long long>(index));
      auto model_doc = context.doc_store->Get(kMmlibModelCollection, model_id);
      if (model_doc.ok()) {
        for (const char* field : {"weights_blob", "code_blob"}) {
          auto blob = model_doc.ValueOrDie().GetString(field);
          if (!blob.ok()) continue;
          MMM_RETURN_NOT_OK(
              DeleteArtifactBlob(context, blob.ValueOrDie(), report));
        }
        MMM_RETURN_NOT_OK(
            context.doc_store->Remove(kMmlibModelCollection, model_id));
      }
    }
  }
  MMM_RETURN_NOT_OK(context.doc_store->Remove(kSetCollection, doc.id));
  ++report->sets_deleted;
  report->deleted_set_ids.push_back(doc.id);
  return Status::OK();
}

/// Collects `set_id` and (transitively) every dependent set, dependents
/// first so deletion never leaves a dangling base link.
void CollectCascade(const std::map<std::string, SetDocument>& by_id,
                    const std::string& set_id,
                    std::vector<std::string>* ordered,
                    std::set<std::string>* visited) {
  if (visited->contains(set_id)) return;
  visited->insert(set_id);
  for (const auto& [id, doc] : by_id) {
    if (doc.base_set_id == set_id && doc.kind != "full") {
      CollectCascade(by_id, id, ordered, visited);
    }
  }
  ordered->push_back(set_id);
}

}  // namespace

Result<DeleteReport> DeleteSet(const StoreContext& context,
                               const std::string& set_id,
                               const DeleteOptions& options) {
  MMM_RETURN_NOT_OK(context.Validate());
  MMM_ASSIGN_OR_RETURN(auto by_id, LoadAllSetDocs(context));
  if (!by_id.contains(set_id)) {
    return Status::NotFound("no set '", set_id, "'");
  }
  // Dependents are sets that cannot be recovered without this one: deltas
  // and provenance records. Full snapshots that merely record lineage are
  // unaffected.
  std::vector<std::string> dependents;
  for (const auto& [id, doc] : by_id) {
    if (doc.base_set_id == set_id && doc.kind != "full") {
      dependents.push_back(id);
    }
  }
  if (!dependents.empty() && !options.cascade) {
    return Status::InvalidArgument("set ", set_id, " has ", dependents.size(),
                                   " dependent set(s), e.g. ", dependents[0],
                                   "; pass cascade to delete them too");
  }

  DeleteReport report;
  std::vector<std::string> ordered;
  std::set<std::string> visited;
  CollectCascade(by_id, set_id, &ordered, &visited);
  for (const std::string& id : ordered) {
    MMM_RETURN_NOT_OK(DeleteOne(context, by_id.at(id), &report));
  }
  MMM_RETURN_NOT_OK(SweepCasChunks(context, &report));
  return report;
}

Result<DeleteReport> RetainOnly(const StoreContext& context,
                                const std::vector<std::string>& keep_set_ids) {
  MMM_RETURN_NOT_OK(context.Validate());
  MMM_ASSIGN_OR_RETURN(auto by_id, LoadAllSetDocs(context));

  // Lineage closure of the keep list.
  std::set<std::string> keep;
  for (const std::string& id : keep_set_ids) {
    if (!by_id.contains(id)) {
      return Status::NotFound("cannot retain unknown set '", id, "'");
    }
    std::string current = id;
    uint64_t budget = by_id.size() + 1;
    while (!current.empty() && by_id.contains(current)) {
      if (budget-- == 0) {
        return Status::Corruption("lineage of ", id, " does not terminate");
      }
      if (!keep.insert(current).second) break;  // already covered
      current = by_id.at(current).base_set_id;
    }
  }

  DeleteReport report;
  for (const auto& [id, doc] : by_id) {
    if (keep.contains(id)) continue;
    MMM_RETURN_NOT_OK(DeleteOne(context, doc, &report));
  }
  MMM_RETURN_NOT_OK(SweepCasChunks(context, &report));
  return report;
}

Result<OrphanReport> FindOrphanBlobs(const StoreContext& context) {
  MMM_RETURN_NOT_OK(context.Validate());
  std::set<std::string> live;
  MMM_ASSIGN_OR_RETURN(auto by_id, LoadAllSetDocs(context));
  for (const auto& [id, doc] : by_id) {
    for (const std::string& blob :
         {doc.arch_blob, doc.param_blob, doc.hash_blob, doc.diff_blob,
          doc.prov_blob}) {
      if (!blob.empty()) live.insert(blob);
    }
  }
  if (context.doc_store->Count(kMmlibModelCollection) > 0) {
    MMM_ASSIGN_OR_RETURN(std::vector<JsonValue> model_docs,
                         context.doc_store->All(kMmlibModelCollection));
    for (const JsonValue& doc : model_docs) {
      for (const char* field : {"weights_blob", "code_blob"}) {
        auto blob = doc.GetString(field);
        if (blob.ok()) live.insert(blob.ValueOrDie());
      }
    }
  }
  if (context.journal != nullptr) {
    for (const std::string& blob : context.journal->PendingBlobs()) {
      live.insert(blob);
    }
  }

  OrphanReport report;
  MMM_ASSIGN_OR_RETURN(std::vector<std::string> blobs,
                       context.file_store->List());
  for (const std::string& blob : blobs) {
    if (live.contains(blob)) continue;
    // Content-addressed packs are referenced through the CAS index, not
    // documents: a pack is live while the index tracks it (it holds a chunk
    // some manifest in the store points at — including a manifest that is
    // itself orphaned; deleting that manifest drops the refs, and the CAS
    // sweep then reclaims the pack). Only untracked packs are orphans.
    if (context.cas != nullptr && IsPackBlobName(blob) &&
        context.cas->TracksPack(blob)) {
      continue;
    }
    report.orphan_blobs.push_back(blob);
    auto size = context.file_store->Size(blob);
    if (size.ok()) report.orphan_bytes += size.ValueOrDie();
  }
  return report;
}

Result<DeleteReport> SweepOrphanBlobs(const StoreContext& context) {
  MMM_ASSIGN_OR_RETURN(OrphanReport orphans, FindOrphanBlobs(context));
  DeleteReport report;
  for (const std::string& blob : orphans.orphan_blobs) {
    if (context.cas != nullptr) {
      // Pack and legacy chunk blobs belong to the CAS sweeper (the index
      // must stay in step with the store); an orphaned manifest must drop
      // its chunk refs before it goes. The sweeps below reclaim both and do
      // their own byte accounting, so pack sizes are not pre-counted here.
      if (IsPackBlobName(blob) || IsChunkBlobName(blob)) continue;
      context.cas->OnManifestDeleted(blob);
    }
    auto size = context.file_store->Size(blob);
    if (size.ok()) report.bytes_reclaimed += size.ValueOrDie();
    MMM_RETURN_NOT_OK(context.file_store->Delete(blob));
    ++report.blobs_deleted;
  }
  MMM_RETURN_NOT_OK(SweepCasChunks(context, &report));
  if (context.cas != nullptr) {
    // Packs the index never tracked (an aborted commit's leftovers) are
    // invisible to the refcount sweep; reclaim them here.
    MMM_ASSIGN_OR_RETURN(CasStore::SweepReport untracked,
                         context.cas->SweepUntrackedPacks());
    report.blobs_deleted += untracked.packs_deleted;
    report.bytes_reclaimed += untracked.bytes_swept;
  }
  return report;
}

}  // namespace mmm
