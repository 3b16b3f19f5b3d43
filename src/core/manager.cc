#include "core/manager.h"

#include <algorithm>

namespace mmm {

std::string ApproachTypeName(ApproachType type) {
  switch (type) {
    case ApproachType::kMMlibBase:
      return "mmlib-base";
    case ApproachType::kBaseline:
      return "baseline";
    case ApproachType::kUpdate:
      return "update";
    case ApproachType::kProvenance:
      return "provenance";
  }
  return "?";
}

Result<ApproachType> ApproachTypeFromName(const std::string& name) {
  if (name == "mmlib-base") return ApproachType::kMMlibBase;
  if (name == "baseline") return ApproachType::kBaseline;
  if (name == "update") return ApproachType::kUpdate;
  if (name == "provenance") return ApproachType::kProvenance;
  return Status::InvalidArgument("unknown approach '", name, "'");
}

namespace {

/// One past the largest id counter among persisted sets (0 when empty).
/// Ids look like "set-000004-a1b2c3d4": the counter sits between the last
/// two dashes. Unparseable ids are skipped.
Result<uint64_t> MaxPersistedIdCounter(DocumentStore* doc_store) {
  uint64_t next = 0;
  if (doc_store->Count(kSetCollection) == 0) return next;
  MMM_ASSIGN_OR_RETURN(std::vector<JsonValue> docs,
                       doc_store->All(kSetCollection));
  for (const JsonValue& doc : docs) {
    auto id = doc.GetString("_id");
    if (!id.ok()) continue;
    size_t suffix = id.ValueOrDie().rfind('-');
    if (suffix == std::string::npos || suffix == 0) continue;
    size_t counter = id.ValueOrDie().rfind('-', suffix - 1);
    if (counter == std::string::npos) continue;
    const std::string field =
        id.ValueOrDie().substr(counter + 1, suffix - counter - 1);
    if (field.empty() ||
        field.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    next = std::max<uint64_t>(next,
                              std::strtoull(field.c_str(), nullptr, 10) + 1);
  }
  return next;
}

}  // namespace

Result<std::unique_ptr<ModelSetManager>> ModelSetManager::Open(Options options) {
  if (options.root_dir.empty()) {
    return Status::InvalidArgument("manager needs a root_dir");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();

  auto manager = std::unique_ptr<ModelSetManager>(new ModelSetManager());
  if (options.ids == nullptr) {
    manager->ids_ = std::make_unique<IdGenerator>(options.id_seed);
  }
  IdGenerator* ids =
      options.ids != nullptr ? options.ids : manager->ids_.get();
  manager->file_store_ = std::make_unique<FileStore>(
      env, options.root_dir + "/blobs", options.profile.file_store,
      &manager->sim_clock_);
  MMM_RETURN_NOT_OK(manager->file_store_->Open());
  MMM_RETURN_NOT_OK(env->CreateDirs(options.root_dir));
  manager->doc_store_ = std::make_unique<DocumentStore>(
      env, options.root_dir + "/docstore.wal", options.profile.document_store,
      &manager->sim_clock_);
  MMM_RETURN_NOT_OK(manager->doc_store_->Open());

  // Replay the commit journal before anything reads the stores: saves
  // interrupted mid-commit are rolled back (or, past their commit mark,
  // rolled forward), so the id counter below and every later query see only
  // consistent all-or-nothing sets.
  manager->journal_ = std::make_unique<CommitJournal>(
      env, options.root_dir + "/commit.journal");
  MMM_RETURN_NOT_OK(manager->journal_->Open());
  MMM_ASSIGN_OR_RETURN(
      manager->repair_report_,
      manager->journal_->Replay(manager->file_store_.get(),
                                manager->doc_store_.get()));

  // Open the content-addressed store after journal replay (its rebuild
  // must see only consistent commits) and before anything reads or writes
  // blobs. A store that ever ran with CAS re-enables it via its checkpoint
  // marker, so chunked blobs never meet CAS-blind GC.
  const std::string cas_index_path = options.root_dir + "/cas.index";
  bool cas_enabled = options.cas.enabled;
  if (!cas_enabled) {
    MMM_ASSIGN_OR_RETURN(cas_enabled, env->FileExists(cas_index_path));
  }
  if (cas_enabled) {
    options.cas.enabled = true;
    MMM_ASSIGN_OR_RETURN(
        manager->cas_,
        CasStore::Open(env, manager->file_store_.get(),
                       manager->journal_.get(), cas_index_path, options.cas));
  }

  // New ids must not collide with sets persisted by a previous session.
  // Deletions can leave the counters sparse (e.g. only "set-000004-…"
  // survives a retention sweep), so the document count is not enough: scan
  // the surviving ids and advance past the largest counter.
  MMM_ASSIGN_OR_RETURN(uint64_t max_counter,
                       MaxPersistedIdCounter(manager->doc_store_.get()));
  ids->AdvanceTo(max_counter);

  manager->executor_ =
      std::make_unique<Executor>(std::max<size_t>(1, options.pipeline.lanes));
  manager->context_ = StoreContext{manager->file_store_.get(),
                                   manager->doc_store_.get(),
                                   ids, &manager->sim_clock_,
                                   options.blob_compression,
                                   manager->executor_.get(), options.pipeline,
                                   manager->journal_.get(),
                                   manager->cas_.get(),
                                   options.stream_window_bytes};

  EnvironmentInfo environment = options.environment.has_value()
                                    ? *options.environment
                                    : EnvironmentInfo::Capture();
  manager->mmlib_base_ =
      std::make_unique<MMlibBaseApproach>(manager->context_, environment);
  manager->baseline_ = std::make_unique<BaselineApproach>(manager->context_);
  manager->update_ = std::make_unique<UpdateApproach>(manager->context_,
                                                      options.update_options);
  manager->provenance_ = std::make_unique<ProvenanceApproach>(
      manager->context_, options.resolver, environment,
      options.provenance_recover_options);
  manager->auto_compaction_ = options.auto_compaction;
  return manager;
}

ModelSetApproach* ModelSetManager::approach(ApproachType type) {
  switch (type) {
    case ApproachType::kMMlibBase:
      return mmlib_base_.get();
    case ApproachType::kBaseline:
      return baseline_.get();
    case ApproachType::kUpdate:
      return update_.get();
    case ApproachType::kProvenance:
      return provenance_.get();
  }
  return nullptr;
}

Result<SaveResult> ModelSetManager::SaveInitial(ApproachType type,
                                                const ModelSet& set) {
  return approach(type)->SaveInitial(set);
}

Result<SaveResult> ModelSetManager::SaveDerived(ApproachType type,
                                                const ModelSet& set,
                                                const ModelSetUpdateInfo& update) {
  MMM_ASSIGN_OR_RETURN(SaveResult result,
                       approach(type)->SaveDerived(set, update));
  // Opportunistic compaction: only once a save can actually have pushed a
  // chain past the bound — the pass itself re-scans and is a no-op when
  // every chain is already within it.
  if (auto_compaction_.has_value() &&
      result.chain_depth > auto_compaction_->max_chain_depth) {
    MMM_RETURN_NOT_OK(CompactChains(*auto_compaction_).status());
  }
  return result;
}

Result<CompactionReport> ModelSetManager::CompactChains(
    const CompactionPolicy& policy) {
  ChainCompactor compactor(
      context_, [this](const std::string& set_id) { return Recover(set_id); });
  return compactor.Compact(policy);
}

Result<ModelSet> ModelSetManager::Recover(const std::string& set_id,
                                          RecoverStats* stats) {
  MMM_ASSIGN_OR_RETURN(JsonValue doc,
                       doc_store_->Get(kSetCollection, set_id));
  MMM_ASSIGN_OR_RETURN(std::string approach_name, doc.GetString("approach"));
  MMM_ASSIGN_OR_RETURN(ApproachType type, ApproachTypeFromName(approach_name));
  return approach(type)->Recover(set_id, stats);
}

Result<std::vector<StateDict>> ModelSetManager::RecoverModels(
    const std::string& set_id, const std::vector<size_t>& indices,
    RecoverStats* stats) {
  MMM_ASSIGN_OR_RETURN(JsonValue doc,
                       doc_store_->Get(kSetCollection, set_id));
  MMM_ASSIGN_OR_RETURN(std::string approach_name, doc.GetString("approach"));
  MMM_ASSIGN_OR_RETURN(ApproachType type, ApproachTypeFromName(approach_name));
  return approach(type)->RecoverModels(set_id, indices, stats);
}

}  // namespace mmm
