#include "serve/service.h"

#include <algorithm>

#include "common/clock.h"
#include "core/inspect.h"
#include "core/set_codec.h"

namespace mmm {

namespace {

/// Raw-byte map key of a digest.
std::string RawKey(const Sha256Digest& hash) {
  return std::string(reinterpret_cast<const char*>(hash.bytes.data()),
                     hash.bytes.size());
}

uint64_t WallNanos() { return WallClock::NowNanos(); }

}  // namespace

std::vector<bool> ModelSetService::CacheAdapter::GetLayers(
    std::span<const Sha256Digest> hashes, std::span<Tensor> out) {
  return service_->layer_cache_.Get(hashes, out);
}

void ModelSetService::CacheAdapter::PutLayers(
    std::span<const Sha256Digest> hashes, std::span<const Tensor> values) {
  service_->layer_cache_.Put(hashes, values);
}

std::shared_ptr<const SetMeta> ModelSetService::CacheAdapter::GetSetMeta(
    const std::string& set_id) {
  MutexLock lock(service_->meta_mu_);
  auto it = service_->meta_index_.find(set_id);
  return it == service_->meta_index_.end() ? nullptr : it->second;
}

void ModelSetService::CacheAdapter::PutSetMeta(
    const std::string& set_id, std::shared_ptr<const SetMeta> meta) {
  MutexLock lock(service_->meta_mu_);
  service_->meta_index_[set_id] = std::move(meta);
}

ModelSetService::ModelSetService(ModelSetManager* manager,
                                 ModelSetServiceOptions options)
    : manager_(manager),
      options_(options),
      layer_cache_(options.cache_capacity_bytes),
      adapter_(this),
      executor_(std::make_unique<Executor>(
          options.workers == 0 ? 1 : options.workers)) {}

ModelSetService::~ModelSetService() = default;

Result<ModelSet> ModelSetService::Recover(const std::string& set_id,
                                          ServeResult* result) {
  uint64_t start = WallNanos();
  Result<ModelSet> recovered = [&]() -> Result<ModelSet> {
    ReaderMutexLock lock(gate_);
    return RecoverLocked(set_id, result);
  }();
  if (result != nullptr) {
    result->set_id = set_id;
    result->status = recovered.status();
    result->wall_nanos = WallNanos() - start;
  }
  return recovered;
}

Result<ModelSet> ModelSetService::RecoverLocked(const std::string& set_id,
                                                ServeResult* result) {
  RecoverStats stats;
  CacheRequestStats cache_stats;
  Result<ModelSet> recovered = [&]() -> Result<ModelSet> {
    if (!options_.cache_enabled) {
      // Straight through the manager — bit-identical, byte-for-byte, to a
      // direct Recover call (no extra document fetch, no cache probes).
      return manager_->Recover(set_id, &stats);
    }
    MMM_ASSIGN_OR_RETURN(SetDocument doc,
                         FetchSetDocument(manager_->context(), set_id));
    if (doc.approach == "update") {
      return manager_->update_approach()->RecoverCached(set_id, &adapter_,
                                                        &stats, &cache_stats);
    }
    return manager_->Recover(set_id, &stats);
  }();
  if (result != nullptr) {
    result->modeled_store_nanos = stats.simulated_store_nanos;
    result->sets_walked = stats.sets_recovered;
    result->cache = cache_stats;
  }
  return recovered;
}

std::vector<ServeResult> ModelSetService::Replay(
    const std::vector<std::string>& set_ids, std::vector<ModelSet>* recovered) {
  MutexLock replay_lock(replay_mu_);
  std::vector<ServeResult> results(set_ids.size());
  if (recovered != nullptr) {
    recovered->assign(set_ids.size(), ModelSet{});
  }
  executor_->ParallelFor(set_ids.size(), [&](size_t i) {
    Result<ModelSet> r = Recover(set_ids[i], &results[i]);
    if (recovered != nullptr && r.ok()) {
      (*recovered)[i] = std::move(r).ValueOrDie();
    }
  });
  return results;
}

Status ModelSetService::PinSet(const std::string& set_id) {
  WriterMutexLock lock(gate_);
  if (!options_.cache_enabled) {
    return Status::InvalidArgument("cannot pin: the cache is disabled");
  }
  {
    MutexLock pin_lock(pin_mu_);
    if (pinned_sets_.count(set_id) != 0) {
      return Status::AlreadyExists("set ", set_id, " is already pinned");
    }
  }
  MMM_ASSIGN_OR_RETURN(SetDocument doc,
                       FetchSetDocument(manager_->context(), set_id));
  if (doc.approach != "update") {
    return Status::InvalidArgument(
        "only update-approach sets are cacheable; set ", set_id,
        " was saved by '", doc.approach, "'");
  }
  // Materialize through the cache; this also records the set's hash table
  // in the metadata memo, aligned m-major with set.models.
  MMM_ASSIGN_OR_RETURN(ModelSet set, manager_->update_approach()->RecoverCached(
                                         set_id, &adapter_, nullptr, nullptr));
  std::vector<Sha256Digest> hashes = KnownHashesOf(set_id);
  size_t layers_per_model = set.models.empty() ? 0 : set.models[0].size();
  if (hashes.size() != set.models.size() * layers_per_model) {
    return Status::Internal("metadata memo out of sync for set ", set_id);
  }

  MutexLock pin_lock(pin_mu_);
  for (size_t i = 0; i < hashes.size(); ++i) {
    uint64_t& refs = pinned_hash_refs_[RawKey(hashes[i])];
    if (refs == 0) {
      // Pin in place if resident; otherwise admit pre-pinned so the entry
      // can never lose a race against eviction.
      bool pinned = layer_cache_.Pin(hashes[i]);
      if (!pinned) {
        const Tensor& value =
            set.models[i / layers_per_model][i % layers_per_model].second;
        pinned = layer_cache_.Put({&hashes[i], 1}, {&value, 1},
                                  /*pinned=*/true) == 1;
      }
      if (!pinned) {
        // Roll back every reference taken so far (a set may repeat a hash
        // when models share identical layer bytes).
        pinned_hash_refs_.erase(RawKey(hashes[i]));
        for (size_t j = 0; j < i; ++j) {
          auto ref = pinned_hash_refs_.find(RawKey(hashes[j]));
          if (ref != pinned_hash_refs_.end() && --ref->second == 0) {
            pinned_hash_refs_.erase(ref);
            layer_cache_.Unpin(hashes[j]);
          }
        }
        return Status::InvalidArgument(
            "cannot pin set ", set_id,
            ": the cache cannot hold all its layers (capacity ",
            layer_cache_.capacity_bytes(), " bytes)");
      }
    }
    refs += 1;
  }
  pinned_sets_[set_id] = std::move(hashes);
  return Status::OK();
}

Status ModelSetService::UnpinSet(const std::string& set_id) {
  MutexLock pin_lock(pin_mu_);
  auto it = pinned_sets_.find(set_id);
  if (it == pinned_sets_.end()) {
    return Status::NotFound("set ", set_id, " is not pinned");
  }
  for (const Sha256Digest& hash : it->second) {
    auto ref = pinned_hash_refs_.find(RawKey(hash));
    if (ref == pinned_hash_refs_.end()) continue;
    if (--ref->second == 0) {
      pinned_hash_refs_.erase(ref);
      layer_cache_.Unpin(hash);
    }
  }
  pinned_sets_.erase(it);
  return Status::OK();
}

std::string ModelSetService::PinGuardOwner(const std::string& set_id) {
  std::vector<std::string> pinned;
  {
    MutexLock pin_lock(pin_mu_);
    for (const auto& [id, hashes] : pinned_sets_) pinned.push_back(id);
  }
  // The walk is local instead of mmm::Lineage because lineage may be
  // legitimately pruned: a full set keeps its base_set_id as history after
  // the base is deleted (full sets are not cascade dependents) or rebased
  // away, and the guard must stop at the first missing document rather than
  // fail the whole operation with NotFound.
  for (const std::string& pinned_id : pinned) {
    std::string current = pinned_id;
    uint64_t budget = manager_->context().doc_store->Count(kSetCollection) + 1;
    while (!current.empty() && budget-- > 0) {
      if (current == set_id) return pinned_id;
      Result<SetDocument> doc = FetchSetDocument(manager_->context(), current);
      if (!doc.ok()) break;  // pruned lineage: nothing upstream to protect
      current = doc.ValueOrDie().base_set_id;
    }
  }
  return "";
}

Result<bool> ModelSetService::PinProtects(const std::string& set_id) {
  ReaderMutexLock lock(gate_);
  return !PinGuardOwner(set_id).empty();
}

Result<DeleteReport> ModelSetService::DeleteSet(const std::string& set_id,
                                                const DeleteOptions& options) {
  WriterMutexLock lock(gate_);
  // Pin-fail: refuse to delete anything a pinned set needs for recovery —
  // the pinned set itself, or any ancestor its recorded base links reach.
  const std::string guard = PinGuardOwner(set_id);
  if (!guard.empty()) {
    return Status::InvalidArgument(
        "cannot delete set ", set_id, ": pinned set ", guard,
        guard == set_id ? " is pinned" : " needs it for recovery");
  }
  MMM_ASSIGN_OR_RETURN(DeleteReport report,
                       mmm::DeleteSet(manager_->context(), set_id, options));
  InvalidateDeleted(report.deleted_set_ids);
  return report;
}

Result<DeleteReport> ModelSetService::RetainOnly(
    const std::vector<std::string>& keep_set_ids) {
  WriterMutexLock lock(gate_);
  // Pinned sets are implicitly kept (RetainOnly itself keeps their whole
  // recovery lineage).
  std::vector<std::string> keep = keep_set_ids;
  {
    MutexLock pin_lock(pin_mu_);
    for (const auto& [id, hashes] : pinned_sets_) {
      if (std::find(keep.begin(), keep.end(), id) == keep.end()) {
        keep.push_back(id);
      }
    }
  }
  MMM_ASSIGN_OR_RETURN(DeleteReport report,
                       mmm::RetainOnly(manager_->context(), keep));
  InvalidateDeleted(report.deleted_set_ids);
  return report;
}

Result<CompactionReport> ModelSetService::CompactChains(
    const CompactionPolicy& policy) {
  WriterMutexLock lock(gate_);
  MMM_ASSIGN_OR_RETURN(CompactionReport report,
                       manager_->CompactChains(policy));
  // Rewritten sets changed on disk (kind/depth metadata, retired blobs), so
  // their cached per-set state is stale. Layer entries are keyed by content
  // hash and the bytes did not change, but InvalidateDeleted's conservative
  // sweep (drop meta + unpinned layers, spare pinned ones) is exactly the
  // coherence rule wanted here: the next recovery of a rewritten set
  // re-reads its document and repopulates.
  InvalidateDeleted(report.rewritten_set_ids);
  return report;
}

void ModelSetService::InvalidateDeleted(
    const std::vector<std::string>& deleted_set_ids) {
  for (const std::string& id : deleted_set_ids) {
    std::vector<Sha256Digest> hashes;
    {
      MutexLock lock(meta_mu_);
      auto it = meta_index_.find(id);
      if (it != meta_index_.end()) {
        hashes = it->second->hashes;
        meta_index_.erase(it);
      }
    }
    MutexLock pin_lock(pin_mu_);
    for (const Sha256Digest& hash : hashes) {
      // A layer shared with a pinned (surviving) set stays resident; the
      // rest of the collected set's layers are dropped. Deleted sets can
      // never be served again either way — every recovery re-fetches the
      // set document, and that fetch now fails.
      if (pinned_hash_refs_.count(RawKey(hash)) != 0) continue;
      layer_cache_.Invalidate(hash);
    }
  }
}

std::vector<Sha256Digest> ModelSetService::KnownHashesOf(
    const std::string& set_id) {
  MutexLock lock(meta_mu_);
  auto it = meta_index_.find(set_id);
  if (it == meta_index_.end()) return {};
  return it->second->hashes;
}

void ModelSetService::Drain() {
  // Taking the gate exclusively waits out every shared holder (in-flight
  // recoveries); releasing it immediately is the whole point — the caller
  // only wants the quiescent instant.
  WriterMutexLock lock(gate_);
}

ModelSetService::StatsSnapshot ModelSetService::Snapshot() const {
  StatsSnapshot snapshot;
  snapshot.cache = layer_cache_.stats();
  snapshot.pinned_sets = PinnedSets();
  snapshot.workers = options_.workers;
  snapshot.cache_enabled = options_.cache_enabled;
  return snapshot;
}

void ModelSetService::InvalidateSets(const std::vector<std::string>& set_ids) {
  WriterMutexLock lock(gate_);
  InvalidateDeleted(set_ids);
}

std::vector<std::string> ModelSetService::PinnedSets() const {
  MutexLock lock(pin_mu_);
  std::vector<std::string> ids;
  ids.reserve(pinned_sets_.size());
  for (const auto& [id, hashes] : pinned_sets_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace mmm
