#include "core/update.h"

#include <functional>
#include <numeric>
#include <optional>

#include "cas/blob_io.h"
#include "core/set_codec.h"

namespace mmm {

UpdateApproach::UpdateApproach(StoreContext context, UpdateApproachOptions options)
    : context_(context), options_(options) {}

Result<SaveResult> UpdateApproach::SaveSnapshotWithHashes(
    const ModelSet& set, const std::string& base_set_id) {
  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // Per-layer hashing fans out across the pipeline's lanes (one work item
  // per model), then the snapshot blobs, hash blob, and set document all
  // commit through one batch.
  HashTable hash_table = ComputeHashTable(set, context_.executor);

  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  doc.base_set_id = base_set_id;
  MMM_RETURN_NOT_OK(StageFullSnapshot(context_, &batch, result.set_id, set, &doc));

  // Persist the per-layer hashes so the *next* save can detect changes
  // without loading this set's parameters (paper §3.3 step 2).
  doc.hash_blob = result.set_id + ".hashes.bin";
  const HashTable* hashes_ptr = &hash_table;
  const Compression compression = context_.blob_compression;
  batch.PutBlobDeferred(
      doc.hash_blob, [hashes_ptr, compression]() -> Result<std::vector<uint8_t>> {
        std::vector<uint8_t> hashes = EncodeHashTable(*hashes_ptr);
        if (compression != Compression::kNone) {
          hashes = CompressBlob(compression, hashes);
        }
        return hashes;
      });
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  return result;
}

Result<SaveResult> UpdateApproach::SaveInitial(const ModelSet& set) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  return SaveSnapshotWithHashes(set, /*base_set_id=*/"");
}

Result<SaveResult> UpdateApproach::SaveDerived(const ModelSet& set,
                                               const ModelSetUpdateInfo& update) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  if (update.base_set_id.empty()) {
    return Status::InvalidArgument("update approach needs a base_set_id");
  }
  MMM_ASSIGN_OR_RETURN(SetDocument base_doc,
                       FetchSetDocument(context_, update.base_set_id));
  if (base_doc.approach != Name()) {
    return Status::InvalidArgument("base set ", update.base_set_id,
                                   " was saved by '", base_doc.approach,
                                   "', not update");
  }
  if (base_doc.num_models != set.models.size()) {
    return Status::InvalidArgument("set has ", set.models.size(),
                                   " models but base has ", base_doc.num_models);
  }
  if (base_doc.hash_blob.empty()) {
    return Status::Corruption("base set ", update.base_set_id,
                              " is missing its hash blob");
  }

  // Periodic full snapshots bound the recovery recursion depth.
  if (base_doc.chain_depth + 1 >= options_.snapshot_interval) {
    MMM_ASSIGN_OR_RETURN(SaveResult result,
                         SaveSnapshotWithHashes(set, update.base_set_id));
    return result;
  }

  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // Step 1 (§3.3): reference to the base set and metadata — the SetDocument.
  // Step 2: hash every model's layers, fanned out across the pipeline lanes.
  HashTable current_hashes = ComputeHashTable(set, context_.executor);
  // Step 3: identify changed parameters against the base set's hash blob.
  MMM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> base_hash_bytes,
      CasReadBlobDecompressed(context_.file_store, base_doc.hash_blob,
                              context_.stream_window_bytes));
  MMM_ASSIGN_OR_RETURN(HashTable base_hashes, DecodeHashTable(base_hash_bytes));
  MMM_ASSIGN_OR_RETURN(std::vector<DiffEntry> entries,
                       DiffHashTables(base_hashes, current_hashes));
  // Step 4: concatenate the changed parameters into one binary blob.
  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  doc.kind = "delta";
  doc.base_set_id = update.base_set_id;
  doc.family = base_doc.family;
  doc.num_models = set.models.size();
  doc.chain_depth = base_doc.chain_depth + 1;
  doc.diff_blob = result.set_id + ".diff.bin";
  doc.hash_blob = result.set_id + ".hashes.bin";
  if (options_.diff_encoding == DiffEncoding::kXorBase &&
      update.base_set == nullptr) {
    return Status::InvalidArgument(
        "xor delta encoding needs ModelSetUpdateInfo::base_set");
  }
  // Diff encoding and hash encoding (plus compression) are independent work
  // items; the batch runs them on separate lanes overlapping the writes.
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  const Compression compression = context_.blob_compression;
  const DiffEncoding diff_encoding = options_.diff_encoding;
  const ModelSet* set_ptr = &set;
  const ModelSet* base_set_ptr = update.base_set;
  const std::vector<DiffEntry>* entries_ptr = &entries;
  batch.PutBlobDeferred(
      doc.diff_blob,
      [set_ptr, entries_ptr, diff_encoding, base_set_ptr,
       compression]() -> Result<std::vector<uint8_t>> {
        std::vector<uint8_t> diff =
            EncodeDiffBlob(*set_ptr, *entries_ptr, diff_encoding, base_set_ptr);
        if (compression != Compression::kNone) {
          diff = CompressBlob(compression, diff);
        }
        return diff;
      });
  const HashTable* hashes_ptr = &current_hashes;
  batch.PutBlobDeferred(
      doc.hash_blob, [hashes_ptr, compression]() -> Result<std::vector<uint8_t>> {
        std::vector<uint8_t> hashes = EncodeHashTable(*hashes_ptr);
        if (compression != Compression::kNone) {
          hashes = CompressBlob(compression, hashes);
        }
        return hashes;
      });
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  result.chain_depth = doc.chain_depth;
  return result;
}

namespace {

/// Reads and decodes a set's stored per-layer hash table.
Result<HashTable> ReadStoredHashTable(const StoreContext& context,
                                      const SetDocument& doc) {
  if (doc.hash_blob.empty()) {
    return Status::Corruption("set ", doc.id, " is missing its hash blob");
  }
  if (context.streaming_recovery) {
    MMM_ASSIGN_OR_RETURN(
        std::vector<uint8_t> bytes,
        CasReadBlobDecompressed(context.file_store, doc.hash_blob,
                                context.stream_window_bytes));
    return DecodeHashTable(bytes);
  }
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> stored,
                       CasReadBlob(context.file_store, doc.hash_blob));
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, DecompressBlob(stored));
  return DecodeHashTable(bytes);
}

/// Reads and decodes `doc`'s diff blob (CRC-checked) against `spec`. Diff
/// blobs are decoded whole (entries reference arbitrary positions), but with
/// streaming recovery on the *stored-side* intermediate — the
/// compressed/chunked bytes — never materializes.
Result<DecodedDiff> ReadDiffBlob(const StoreContext& context,
                                 const SetDocument& doc,
                                 const ArchitectureSpec& spec) {
  std::vector<uint8_t> diff_bytes;
  if (context.streaming_recovery) {
    MMM_ASSIGN_OR_RETURN(diff_bytes, CasReadBlobDecompressed(
                                         context.file_store, doc.diff_blob,
                                         context.stream_window_bytes));
  } else {
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> stored_diff,
                         CasReadBlob(context.file_store, doc.diff_blob));
    MMM_ASSIGN_OR_RETURN(diff_bytes, DecompressBlob(stored_diff));
  }
  return DecodeDiffBlob(spec, diff_bytes);
}

}  // namespace

Result<ModelSet> UpdateApproach::Recover(const std::string& set_id,
                                         RecoverStats* stats) {
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not update");
  }
  // The target's recorded chain depth bounds the walk: a valid chain holds
  // chain_depth + 1 documents down to its full snapshot. Sizing the budget
  // from the whole collection would let a corrupted base-pointer cycle walk
  // every set of every approach in a mixed store before failing.
  uint64_t depth_budget = doc.chain_depth + 1;
  MMM_ASSIGN_OR_RETURN(ModelSet set, RecoverFromDoc(doc, stats, depth_budget));
  capture.FillRecover(stats);
  return set;
}

Result<std::vector<StateDict>> UpdateApproach::RecoverModels(
    const std::string& set_id, const std::vector<size_t>& indices,
    RecoverStats* stats) {
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);

  // Walk the chain down to the nearest full snapshot.
  std::vector<SetDocument> deltas;
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not update");
  }
  // Bounded by the target's recorded depth, not the collection size (see
  // Recover): a corrupted cycle fails after chain_depth + 1 hops.
  uint64_t budget = doc.chain_depth + 1;
  while (doc.kind == "delta") {
    if (budget-- == 0) {
      return Status::Corruption("update chain too deep (cycle?) at ", doc.id);
    }
    deltas.push_back(doc);
    MMM_ASSIGN_OR_RETURN(doc, FetchSetDocument(context_, doc.base_set_id));
    if (doc.approach != Name()) {
      return Status::InvalidArgument("base set ", doc.id, " was saved by '",
                                     doc.approach, "', not update");
    }
  }
  if (doc.kind != "full") {
    return Status::Corruption("update chain of ", set_id,
                              " does not end in a full snapshot");
  }
  MMM_RETURN_NOT_OK(CheckIndices(indices, deltas.empty()
                                              ? doc.num_models
                                              : deltas.front().num_models));
  MMM_ASSIGN_OR_RETURN(ArchitectureSpec spec, ReadSnapshotSpec(context_, doc));
  ParamLayout layout = LayoutOf(spec);

  // Newest-wins resolution per requested (model, param). XOR-encoded diff
  // entries compose: the accumulator gathers them until an absolute value
  // (a newer-than-root absolute diff entry, or the root snapshot) is found.
  std::map<size_t, std::vector<Tensor>> resolved;
  std::map<size_t, std::vector<bool>> have;
  std::map<std::pair<size_t, size_t>, Tensor> xor_acc;
  for (size_t index : indices) {
    if (!resolved.contains(index)) {
      resolved[index].resize(layout.size());
      have[index].assign(layout.size(), false);
    }
  }
  size_t missing = have.size() * layout.size();

  for (const SetDocument& delta : deltas) {
    if (stats != nullptr) stats->sets_recovered += 1;
    if (missing == 0) continue;  // still count the metadata walk
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> stored,
                         CasReadBlob(context_.file_store, delta.diff_blob));
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> diff_bytes,
                         DecompressBlob(stored));
    MMM_ASSIGN_OR_RETURN(DecodedDiff diff, DecodeDiffBlob(spec, diff_bytes));
    for (size_t i = 0; i < diff.entries.size(); ++i) {
      const DiffEntry& entry = diff.entries[i];
      auto it = have.find(entry.model_index);
      if (it == have.end() || entry.param_index >= layout.size() ||
          it->second[entry.param_index]) {
        continue;
      }
      if (diff.encoding == DiffEncoding::kXorBase) {
        std::pair<size_t, size_t> key{entry.model_index, entry.param_index};
        auto acc_it = xor_acc.find(key);
        if (acc_it == xor_acc.end()) {
          xor_acc.emplace(key, std::move(diff.tensors[i]));
        } else {
          acc_it->second = XorTensors(acc_it->second, diff.tensors[i]);
        }
        continue;  // unresolved until an absolute value is reached
      }
      Tensor value = std::move(diff.tensors[i]);
      auto acc_it = xor_acc.find({entry.model_index, entry.param_index});
      if (acc_it != xor_acc.end()) {
        value = XorTensors(value, acc_it->second);
      }
      it->second[entry.param_index] = true;
      resolved[entry.model_index][entry.param_index] = std::move(value);
      --missing;
    }
  }

  // Fill whatever is still unresolved from the root snapshot.
  if (stats != nullptr) stats->sets_recovered += 1;
  if (missing > 0) {
    std::vector<size_t> root_models;
    for (const auto& [model, flags] : have) {
      for (bool got : flags) {
        if (!got) {
          root_models.push_back(model);
          break;
        }
      }
    }
    MMM_ASSIGN_OR_RETURN(std::vector<StateDict> root_states,
                         ReadModelsFromSnapshot(context_, doc, root_models));
    for (size_t r = 0; r < root_models.size(); ++r) {
      size_t model = root_models[r];
      for (size_t p = 0; p < layout.size(); ++p) {
        if (!have[model][p]) {
          Tensor value = std::move(root_states[r][p].second);
          auto acc_it = xor_acc.find({model, p});
          if (acc_it != xor_acc.end()) {
            value = XorTensors(value, acc_it->second);
          }
          resolved[model][p] = std::move(value);
          have[model][p] = true;
        }
      }
    }
  }

  std::vector<StateDict> out;
  out.reserve(indices.size());
  for (size_t index : indices) {
    StateDict state;
    state.reserve(layout.size());
    for (size_t p = 0; p < layout.size(); ++p) {
      state.emplace_back(layout[p].first, resolved[index][p]);
    }
    out.push_back(std::move(state));
  }
  capture.FillRecover(stats);
  return out;
}

Result<ModelSet> UpdateApproach::RecoverInternal(const std::string& set_id,
                                                 RecoverStats* stats,
                                                 uint64_t depth_budget) {
  if (depth_budget == 0) {
    return Status::Corruption("update recovery chain too deep (cycle?) at ",
                              set_id);
  }
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not update");
  }
  return RecoverFromDoc(doc, stats, depth_budget);
}

Result<ModelSet> UpdateApproach::RecoverFromDoc(const SetDocument& doc,
                                                RecoverStats* stats,
                                                uint64_t depth_budget) {
  if (stats != nullptr) stats->sets_recovered += 1;

  if (doc.kind == "full") {
    return ReadFullSnapshot(context_, doc);
  }
  if (doc.kind != "delta") {
    return Status::Corruption("set ", doc.id, " has unexpected kind '",
                              doc.kind, "'");
  }
  // Recursive recovery: materialize the base set, then apply the diffs.
  MMM_ASSIGN_OR_RETURN(
      ModelSet set, RecoverInternal(doc.base_set_id, stats, depth_budget - 1));
  if (set.models.size() != doc.num_models) {
    return Status::Corruption("base set size ", set.models.size(),
                              " != derived size ", doc.num_models);
  }
  MMM_RETURN_NOT_OK(ApplyDelta(doc, &set));
  return set;
}

Status UpdateApproach::ApplyDelta(const SetDocument& doc, ModelSet* set) {
  MMM_ASSIGN_OR_RETURN(DecodedDiff diff, ReadDiffBlob(context_, doc, set->spec));
  for (size_t i = 0; i < diff.entries.size(); ++i) {
    const DiffEntry& entry = diff.entries[i];
    if (entry.model_index >= set->models.size() ||
        entry.param_index >= set->models[entry.model_index].size()) {
      return Status::Corruption("diff entry out of range in set ", doc.id);
    }
    Tensor& target = set->models[entry.model_index][entry.param_index].second;
    if (diff.encoding == DiffEncoding::kXorBase) {
      if (diff.tensors[i].shape() != target.shape()) {
        return Status::Corruption("xor diff shape mismatch in set ", doc.id);
      }
      target = XorTensors(target, diff.tensors[i]);
    } else {
      target = std::move(diff.tensors[i]);
    }
  }
  return Status::OK();
}

Result<ModelSet> UpdateApproach::RecoverCached(const std::string& set_id,
                                               RecoveryCache* cache,
                                               RecoverStats* stats,
                                               CacheRequestStats* cache_stats) {
  if (cache == nullptr) return Recover(set_id, stats);
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  // The set document is always fetched live. The document store stays the
  // single root of trust, so recovering a deleted set fails right here no
  // matter what the cache still holds — a cache hit can never resurrect a
  // collected set.
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not update");
  }
  CacheRequestStats local;
  MMM_ASSIGN_OR_RETURN(ModelSet set,
                       RecoverCachedFromDoc(doc, cache, stats, &local));
  if (cache_stats != nullptr) *cache_stats += local;
  capture.FillRecover(stats);
  return set;
}

Result<ModelSet> UpdateApproach::RecoverCachedFromDoc(
    const SetDocument& doc, RecoveryCache* cache, RecoverStats* stats,
    CacheRequestStats* cache_stats) {
  // The chain from the target down to its full snapshot, newest first,
  // fetched lazily: one fetch per level. The budget comes from the target's
  // recorded depth, exactly as in Recover, so a corrupted base-pointer cycle
  // fails after chain_depth + 1 fetches.
  const uint64_t depth_budget = doc.chain_depth + 1;
  std::vector<SetDocument> chain{doc};
  auto fetch_next_level = [&]() -> Status {
    if (chain.size() >= depth_budget) {
      return Status::Corruption("update recovery chain too deep (cycle?) at ",
                                chain.back().base_set_id);
    }
    MMM_ASSIGN_OR_RETURN(SetDocument base,
                         FetchSetDocument(context_, chain.back().base_set_id));
    if (base.approach != Name()) {
      return Status::InvalidArgument("set ", base.id, " was saved by '",
                                     base.approach, "', not update");
    }
    chain.push_back(std::move(base));
    return Status::OK();
  };

  // Step 1: resolve the set's per-layer content hashes and architecture,
  // memoized so a hot set costs no hash-blob or chain-walk reads. The
  // architecture lives with the chain's full snapshot, so a memo miss walks
  // the documents down to it; the resolution walk below reuses them.
  std::shared_ptr<const SetMeta> meta = cache->GetSetMeta(doc.id);
  const bool meta_hit = meta != nullptr;
  if (meta_hit) {
    cache_stats->meta_hits += 1;
  } else {
    cache_stats->meta_misses += 1;
    auto fresh = std::make_shared<SetMeta>();
    MMM_ASSIGN_OR_RETURN(fresh->hashes, ReadStoredHashTable(context_, doc));
    while (chain.back().kind == "delta") MMM_RETURN_NOT_OK(fetch_next_level());
    if (chain.back().kind != "full") {
      return Status::Corruption("update chain of ", doc.id,
                                " does not end in a full snapshot");
    }
    MMM_ASSIGN_OR_RETURN(fresh->spec, ReadSnapshotSpec(context_, chain.back()));
    meta = std::move(fresh);
  }
  const HashTable& hashes = meta->hashes;
  const ParamLayout layout = LayoutOf(meta->spec);
  if (hashes.size() != doc.num_models) {
    return Status::Corruption("hash table of ", doc.id, " covers ",
                              hashes.size(), " models, document says ",
                              doc.num_models);
  }
  for (const auto& row : hashes) {
    if (row.size() != layout.size()) {
      return Status::Corruption("hash table of ", doc.id,
                                " disagrees with the parameter layout");
    }
  }

  // Step 2: probe each layer of the requested set once, by content hash.
  // Layers shared with any set served before (its base, a sibling) hit no
  // matter which set brought them in. Slot m * num_params + p.
  const size_t num_params = layout.size();
  const size_t num_slots = hashes.size() * num_params;
  std::vector<std::shared_ptr<const Tensor>> layers(num_slots);
  size_t missing = 0;
  for (size_t m = 0; m < hashes.size(); ++m) {
    for (size_t p = 0; p < num_params; ++p) {
      layers[m * num_params + p] = cache->GetLayer(hashes[m][p]);
      if (layers[m * num_params + p] != nullptr) {
        cache_stats->layer_hits += 1;
      } else {
        cache_stats->layer_misses += 1;
        missing += 1;
      }
    }
  }
  if (stats != nullptr) stats->sets_recovered += 1;
  if (missing == 0) cache_stats->sets_from_cache += 1;

  // Step 3: resolve only the misses, walking the chain newest-first and
  // stopping at the first level that leaves nothing unresolved. XOR diff
  // entries accumulate until an absolute value (a newer absolute diff
  // entry, or the full snapshot) is found, as in RecoverModels.
  std::vector<bool> fetched(num_slots, false);
  std::vector<std::optional<Tensor>> xor_acc(num_slots);
  auto resolve = [&](size_t slot, Tensor value) {
    if (xor_acc[slot].has_value()) {
      value = XorTensors(value, *xor_acc[slot]);
      xor_acc[slot].reset();
    }
    layers[slot] = std::make_shared<const Tensor>(std::move(value));
    fetched[slot] = true;
    missing -= 1;
  };
  for (size_t i = 0; missing > 0; ++i) {
    if (i == chain.size()) MMM_RETURN_NOT_OK(fetch_next_level());
    const SetDocument& level = chain[i];
    if (i > 0 && stats != nullptr) stats->sets_recovered += 1;
    if (level.num_models != doc.num_models) {
      return Status::Corruption("base set ", level.id, " holds ",
                                level.num_models, " models, derived set ",
                                doc.id, " holds ", doc.num_models);
    }
    if (level.kind == "full") {
      if (level.param_blob.empty()) {
        return Status::Corruption("set ", level.id, " is not a full snapshot");
      }
      MMM_ASSIGN_OR_RETURN(
          size_t streamed_models,
          ReadParamBlobLayers(
              context_, level.param_blob, meta->spec,
              [&](size_t m, size_t p, const std::string& /*key*/,
                  Tensor tensor) -> Status {
                if (m >= hashes.size() || p >= num_params) {
                  return Status::Corruption("set ", level.id,
                                            " streams layer (", m, ", ", p,
                                            ") outside the hash table of ",
                                            doc.id);
                }
                if (layers[m * num_params + p] == nullptr) {
                  resolve(m * num_params + p, std::move(tensor));
                }
                return Status::OK();
              }));
      if (streamed_models != level.num_models) {
        return Status::Corruption("set ", level.id, " holds ", streamed_models,
                                  " models, document says ", level.num_models);
      }
      break;
    }
    if (level.kind != "delta") {
      return Status::Corruption("set ", level.id, " has unexpected kind '",
                                level.kind, "'");
    }
    MMM_ASSIGN_OR_RETURN(DecodedDiff diff,
                         ReadDiffBlob(context_, level, meta->spec));
    // Backwards, so that within one absolute diff the last entry for a
    // layer wins, as when ApplyDelta applies them in order.
    for (size_t e = diff.entries.size(); e-- > 0;) {
      const DiffEntry& entry = diff.entries[e];
      if (entry.model_index >= hashes.size() || entry.param_index >= num_params) {
        return Status::Corruption("diff entry out of range in set ", level.id);
      }
      if (diff.encoding == DiffEncoding::kXorBase &&
          diff.tensors[e].shape() != layout[entry.param_index].second) {
        return Status::Corruption("xor diff shape mismatch in set ", level.id);
      }
      const size_t slot = entry.model_index * num_params + entry.param_index;
      if (layers[slot] != nullptr) continue;
      if (diff.encoding == DiffEncoding::kXorBase) {
        if (xor_acc[slot].has_value()) {
          *xor_acc[slot] = XorTensors(*xor_acc[slot], diff.tensors[e]);
        } else {
          xor_acc[slot] = std::move(diff.tensors[e]);
        }
        continue;  // unresolved until an absolute value is reached
      }
      resolve(slot, std::move(diff.tensors[e]));
    }
  }
  if (missing > 0) {
    return Status::Corruption("set ", doc.id, " left ", missing,
                              " layers unresolved");
  }

  // Step 4: verify-then-admit. Every blob a fetched layer came from has now
  // passed its CRC check, so the layers are offered under the requested
  // set's hashes only now: a corrupt blob can never leave an entry behind.
  // Ancestors' layers are not admitted under their own hashes.
  for (size_t slot = 0; slot < num_slots; ++slot) {
    if (fetched[slot]) {
      cache->PutLayer(hashes[slot / num_params][slot % num_params],
                      layers[slot]);
    }
  }
  if (!meta_hit) cache->PutSetMeta(doc.id, meta);

  // The content hash covers a tensor's bytes, not its shape: a zeroed
  // [48] bias and a zeroed [1, 48] weight share one entry. Each layer
  // therefore takes its shape from the layout, never from the entry.
  std::vector<size_t> numels(num_params);
  for (size_t p = 0; p < num_params; ++p) {
    numels[p] = std::accumulate(layout[p].second.begin(), layout[p].second.end(),
                                size_t{1}, std::multiplies<>());
  }
  ModelSet set;
  set.spec = meta->spec;
  set.models.resize(hashes.size());
  for (size_t m = 0; m < hashes.size(); ++m) {
    StateDict& state = set.models[m];
    state.reserve(num_params);
    for (size_t p = 0; p < num_params; ++p) {
      const Tensor& layer = *layers[m * num_params + p];
      if (layer.numel() != numels[p]) {
        return Status::Corruption("layer (", m, ", ", p, ") of ", doc.id,
                                  " does not match its content hash");
      }
      state.emplace_back(layout[p].first, Tensor(layout[p].second, layer.vec()));
    }
  }
  return set;
}

}  // namespace mmm
