#include "core/update.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>

#include "cas/blob_io.h"
#include "core/set_codec.h"
#include "serialize/binary_io.h"
#include "serialize/crc32.h"
#include "storage/range_planner.h"

namespace mmm {
namespace {

constexpr char kUpdateName[] = "update";

/// Reads and decodes a set's stored per-layer hash table.
Result<HashTable> ReadStoredHashTable(const StoreContext& context,
                                      const SetDocument& doc) {
  if (doc.hash_blob.empty()) {
    return Status::Corruption("set ", doc.id, " is missing its hash blob");
  }
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       CasReadBlobDecompressed(context.file_store, context.cas,
                                               doc.hash_blob));
  return DecodeHashTable(bytes, doc.num_models);
}

}  // namespace

UpdateApproach::UpdateApproach(StoreContext context, UpdateApproachOptions options)
    : ModelSetApproach(context), options_(options) {}

Result<SaveResult> UpdateApproach::SaveSnapshotWithHashes(
    const ModelSet& set, const std::string& base_set_id) {
  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // Per-layer hashing fans out across the pipeline's lanes (one work item
  // per lane-width batch of one layer; buffers hashed before are skipped),
  // then the snapshot blobs, hash blob, and set document all commit through
  // one batch.
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
  batch.PutBlobDeferred(
      doc.hash_blob,
      [hashes_ptr](BlobSink* sink) {
        return sink->Append(EncodeHashTable(*hashes_ptr));
      },
      context_.blob_compression);
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

  // Periodic full snapshots bound the chain a recovery walks.
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
  // A layer whose buffer an earlier save hashed while it was shared costs
  // a memo read.
  HashTable current_hashes = ComputeHashTable(set, context_.executor);
  // Step 3: identify changed parameters against the base set's hash blob.
  MMM_ASSIGN_OR_RETURN(HashTable base_hashes,
                       ReadStoredHashTable(context_, base_doc));
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
      [set_ptr, entries_ptr, diff_encoding, base_set_ptr](BlobSink* sink) {
        return sink->Append(EncodeDiffBlob(*set_ptr, *entries_ptr,
                                           diff_encoding, base_set_ptr));
      },
      compression);
  const HashTable* hashes_ptr = &current_hashes;
  batch.PutBlobDeferred(
      doc.hash_blob,
      [hashes_ptr](BlobSink* sink) {
        return sink->Append(EncodeHashTable(*hashes_ptr));
      },
      compression);
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  result.chain_depth = doc.chain_depth;
  return result;
}

namespace {

/// An Update chain from a requested set towards its full snapshot, newest
/// first. Levels are fetched on demand, each at most once, and every level
/// is validated as it arrives. The target's recorded chain_depth bounds the
/// walk: a valid chain holds chain_depth + 1 documents, so a corrupted
/// base-pointer cycle fails after that many fetches instead of walking
/// every set of every approach in a mixed store.
class UpdateChain {
 public:
  /// Opens the chain of a target document the caller has just fetched.
  static Result<UpdateChain> Open(SetDocument target) {
    UpdateChain chain;
    MMM_RETURN_NOT_OK(chain.Append(std::move(target)));
    return chain;
  }

  const SetDocument& target() const { return levels_.front(); }
  const SetDocument& level(size_t i) const { return levels_[i]; }
  size_t fetched() const { return levels_.size(); }

  /// Fetches the base of the oldest level fetched so far.
  Status FetchNext(const StoreContext& context) {
    const SetDocument& oldest = levels_.back();
    if (levels_.size() > target().chain_depth) {
      return Status::Corruption("update recovery chain too deep (cycle?) at ",
                                oldest.base_set_id);
    }
    MMM_ASSIGN_OR_RETURN(SetDocument base,
                         FetchSetDocument(context, oldest.base_set_id));
    return Append(std::move(base));
  }

  /// Fetches every level down to the full snapshot and returns it.
  Result<const SetDocument*> FetchRoot(const StoreContext& context) {
    while (levels_.back().kind != "full") MMM_RETURN_NOT_OK(FetchNext(context));
    return &levels_.back();
  }

 private:
  UpdateChain() = default;

  /// The one validation site for chain levels.
  Status Append(SetDocument level) {
    if (level.approach != kUpdateName) {
      return Status::InvalidArgument("set ", level.id, " was saved by '",
                                     level.approach, "', not update");
    }
    if (level.kind != "full" && level.kind != "delta") {
      return Status::Corruption("set ", level.id, " has unexpected kind '",
                                level.kind, "'");
    }
    if (level.kind == "full" && level.param_blob.empty()) {
      return Status::Corruption("set ", level.id, " is not a full snapshot");
    }
    if (!levels_.empty() && level.num_models != target().num_models) {
      return Status::Corruption("base set ", level.id, " holds ",
                                level.num_models, " models, derived set ",
                                target().id, " holds ", target().num_models);
    }
    levels_.push_back(std::move(level));
    return Status::OK();
  }

  std::vector<SetDocument> levels_;
};

/// Receives each slot the resolver resolves, once, with its final value.
/// Slot r * num_params + p is parameter p of the r-th requested model.
using SlotSink = std::function<void(size_t slot, Tensor value)>;

/// The root step's ranged read: reads the layers `slots` (ascending) of the
/// models `models` names (null: the whole set) from `root`'s param blob.
/// The layers' byte extents are planned into ranges by RangePlanner; each
/// range is one ranged stream, read window by window with the gaps between
/// layers skipped, so one window is alive at a time. Each layer's raw bytes
/// are checked against its entry of the blob's layer CRC table before they
/// are copied out. With `memo` (whose root must be `root`), the blob's
/// header and whole table come from it, so only the layers are read; else
/// the header is read, and the rows of the models read are fetched in one
/// planned ranged read. Each checked layer goes to `on_layer`, as stored in
/// the root.
///
/// Returns false, having read no layer, when the blob is not read by
/// range (ReadRangedParamHeader): it is a CAS manifest, compressed, or
/// MMMPARM1; or when the whole set is requested and the plan is one range
/// over every model, which the CRC-checked whole-blob stream reads as
/// cheaply.
Result<bool> ReadRootByRange(const StoreContext& context,
                             const SetDocument& root, const ParamLayout& layout,
                             const std::vector<size_t>* models,
                             const std::vector<size_t>& slots,
                             const SetMeta* memo, const SlotSink& on_layer) {
  const std::string& name = root.param_blob;
  if (context.cas != nullptr && context.cas->IsManifest(name)) return false;
  const size_t num_params = layout.size();
  std::vector<uint64_t> param_offset(num_params + 1, 0);
  for (size_t p = 0; p < num_params; ++p) {
    param_offset[p + 1] =
        param_offset[p] + Tensor::NumElements(layout[p].second) * sizeof(float);
  }
  const uint64_t model_bytes = param_offset[num_params];
  auto model_of = [&](size_t slot) -> size_t {
    const size_t row = slot / num_params;
    return models == nullptr ? row : (*models)[row];
  };
  // Byte offset of a slot's layer from model 0's first float.
  auto offset_of = [&](size_t slot) -> uint64_t {
    return model_of(slot) * model_bytes + param_offset[slot % num_params];
  };
  auto length_of = [&](size_t slot) -> uint64_t {
    const size_t p = slot % num_params;
    return param_offset[p + 1] - param_offset[p];
  };
  RangePlanner planner(context.file_store->latency());
  std::vector<size_t> range_of(slots.size());
  for (size_t k = 0; k < slots.size(); ++k) {
    range_of[k] = planner.Add(0, offset_of(slots[k]), length_of(slots[k]));
  }
  const std::vector<RangePlanner::Range>& ranges = planner.ranges();
  if (models == nullptr && ranges.size() == 1 && ranges[0].start == 0 &&
      ranges[0].end == root.num_models * model_bytes) {
    return false;
  }
  std::optional<ParamBlobLayout> blob;
  if (memo != nullptr) {
    blob = memo->root_layout;
  } else {
    MMM_ASSIGN_OR_RETURN(blob, ReadRangedParamHeader(context, root, layout));
    if (!blob.has_value()) return false;
  }

  // Each slot's layer CRC, from the memoized table or the rows read now.
  std::vector<uint32_t> expected(slots.size());
  if (memo != nullptr) {
    const std::vector<uint32_t>& table = memo->root_layer_crcs;
    if (table.size() != root.num_models * num_params) {
      return Status::Corruption("layer crc table of set ", root.id,
                                " disagrees with the parameter layout");
    }
    for (size_t k = 0; k < slots.size(); ++k) {
      expected[k] =
          table[model_of(slots[k]) * num_params + slots[k] % num_params];
    }
  } else {
    std::vector<size_t> row_models;
    for (size_t slot : slots) {
      if (row_models.empty() || row_models.back() != model_of(slot)) {
        row_models.push_back(model_of(slot));
      }
    }
    MMM_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                         ReadLayerCrcRows(context, name, *blob, row_models));
    for (size_t k = 0, r = 0; k < slots.size(); ++k) {
      while (row_models[r] != model_of(slots[k])) ++r;
      expected[k] = rows[r * num_params + slots[k] % num_params];
    }
  }

  const uint64_t window = context.stream_window_bytes == 0
                              ? kDefaultStreamWindowBytes
                              : context.stream_window_bytes;
  size_t k = 0;
  for (size_t r = 0; r < ranges.size(); ++r) {
    const RangePlanner::Range& range = ranges[r];
    MMM_ASSIGN_OR_RETURN(
        StreamFile stream,
        context.file_store->OpenStream(name, blob->header_bytes + range.start,
                                       range.end - range.start, window));
    while (k < slots.size() && range_of[k] == r) {
      // One window: the layer at k and the ones after it in this range
      // while they fit.
      const uint64_t start = offset_of(slots[k]);
      uint64_t end = start + length_of(slots[k]);
      size_t last = k + 1;
      for (; last < slots.size() && range_of[last] == r; ++last) {
        const uint64_t layer_end =
            offset_of(slots[last]) + length_of(slots[last]);
        if (layer_end - start > window) break;
        end = layer_end;
      }
      MMM_RETURN_NOT_OK(stream.Skip(start - range.start - stream.offset()));
      MMM_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                           stream.Next(end - start));
      if (bytes.size() != end - start) {
        return Status::Corruption("short read of the param blob of set ",
                                  root.id);
      }
      for (; k < last; ++k) {
        std::span<const uint8_t> layer =
            bytes.subspan(offset_of(slots[k]) - start, length_of(slots[k]));
        if (Crc32::Compute(layer) != expected[k]) {
          return Status::Corruption("layer (", model_of(slots[k]), ", ",
                                    slots[k] % num_params, ") of set ",
                                    root.id, " fails its layer crc check");
        }
        on_layer(slots[k], Tensor(layout[slots[k] % num_params].second,
                                  FloatsFromBytes(layer)));
      }
    }
  }
  return true;
}

/// Fills `meta`'s root header and whole layer CRC table for a root that
/// ReadRootByRange reads by range; leaves the table empty for a root it
/// reads whole.
Status ReadRootRangeMeta(const StoreContext& context, const SetDocument& root,
                         const ParamLayout& layout, SetMeta* meta) {
  if (context.cas != nullptr && context.cas->IsManifest(root.param_blob)) {
    return Status::OK();
  }
  MMM_ASSIGN_OR_RETURN(std::optional<ParamBlobLayout> blob,
                       ReadRangedParamHeader(context, root, layout));
  if (!blob.has_value()) return Status::OK();
  std::vector<size_t> models(root.num_models);
  std::iota(models.begin(), models.end(), size_t{0});
  MMM_ASSIGN_OR_RETURN(
      meta->root_layer_crcs,
      ReadLayerCrcRows(context, root.param_blob, *blob, models));
  meta->root_layout = *blob;
  return Status::OK();
}

/// The one chain resolver behind every Update recovery. Resolves every slot
/// of the models `models` names (sorted and distinct; null means the whole
/// set, row r = model r) that `resolved` does not already mark (cache
/// hits), handing each to `sink`.
///
/// Walks `chain` newest-first, fetching levels only as needed. Each diff
/// contributes just the entries of slots still unresolved, and only those
/// entries' tensors are copied out of it: an absolute entry resolves its
/// slot, XOR entries accumulate until an absolute value (a newer absolute
/// entry or the snapshot) is found. The walk stops at the first level that
/// leaves nothing unresolved, and the full snapshot is read only for what
/// is left. `spec` is the architecture of the chain's root.
///
/// With `ranged_root`, a raw root is read by range (ReadRootByRange), just
/// the slots still unresolved, each checked against the root's layer CRC
/// table: `memo`'s, whose root header then spares the header read, if it
/// holds this root's, else the rows read with the layers. Otherwise, and for a root not read by range, the whole set is
/// streamed, and a model subset is read with ReadModelsFromSnapshot. A
/// streamed snapshot's CRC is checked only after its layers reach `sink`,
/// so a caller must not publish a value anywhere until this returns OK.
Status ResolveChain(const StoreContext& context, UpdateChain* chain,
                    const ArchitectureSpec& spec,
                    const std::vector<size_t>* models,
                    std::vector<bool> resolved, const SlotSink& sink,
                    RecoverStats* stats, bool ranged_root,
                    const SetMeta* memo = nullptr) {
  const ParamLayout layout = LayoutOf(spec);
  const size_t num_params = layout.size();
  const uint64_t num_models = chain->target().num_models;
  constexpr size_t kNotRequested = std::numeric_limits<size_t>::max();
  auto row_of = [&](size_t model) -> size_t {
    if (models == nullptr) return model;
    auto it = std::lower_bound(models->begin(), models->end(), model);
    return it != models->end() && *it == model
               ? static_cast<size_t>(it - models->begin())
               : kNotRequested;
  };
  size_t missing =
      static_cast<size_t>(std::count(resolved.begin(), resolved.end(), false));
  // The requested set counts as walked even when nothing is missing.
  if (stats != nullptr) stats->sets_recovered += 1;
  if (missing == 0) return Status::OK();

  // Sized at the first XOR entry: absolute diffs never need it.
  std::vector<std::optional<Tensor>> xor_acc;
  auto resolve = [&](size_t slot, Tensor value) {
    if (!xor_acc.empty() && xor_acc[slot].has_value()) {
      value = XorTensors(value, *xor_acc[slot]);
      xor_acc[slot].reset();
    }
    resolved[slot] = true;
    missing -= 1;
    sink(slot, std::move(value));
  };
  for (size_t i = 0; missing > 0; ++i) {
    if (i == chain->fetched()) MMM_RETURN_NOT_OK(chain->FetchNext(context));
    const SetDocument& level = chain->level(i);
    if (i > 0 && stats != nullptr) stats->sets_recovered += 1;

    if (level.kind == "full") {
      if (ranged_root) {
        std::vector<size_t> slots;
        for (size_t slot = 0; slot < resolved.size(); ++slot) {
          if (!resolved[slot]) slots.push_back(slot);
        }
        const bool memoized = memo != nullptr &&
                              memo->root_param_blob == level.param_blob &&
                              !memo->root_layer_crcs.empty();
        MMM_ASSIGN_OR_RETURN(
            bool ranged,
            ReadRootByRange(context, level, layout, models, slots,
                            memoized ? memo : nullptr, resolve));
        if (ranged) return Status::OK();
      }
      if (models == nullptr) {
        return StreamParamBlob(
            context, level.param_blob, spec, num_models,
            [&](size_t m, size_t p, const std::string& /*key*/,
                Tensor tensor) -> Status {
              const size_t slot = m * num_params + p;
              if (!resolved[slot]) resolve(slot, std::move(tensor));
              return Status::OK();
            });
      }
      std::vector<size_t> root_rows;
      std::vector<size_t> root_models;
      for (size_t r = 0; r < models->size(); ++r) {
        for (size_t p = 0; p < num_params; ++p) {
          if (!resolved[r * num_params + p]) {
            root_rows.push_back(r);
            root_models.push_back((*models)[r]);
            break;
          }
        }
      }
      MMM_ASSIGN_OR_RETURN(ModelSet read,
                           ReadModelsFromSnapshot(context, level, root_models));
      for (size_t k = 0; k < root_rows.size(); ++k) {
        for (size_t p = 0; p < num_params; ++p) {
          const size_t slot = root_rows[k] * num_params + p;
          if (!resolved[slot]) {
            resolve(slot, std::move(read.models[k][p].second));
          }
        }
      }
      return Status::OK();
    }

    MMM_ASSIGN_OR_RETURN(
        std::vector<uint8_t> bytes,
        CasReadBlobDecompressed(context.file_store, context.cas,
                                level.diff_blob));
    MMM_ASSIGN_OR_RETURN(DiffView diff, DiffView::Parse(spec, bytes));
    const bool xor_encoded = diff.encoding() == DiffEncoding::kXorBase;
    const std::vector<DiffEntry>& entries = diff.entries();
    // Backwards, so that within one absolute diff the last entry for a
    // layer wins, as if the diffs were applied in order.
    for (size_t e = entries.size(); e-- > 0;) {
      const DiffEntry& entry = entries[e];
      if (entry.model_index >= num_models) {
        return Status::Corruption("diff entry out of range in set ", level.id);
      }
      const size_t row = row_of(entry.model_index);
      if (row == kNotRequested) continue;
      const size_t slot = row * num_params + entry.param_index;
      if (resolved[slot]) continue;
      if (!xor_encoded) {
        resolve(slot, diff.TensorAt(e));
        continue;
      }
      if (xor_acc.empty()) xor_acc.resize(resolved.size());
      if (xor_acc[slot].has_value()) {
        *xor_acc[slot] = XorTensors(*xor_acc[slot], diff.TensorAt(e));
      } else {
        xor_acc[slot] = diff.TensorAt(e);
      }
    }
  }
  return Status::OK();
}

/// Moves `values` (row-major, one per slot) into `num_rows` state dicts,
/// keyed by the layout. Each value takes its shape from the layout: a cache
/// entry is keyed by a content hash, which covers bytes, not shape, so a
/// zeroed [48] bias and a zeroed [1, 48] weight share one entry. A value
/// whose element count is not its layout's fails with Corruption.
Result<std::vector<StateDict>> TakeRows(const ParamLayout& layout,
                                        size_t num_rows,
                                        std::vector<Tensor>* values,
                                        const std::string& set_id) {
  const size_t num_params = layout.size();
  std::vector<StateDict> rows(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    rows[r].reserve(num_params);
    for (size_t p = 0; p < num_params; ++p) {
      const Shape& shape = layout[p].second;
      Tensor& value = (*values)[r * num_params + p];
      if (value.shape() != shape) {
        if (value.numel() != Tensor::NumElements(shape)) {
          return Status::Corruption("layer (", r, ", ", p, ") of ", set_id,
                                    " holds ", value.numel(),
                                    " values, its layout ",
                                    Tensor::NumElements(shape));
        }
        value = value.Reshape(shape);
      }
      rows[r].emplace_back(layout[p].first, std::move(value));
    }
  }
  return rows;
}

}  // namespace

Result<ModelSet> UpdateApproach::Resolve(SetDocument target,
                                         const std::vector<size_t>* models,
                                         RecoverStats* stats) {
  MMM_ASSIGN_OR_RETURN(UpdateChain chain, UpdateChain::Open(std::move(target)));
  MMM_ASSIGN_OR_RETURN(const SetDocument* root, chain.FetchRoot(context_));
  ModelSet set;
  MMM_ASSIGN_OR_RETURN(set.spec, ReadSnapshotSpec(context_, *root));
  const ParamLayout layout = LayoutOf(set.spec);
  const size_t num_rows =
      models == nullptr ? chain.target().num_models : models->size();
  std::vector<Tensor> values(num_rows * layout.size());
  MMM_RETURN_NOT_OK(ResolveChain(
      context_, &chain, set.spec, models,
      std::vector<bool>(values.size(), false),
      [&](size_t slot, Tensor value) { values[slot] = std::move(value); },
      stats, /*ranged_root=*/models != nullptr));
  MMM_ASSIGN_OR_RETURN(set.models, TakeRows(layout, num_rows, &values,
                                            chain.target().id));
  return set;
}

Result<ModelSet> UpdateApproach::RecoverCached(const std::string& set_id,
                                               RecoveryCache* cache,
                                               RecoverStats* stats,
                                               CacheRequestStats* cache_stats) {
  if (cache == nullptr) return Recover(set_id, stats);
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  MMM_ASSIGN_OR_RETURN(SetDocument target, FetchSetDocument(context_, set_id));
  MMM_ASSIGN_OR_RETURN(
      ModelSet set, RecoverCached(std::move(target), cache, stats, cache_stats));
  // The whole call, the document fetch included.
  capture.FillRecover(stats);
  return set;
}

Result<ModelSet> UpdateApproach::RecoverCached(SetDocument target,
                                               RecoveryCache* cache,
                                               RecoverStats* stats,
                                               CacheRequestStats* cache_stats) {
  if (cache == nullptr) return Recover(std::move(target), stats);
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  const std::string set_id = target.id;
  // The set document is always fetched live, by the caller. The document
  // store stays the single root of trust, so recovering a deleted set
  // fails at that fetch no matter what the cache still holds — a cache hit
  // can never resurrect a collected set.
  MMM_ASSIGN_OR_RETURN(UpdateChain chain, UpdateChain::Open(std::move(target)));
  CacheRequestStats local;

  // The set's per-layer content hashes, its architecture and its root's
  // layer CRC table, memoized so a hot set costs no hash-blob, table or
  // chain-walk reads. The architecture and the table live with the chain's
  // full snapshot, so a memo miss walks the documents down to it; the
  // resolver reuses them. A memo entry is validated once, here.
  std::shared_ptr<const SetMeta> meta = cache->GetSetMeta(set_id);
  const bool meta_hit = meta != nullptr;
  if (meta_hit) {
    local.meta_hits += 1;
  } else {
    local.meta_misses += 1;
    auto fresh = std::make_shared<SetMeta>();
    MMM_ASSIGN_OR_RETURN(HashTable table,
                         ReadStoredHashTable(context_, chain.target()));
    MMM_ASSIGN_OR_RETURN(const SetDocument* root, chain.FetchRoot(context_));
    MMM_ASSIGN_OR_RETURN(fresh->spec, ReadSnapshotSpec(context_, *root));
    fresh->root_param_blob = root->param_blob;
    MMM_RETURN_NOT_OK(ReadRootRangeMeta(context_, *root, LayoutOf(fresh->spec),
                                        fresh.get()));
    const size_t num_params = LayoutOf(fresh->spec).size();
    for (const auto& row : table) {
      if (row.size() != num_params) {
        return Status::Corruption("hash table of ", set_id,
                                  " disagrees with the parameter layout");
      }
      fresh->hashes.insert(fresh->hashes.end(), row.begin(), row.end());
    }
    meta = std::move(fresh);
  }
  const std::vector<Sha256Digest>& hashes = meta->hashes;
  const ParamLayout layout = LayoutOf(meta->spec);
  const size_t num_params = layout.size();
  const uint64_t num_models = chain.target().num_models;

  // Probe each layer of the requested set once, by content hash, in one
  // batch. Layers shared with any set served before (its base, a sibling)
  // hit no matter which set brought them in; the hits are the slots the
  // resolver skips.
  const size_t num_slots = hashes.size();
  if (num_slots != num_models * num_params) {
    return Status::Corruption("hash table of ", set_id, " holds ", num_slots,
                              " layers, the set ", num_models * num_params);
  }
  // A hit is copied straight into its slot and shares the entry's buffer;
  // a caller's first write to it copies the buffer (Tensor is
  // copy-on-write), so the cache never sees the write.
  std::vector<Tensor> values(num_slots);
  const std::vector<bool> hit = cache->GetLayers(hashes, values);
  local.layer_hits += static_cast<uint64_t>(
      std::count(hit.begin(), hit.end(), true));
  local.layer_misses += num_slots - local.layer_hits;
  if (local.layer_misses == 0) local.sets_from_cache += 1;
  MMM_RETURN_NOT_OK(ResolveChain(
      context_, &chain, meta->spec, nullptr, hit,
      [&](size_t slot, Tensor value) { values[slot] = std::move(value); },
      stats, /*ranged_root=*/true, meta.get()));

  // Verify-then-admit. Every layer fetched has now been verified: each
  // blob it came from passed its CRC check, or, read by range from the
  // root, its bytes matched their layer CRC, so the layers are offered
  // under the requested set's hashes only now, in one batch: a corrupt blob
  // can never leave an entry behind. Ancestors' layers are not admitted
  // under their own hashes. An all-hit request makes no offer.
  const size_t num_fetched = static_cast<size_t>(local.layer_misses);
  if (num_fetched > 0) {
    std::vector<size_t> fetched_slots;
    std::vector<Sha256Digest> fetched_hashes;
    std::vector<Tensor> fetched;
    fetched_slots.reserve(num_fetched);
    fetched_hashes.reserve(num_fetched);
    fetched.reserve(num_fetched);
    for (size_t slot = 0; slot < num_slots; ++slot) {
      if (!hit[slot]) {
        fetched_slots.push_back(slot);
        fetched_hashes.push_back(hashes[slot]);
        fetched.push_back(std::move(values[slot]));
      }
    }
    cache->PutLayers(fetched_hashes, fetched);
    for (size_t k = 0; k < num_fetched; ++k) {
      values[fetched_slots[k]] = std::move(fetched[k]);
    }
  }
  if (!meta_hit) cache->PutSetMeta(set_id, meta);

  // A hit takes its shape from the layout, never from the entry (TakeRows).
  ModelSet set;
  set.spec = meta->spec;
  MMM_ASSIGN_OR_RETURN(set.models,
                       TakeRows(layout, num_models, &values, set_id));
  if (cache_stats != nullptr) *cache_stats += local;
  capture.FillRecover(stats);
  return set;
}

}  // namespace mmm
