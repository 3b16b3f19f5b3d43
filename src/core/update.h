#ifndef MMM_CORE_UPDATE_H_
#define MMM_CORE_UPDATE_H_

#include <limits>

#include "core/approach.h"
#include "core/blob_formats.h"
#include "core/recovery_cache.h"

namespace mmm {

struct SetDocument;

/// \brief Options of the Update approach.
struct UpdateApproachOptions {
  /// Write a full snapshot (instead of a delta) whenever the chain since the
  /// last snapshot reaches this many deltas. The paper saves only the very
  /// first set fully — the default — and notes intermediate snapshots as the
  /// remedy for recursively increasing recovery times (§2.2); the
  /// snapshot-interval ablation bench sweeps this knob.
  uint64_t snapshot_interval = std::numeric_limits<uint64_t>::max();
  /// Payload encoding of the diff blobs. kXorBase (the §4.5 delta-encoding
  /// direction) requires ModelSetUpdateInfo::base_set at save time and pays
  /// off combined with shuffle-LZ compression.
  DiffEncoding diff_encoding = DiffEncoding::kAbsolute;
};

/// \brief The paper's Update approach (§3.3).
///
/// Saves the initial set with Baseline's logic plus a per-(model, layer)
/// SHA-256 hash table. Derived sets are saved as: (1) a metadata document
/// referencing the base set, (2) the new hash table, (3) a diff list of all
/// (model, layer) pairs whose hash changed, and (4) one binary blob
/// concatenating exactly the changed parameters. Change detection needs only
/// the base set's *hash* blob, never its parameters.
///
/// Recovery resolves the chain newest-first: each diff, from the requested
/// set back towards the last full snapshot, contributes the layers no newer
/// diff already supplied, and the snapshot is read only for what is left.
/// Every recovery entry point shares that one resolver, so reads grow with
/// the chain — the staircase time-to-recover in Figure 5 — while no
/// intermediate set is ever materialized.
class UpdateApproach : public ModelSetApproach {
 public:
  UpdateApproach(StoreContext context, UpdateApproachOptions options = {});

  std::string Name() const override { return "update"; }
  Result<SaveResult> SaveInitial(const ModelSet& set) override;
  Result<SaveResult> SaveDerived(const ModelSet& set,
                                 const ModelSetUpdateInfo& update) override;
  Result<ModelSet> Recover(SetDocument target, RecoverStats* stats) override;
  /// Selective recovery: the same newest-first resolver as Recover, asked
  /// only for the models at `indices`. Diff entries of other models are
  /// skipped (after the same range checks), and a raw root snapshot is read
  /// by range for just the layers still unresolved, each checked against
  /// the requested models' rows of the root's layer CRC table (read by
  /// range with them) — no full set is ever materialized.
  Result<std::vector<StateDict>> RecoverModels(SetDocument target,
                                               const std::vector<size_t>& indices,
                                               RecoverStats* stats) override;
  using ModelSetApproach::Recover;
  using ModelSetApproach::RecoverModels;

  /// Recovery through a layer-granular cache (the serving read path).
  ///
  /// The set's stored per-layer content hashes are resolved first (memoized
  /// via RecoveryCache::GetSetMeta, with the root's layer CRC table), then
  /// all of its layers are probed in the cache in one batch, by hash. The
  /// shared resolver skips the hits,
  /// so a set whose layers all hit is assembled without reading a single
  /// parameter or diff blob, and otherwise only the misses are resolved —
  /// the chain's diffs newest-first, the full snapshot only if some layer
  /// is still unresolved after the last diff, and a raw snapshot by range
  /// for just those layers. The fetched layers are offered to the cache in
  /// one batch, under the requested set's hashes, once each is verified:
  /// every blob it came from passed its CRC check, or its bytes in the root
  /// matched their layer CRC. Ancestors' layers are not admitted.
  ///
  /// Bit-exactness: cached tensors are keyed by their SHA-256 content hash,
  /// so assembly reproduces exactly the bytes Recover would return. With
  /// `cache == nullptr` this is plain Recover.
  Result<ModelSet> RecoverCached(const std::string& set_id,
                                 RecoveryCache* cache,
                                 RecoverStats* stats = nullptr,
                                 CacheRequestStats* cache_stats = nullptr);
  /// As above, for a set whose document `target` the caller has just
  /// fetched (a server learns the approach from it), so one recovery
  /// fetches it once. `stats` covers this call only, not that fetch.
  Result<ModelSet> RecoverCached(SetDocument target, RecoveryCache* cache,
                                 RecoverStats* stats = nullptr,
                                 CacheRequestStats* cache_stats = nullptr);

 private:
  Result<SaveResult> SaveSnapshotWithHashes(const ModelSet& set,
                                            const std::string& base_set_id);

  UpdateApproachOptions options_;
};

}  // namespace mmm

#endif  // MMM_CORE_UPDATE_H_
