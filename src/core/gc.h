#ifndef MMM_CORE_GC_H_
#define MMM_CORE_GC_H_

#include <string>
#include <vector>

#include "core/approach.h"

namespace mmm {

/// \brief Outcome of a deletion/retention operation.
struct DeleteReport {
  size_t sets_deleted = 0;
  size_t blobs_deleted = 0;
  uint64_t bytes_reclaimed = 0;
  /// Content-addressed chunks the refcount sweep dropped from the index
  /// (always 0 when CAS is off). Chunks live in packs, so blobs_deleted
  /// counts the packs the sweep deleted, not these.
  size_t chunks_swept = 0;
  /// Packs the sweep repacked because less than half of them stayed live
  /// (see CasStore::kRepackLiveFraction).
  size_t packs_repacked = 0;
  std::vector<std::string> deleted_set_ids;
};

/// \brief Options of DeleteSet.
struct DeleteOptions {
  /// Also delete every set that (transitively) derives from the target.
  /// Without cascade, deleting a set that others depend on fails — Update
  /// deltas and Provenance records are unrecoverable without their base.
  bool cascade = false;
};

/// Deletes a saved set: its metadata document, its per-model documents
/// (MMlib-base), and its file-store artifacts. Fails with InvalidArgument
/// when dependent sets exist and `options.cascade` is false.
Result<DeleteReport> DeleteSet(const StoreContext& context,
                               const std::string& set_id,
                               const DeleteOptions& options = {});

/// Retention sweep: keeps `keep_set_ids` plus everything they (transitively)
/// need for recovery — the lineage closure — and deletes all other sets.
/// Typical use: keep only the newest version of each fleet.
Result<DeleteReport> RetainOnly(const StoreContext& context,
                                const std::vector<std::string>& keep_set_ids);

/// \brief File-store blobs no metadata references (see FindOrphanBlobs).
struct OrphanReport {
  std::vector<std::string> orphan_blobs;
  uint64_t orphan_bytes = 0;

  bool clean() const { return orphan_blobs.empty(); }
};

/// Scans the file store for blobs that neither a set document, an MMlib
/// per-model document, nor a pending commit-journal entry references.
/// Journal-pending blobs are live by definition: they belong to an in-flight
/// or crashed commit whose fate the next journal replay decides, so sweeping
/// them here would race the recovery protocol. A store that only ever
/// commits through journaled batches reports no orphans after replay.
Result<OrphanReport> FindOrphanBlobs(const StoreContext& context);

/// Deletes every orphan FindOrphanBlobs reports.
Result<DeleteReport> SweepOrphanBlobs(const StoreContext& context);

}  // namespace mmm

#endif  // MMM_CORE_GC_H_
