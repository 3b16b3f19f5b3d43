#ifndef MMM_CORE_APPROACH_H_
#define MMM_CORE_APPROACH_H_

#include <string>

#include "cas/cas_store.h"
#include "common/clock.h"
#include "common/id.h"
#include "common/result.h"
#include "core/model_set.h"
#include "serialize/compress.h"
#include "storage/document_store.h"
#include "storage/file_store.h"
#include "storage/store_batch.h"

namespace mmm {

/// \brief Shared storage backends handed to every approach.
///
/// One file store (parameter/architecture blobs), one document store
/// (metadata), one id generator, the simulated clock the stores charge
/// their latency to, and the write-pipeline executor every save path fans
/// its store ops out over.
struct StoreContext {
  FileStore* file_store = nullptr;
  DocumentStore* doc_store = nullptr;
  IdGenerator* ids = nullptr;
  SimulatedClock* sim_clock = nullptr;
  /// Applied to the large binary artifacts (parameter/diff/hash blobs) —
  /// the paper's §4.5 future work. Reads auto-detect, so stores written
  /// with any setting stay readable.
  Compression blob_compression = Compression::kNone;
  /// Worker pool for batched saves; nullptr means serial (one lane).
  Executor* executor = nullptr;
  /// Lane count / dispatch cost of the write pipeline (see store_batch.h).
  StorePipelineOptions pipeline;
  /// Commit journal making every batch atomic across both stores; nullptr
  /// commits without crash protection (see storage/journal.h).
  CommitJournal* journal = nullptr;
  /// Content-addressed chunk store; nullptr (the default) stores every
  /// payload verbatim — the seed behavior and cost model, bit-exactly.
  /// When set, batches chunk+dedup eligible blob writes and reads
  /// reassemble through cas/blob_io.h (see cas/cas_store.h).
  CasStore* cas = nullptr;
  /// Window size of the streaming reads every recovery makes (DESIGN.md
  /// §12); 0 means kDefaultStreamWindowBytes.
  uint64_t stream_window_bytes = 0;

  Status Validate() const {
    if (file_store == nullptr || doc_store == nullptr || ids == nullptr) {
      return Status::InvalidArgument("store context is incomplete");
    }
    return Status::OK();
  }
};

/// Opens an op-batch over the context's stores and pipeline configuration.
/// Approaches stage every write of one save into such a batch and commit it
/// once — no save path talks to FileStore/DocumentStore write methods
/// directly.
inline StoreBatch MakeBatch(const StoreContext& context) {
  return StoreBatch(context.file_store, context.doc_store, context.executor,
                    context.pipeline, context.journal, context.cas);
}

/// \brief Outcome of saving one model set.
struct SaveResult {
  /// Identifier to later recover the set with.
  std::string set_id;
  /// Bytes persisted for this set across both stores — the paper's "storage
  /// consumption" metric (excludes referenced datasets and base sets).
  uint64_t bytes_written = 0;
  /// Store round-trips performed (opportunity O3's cost driver).
  uint64_t file_store_writes = 0;
  uint64_t doc_store_writes = 0;
  /// Modeled store latency charged during the save, in nanoseconds.
  uint64_t simulated_store_nanos = 0;
  /// Hops from the saved set to its nearest full snapshot, as recorded in
  /// the set document: 0 for full snapshots, base depth + 1 for deltas and
  /// provenance records. The adaptive policy reads this instead of guessing.
  uint64_t chain_depth = 0;
};

/// \brief Statistics of recovering one model set.
struct RecoverStats {
  /// Chain levels visited, the requested set included (1 for a full
  /// snapshot): for Update each level whose blob the walk read, for
  /// Provenance every replayed base.
  uint64_t sets_recovered = 0;
  /// Models retrained during provenance replay.
  uint64_t models_retrained = 0;
  uint64_t simulated_store_nanos = 0;
};

struct SetDocument;  // core/set_codec.h

/// \brief Interface of a multi-model management approach (paper §3).
///
/// Implementations: MMlibBaseApproach (the reference point), BaselineApproach
/// (§3.2), UpdateApproach (§3.3), ProvenanceApproach (§3.4).
///
/// Each recovery entry point comes in two forms: by set id, which fetches
/// the set's document and goes on as the second, and from a document the
/// caller has just fetched (a manager or server learns the approach from
/// it), so that one recovery fetches the document once.
class ModelSetApproach {
 public:
  virtual ~ModelSetApproach() = default;

  /// Canonical approach name ("mmlib-base", "baseline", "update",
  /// "provenance"); recorded in the set document so recovery can dispatch.
  virtual std::string Name() const = 0;

  /// Saves an initial model set (use case U1).
  virtual Result<SaveResult> SaveInitial(const ModelSet& set) = 0;

  /// Saves a set derived from a previously saved set (use case U3).
  /// Full-snapshot approaches may ignore `update`.
  virtual Result<SaveResult> SaveDerived(const ModelSet& set,
                                         const ModelSetUpdateInfo& update) = 0;

  /// Recovers a previously saved set by id. `stats` is optional and
  /// covers the document fetch too.
  Result<ModelSet> Recover(const std::string& set_id, RecoverStats* stats);

  Result<ModelSet> Recover(const std::string& set_id) {
    return Recover(set_id, nullptr);
  }

  /// Recovers the set whose document is `doc`. `stats` covers this call
  /// only, not the fetch of `doc`.
  virtual Result<ModelSet> Recover(SetDocument doc, RecoverStats* stats) = 0;

  /// Recovers only the models at `indices` (any order, duplicates allowed);
  /// the result is parallel to `indices`. This is the paper's deployment
  /// read path — "we ... only recover a selected number of models, for
  /// example, after an accident" (§1) — and implementations avoid
  /// materializing the full set where their format permits (ranged reads of
  /// the parameter blob, per-model diff filtering, subset replay).
  Result<std::vector<StateDict>> RecoverModels(
      const std::string& set_id, const std::vector<size_t>& indices,
      RecoverStats* stats);

  Result<std::vector<StateDict>> RecoverModels(
      const std::string& set_id, const std::vector<size_t>& indices) {
    return RecoverModels(set_id, indices, nullptr);
  }

  /// RecoverModels of the set whose document is `doc`; `stats` as for
  /// Recover(SetDocument, RecoverStats*).
  virtual Result<std::vector<StateDict>> RecoverModels(
      SetDocument doc, const std::vector<size_t>& indices,
      RecoverStats* stats) = 0;

 protected:
  explicit ModelSetApproach(StoreContext context) : context_(context) {}

  StoreContext context_;
};

/// Name of the document-store collection holding one document per saved set.
inline constexpr char kSetCollection[] = "model_sets";

}  // namespace mmm

#endif  // MMM_CORE_APPROACH_H_
