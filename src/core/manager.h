#ifndef MMM_CORE_MANAGER_H_
#define MMM_CORE_MANAGER_H_

#include <memory>
#include <string>

#include "core/approach.h"
#include "core/baseline.h"
#include "core/compactor.h"
#include "core/inspect.h"
#include "core/mmlib_base.h"
#include "core/provenance.h"
#include "core/update.h"
#include "storage/latency_model.h"

namespace mmm {

/// The four management approaches evaluated in the paper.
enum class ApproachType : int {
  kMMlibBase = 0,
  kBaseline = 1,
  kUpdate = 2,
  kProvenance = 3,
};

/// Canonical name ("mmlib-base", "baseline", "update", "provenance").
std::string ApproachTypeName(ApproachType type);

/// Inverse of ApproachTypeName.
Result<ApproachType> ApproachTypeFromName(const std::string& name);

/// All four types, in the paper's presentation order.
inline constexpr ApproachType kAllApproaches[] = {
    ApproachType::kMMlibBase, ApproachType::kBaseline, ApproachType::kUpdate,
    ApproachType::kProvenance};

/// \brief Facade owning the stores and one instance of every approach.
///
/// This is the public entry point of the library:
///
/// \code
///   ModelSetManager::Options options;
///   options.root_dir = "/tmp/mmm";
///   options.resolver = &my_resolver;
///   MMM_ASSIGN_OR_RETURN(auto manager, ModelSetManager::Open(options));
///   MMM_ASSIGN_OR_RETURN(SaveResult saved,
///       manager->SaveInitial(ApproachType::kBaseline, set));
///   MMM_ASSIGN_OR_RETURN(ModelSet recovered, manager->Recover(saved.set_id));
/// \endcode
class ModelSetManager {
 public:
  struct Options {
    /// Directory for the file store and the document-store WAL.
    std::string root_dir;
    /// Filesystem implementation; defaults to Env::Default().
    Env* env = nullptr;
    /// Store latency profile (paper setups); default: no modeled latency.
    SetupProfile profile = SetupProfile::None();
    /// External data owner for Provenance recovery; may be nullptr when
    /// Provenance is not used for derived sets.
    DatasetResolver* resolver = nullptr;
    /// Seed of the set-id generator (determinism across runs).
    uint64_t id_seed = 42;
    /// External id source (not owned; must outlive the manager). When set,
    /// the manager draws set ids from it instead of constructing its own
    /// generator — the cluster coordinator uses this to decide a set's id
    /// (and thereby its shard placement) before the save reaches a shard.
    /// Open() still calls AdvanceTo past the largest persisted counter.
    /// Null (the default) keeps today's internal generator bit-exactly.
    IdGenerator* ids = nullptr;
    UpdateApproachOptions update_options;
    ProvenanceRecoverOptions provenance_recover_options;
    /// Compression for parameter/diff/hash blobs (§4.5 future work);
    /// reads auto-detect, so mixed stores are fine.
    Compression blob_compression = Compression::kNone;
    /// Content-addressed chunk store (src/cas/, DESIGN.md §10). Off by
    /// default: behavior and cost accounting are exactly the seed's. When
    /// enabled, parameter-scale blobs are deduplicated chunk-wise across
    /// all sets and GC refcounts chunks. A store that was ever written
    /// with CAS re-enables it automatically on reopen (the `cas.index`
    /// checkpoint is the marker), so chunked blobs always get CAS-aware
    /// GC; chunk-size knobs affect only new writes.
    CasOptions cas;
    /// Write-pipeline configuration. `pipeline.lanes = 1` (the default)
    /// reproduces the paper's serialized cost model bit-exactly; more lanes
    /// overlap blob writes, hashing, and compression across a worker pool.
    StorePipelineOptions pipeline;
    /// Window size of the streaming recovery reads (DESIGN.md §12): blobs
    /// are pulled through FileStore::OpenStream and the incremental
    /// decoders, so peak recovery allocation is ≈ one window + one layer.
    /// 0 means kDefaultStreamWindowBytes (256 KiB).
    uint64_t stream_window_bytes = 0;
    /// Environment snapshot persisted by MMlib-base (per model) and
    /// Provenance (per set); defaults to EnvironmentInfo::Capture().
    std::optional<EnvironmentInfo> environment;
    /// When set, every successful SaveDerived is followed by an
    /// opportunistic CompactChains(*auto_compaction) pass, keeping every
    /// chain within the policy's depth bound as it grows (see
    /// core/compactor.h). Unset (the default) leaves compaction to explicit
    /// CompactChains calls / `mmmctl compact`.
    std::optional<CompactionPolicy> auto_compaction;
  };

  /// Opens (or creates) the stores under options.root_dir.
  static Result<std::unique_ptr<ModelSetManager>> Open(Options options);

  /// The approach instance for `type`.
  ModelSetApproach* approach(ApproachType type);

  /// The Update approach instance, typed — the only approach with a cached
  /// recovery path (see UpdateApproach::RecoverCached).
  UpdateApproach* update_approach() { return update_.get(); }

  /// Saves an initial set with the chosen approach.
  Result<SaveResult> SaveInitial(ApproachType type, const ModelSet& set);

  /// Saves a derived set with the chosen approach.
  Result<SaveResult> SaveDerived(ApproachType type, const ModelSet& set,
                                 const ModelSetUpdateInfo& update);

  /// Recovers any saved set; dispatches on the approach recorded in the
  /// set's metadata document.
  Result<ModelSet> Recover(const std::string& set_id,
                           RecoverStats* stats = nullptr);

  /// Recovers only the models at `indices` from any saved set (the paper's
  /// post-accident analysis read path); dispatches like Recover.
  Result<std::vector<StateDict>> RecoverModels(const std::string& set_id,
                                               const std::vector<size_t>& indices,
                                               RecoverStats* stats = nullptr);

  /// \name Store inspection (see core/inspect.h).
  /// @{
  Result<std::vector<SetSummary>> ListSets() { return mmm::ListSets(context_); }
  Result<std::vector<SetSummary>> Lineage(const std::string& set_id) {
    return mmm::Lineage(context_, set_id);
  }
  Result<StoreValidationReport> ValidateStore() {
    return mmm::ValidateStore(context_);
  }
  /// Rewrites the metadata WAL without tombstones/shadowed records;
  /// run after GC (DeleteSet/RetainOnly) to reclaim log space.
  Status CompactStore() { return doc_store_->Compact(); }
  /// @}

  /// Rewrites saved chains so every set is at most policy.max_chain_depth
  /// hops from a full snapshot, through journaled same-id rebase commits
  /// (see core/compactor.h). Bit-exact: Recover(id) returns identical bytes
  /// before and after for every set. Serving deployments should call
  /// ModelSetService::CompactChains instead, which also invalidates stale
  /// cache entries for the rewritten sets.
  Result<CompactionReport> CompactChains(const CompactionPolicy& policy);

  /// Shared store context (for inspection in tests/benches).
  const StoreContext& context() const { return context_; }
  SimulatedClock* sim_clock() { return &sim_clock_; }
  FileStore* file_store() { return file_store_.get(); }
  DocumentStore* doc_store() { return doc_store_.get(); }
  CommitJournal* journal() { return journal_.get(); }
  /// Content-addressed chunk store; null when CAS is off for this store.
  CasStore* cas() { return cas_.get(); }

  /// What the open-time journal replay found and repaired. A crash-free
  /// shutdown yields an empty report (zero entries scanned).
  const RepairReport& repair_report() const { return repair_report_; }

 private:
  ModelSetManager() = default;

  SimulatedClock sim_clock_;
  /// Internally owned id generator; null when Options::ids supplied an
  /// external source (the context then points at that source instead).
  std::unique_ptr<IdGenerator> ids_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<FileStore> file_store_;
  std::unique_ptr<DocumentStore> doc_store_;
  std::unique_ptr<CommitJournal> journal_;
  std::unique_ptr<CasStore> cas_;
  RepairReport repair_report_;
  StoreContext context_;
  std::optional<CompactionPolicy> auto_compaction_;
  std::unique_ptr<MMlibBaseApproach> mmlib_base_;
  std::unique_ptr<BaselineApproach> baseline_;
  std::unique_ptr<UpdateApproach> update_;
  std::unique_ptr<ProvenanceApproach> provenance_;
};

}  // namespace mmm

#endif  // MMM_CORE_MANAGER_H_
