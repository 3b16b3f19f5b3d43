#ifndef MMM_SERVE_SERVICE_H_
#define MMM_SERVE_SERVICE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/gc.h"
#include "core/manager.h"
#include "core/recovery_cache.h"
#include "serve/layer_cache.h"
#include "storage/executor.h"

namespace mmm {

/// \brief Configuration of a ModelSetService.
struct ModelSetServiceOptions {
  /// Worker lanes for Replay. 1 = serve on the calling thread, in request
  /// order — bit-identical to sequential Recover calls. Per-request store
  /// counters (ServeResult::modeled_store_nanos) are exact at any worker
  /// count; only the *cache* hit pattern can shift under concurrency,
  /// because overlapping requests race to populate shared entries.
  size_t workers = 1;
  /// Disable to serve every request straight from the stores (the control
  /// arm of the serving bench; results are bit-identical either way).
  bool cache_enabled = true;
  /// Layer-cache budget; capacity is enforced strictly (see LayerCache).
  uint64_t cache_capacity_bytes = 256ull << 20;
};

/// \brief Outcome of one served recovery request.
struct ServeResult {
  std::string set_id;
  Status status = Status::OK();
  /// Wall time of this request in the service, nanoseconds.
  uint64_t wall_nanos = 0;
  /// Modeled store latency charged by this request, in nanoseconds. Exact
  /// per request at any worker count: charges are attributed through a
  /// per-thread accumulator (SimulatedClock::ThreadNanos), and a request
  /// runs entirely on one worker.
  uint64_t modeled_store_nanos = 0;
  /// Chain levels the recovery visited: the target, plus each ancestor
  /// whose diff or snapshot blob was read to resolve a layer (for
  /// Provenance, every set of the chain).
  uint64_t sets_walked = 0;
  /// Cache effectiveness of this request (all-zero on the uncached path).
  CacheRequestStats cache;
};

/// \brief Concurrent model-set recovery service (the serving layer).
///
/// Wraps a ModelSetManager behind a thread-safe facade: recovery requests
/// run concurrently on a fixed worker pool and answer through a
/// layer-granular segmented-LRU cache keyed by the per-layer SHA-256
/// content hashes the Update approach persists (see core/recovery_cache.h
/// for the key scheme and why the document store remains the root of
/// trust). Layers
/// shared between a base set and its derived sets are fetched and decoded
/// once; hot sets can be pinned.
///
/// Sets saved by the other approaches are served through the manager's
/// ordinary (uncached) Recover — every approach is servable, Update gets
/// the cache speedup.
///
/// Deletion coherence: DeleteSet/RetainOnly must go through the service,
/// which serializes them against in-flight recoveries, refuses to delete
/// any set a pinned set needs (pin-fail), and invalidates the cached
/// layers and metadata of collected sets.
class ModelSetService {
 public:
  /// \param manager store facade; must outlive the service (not owned).
  ModelSetService(ModelSetManager* manager, ModelSetServiceOptions options = {});
  ~ModelSetService();

  ModelSetService(const ModelSetService&) = delete;
  ModelSetService& operator=(const ModelSetService&) = delete;

  /// Recovers one set (any approach). Thread-safe; concurrent callers
  /// proceed in parallel. `result` (optional) receives per-request stats.
  Result<ModelSet> Recover(const std::string& set_id,
                           ServeResult* result = nullptr);

  /// Serves a whole request trace across the worker pool. Request i runs on
  /// lane i % workers (deterministic assignment). Returns one ServeResult
  /// per request, parallel to `set_ids`; `recovered` (optional) receives
  /// the recovered sets, also parallel. Only one Replay may run at a time.
  std::vector<ServeResult> Replay(const std::vector<std::string>& set_ids,
                                  std::vector<ModelSet>* recovered = nullptr);

  /// Pins a hot set: recovers it, admits every layer pre-pinned, and
  /// shields the layers from eviction until UnpinSet. Fails with
  /// InvalidArgument if the cache cannot hold the whole set (partial pins
  /// are rolled back). Requires the Update approach and an enabled cache.
  Status PinSet(const std::string& set_id);

  /// Releases a pin (layers stay cached, evictable again). NotFound if the
  /// set is not pinned.
  Status UnpinSet(const std::string& set_id);

  /// Deletes a set through the garbage collector, serialized against
  /// recoveries. Fails with InvalidArgument if any pinned set needs the
  /// target for recovery. Invalidates cached layers/metadata of every
  /// collected set.
  Result<DeleteReport> DeleteSet(const std::string& set_id,
                                 const DeleteOptions& options = {});

  /// Retention sweep through the garbage collector; pinned sets (and their
  /// recovery lineage) are implicitly kept. Invalidates like DeleteSet.
  Result<DeleteReport> RetainOnly(const std::vector<std::string>& keep_set_ids);

  /// Runs the chain compactor (see core/compactor.h), serialized against
  /// in-flight recoveries like the GC entry points, and invalidates the
  /// cached layers and metadata of every rewritten set. Pinned sets are
  /// safe by construction — compaction preserves every set id and keeps
  /// recovery bit-exact, so a pinned set's lineage survives any rebase and
  /// its pinned layers (keyed by content hash) remain valid; the
  /// invalidation only drops the stale per-set metadata memos (recorded
  /// depths changed) and unpinned layer entries defensively.
  Result<CompactionReport> CompactChains(const CompactionPolicy& policy);

  /// Aggregate layer-cache counters.
  LayerCacheStats cache_stats() const { return layer_cache_.stats(); }

  /// Ids currently pinned, sorted.
  std::vector<std::string> PinnedSets() const;

  /// True if deleting `set_id` would be refused by the pin guard: the set
  /// is pinned, or some pinned set's recorded recovery lineage reaches it.
  /// Lets callers (e.g. the coordinator's rebalancer) test the guard
  /// before starting a multi-step operation whose delete leg would fail.
  Result<bool> PinProtects(const std::string& set_id) MMM_EXCLUDES(gate_);

  const ModelSetServiceOptions& options() const { return options_; }

  /// \name Coordinator hooks (see cluster/coordinator.h).
  /// @{

  /// Blocks until every in-flight recovery has finished, then returns.
  /// Requests arriving after the call proceed normally; the coordinator
  /// calls this with new traffic already fenced off (its topology lock),
  /// so the shard is quiescent when it is closed or migrated from.
  void Drain() MMM_EXCLUDES(gate_);

  /// One coherent stats snapshot (cache counters + pinned sets), so
  /// `mmmctl cluster status` reads each shard in one call.
  struct StatsSnapshot {
    LayerCacheStats cache;
    std::vector<std::string> pinned_sets;
    size_t workers = 0;
    bool cache_enabled = false;
  };
  StatsSnapshot Snapshot() const;

  /// Drops the cached layers and metadata of `set_ids` (sparing layers a
  /// pinned set still needs), serialized against in-flight recoveries.
  /// The coordinator calls this after migrating a set away so a stale
  /// entry can never answer for a set this shard no longer owns.
  void InvalidateSets(const std::vector<std::string>& set_ids);
  /// @}

 private:
  /// RecoveryCache view of the service handed to RecoverCached: layers go
  /// to the LayerCache, set metadata to the per-set memo.
  /// Calls are concurrent across worker lanes; the layer cache and the
  /// metadata memo each take their own lock (the layer cache at most twice
  /// per request: one probe, and one offer if anything was fetched). A
  /// layer hit copies a tensor that shares the entry's buffer, and a
  /// metadata hit shares the memo, so neither copies bytes or a hash
  /// table under its lock.
  class CacheAdapter : public RecoveryCache {
   public:
    explicit CacheAdapter(ModelSetService* service) : service_(service) {}
    std::vector<bool> GetLayers(std::span<const Sha256Digest> hashes,
                                std::span<Tensor> out) override;
    void PutLayers(std::span<const Sha256Digest> hashes,
                   std::span<const Tensor> values) override;
    std::shared_ptr<const SetMeta> GetSetMeta(const std::string& set_id) override;
    void PutSetMeta(const std::string& set_id,
                    std::shared_ptr<const SetMeta> meta) override;

   private:
    ModelSetService* service_;
  };

  Result<ModelSet> RecoverLocked(const std::string& set_id, ServeResult* result)
      MMM_REQUIRES_SHARED(gate_);
  /// Pin-guard walk shared by DeleteSet and PinProtects: returns the id of
  /// the pinned set whose recovery lineage reaches `set_id`, or "" if no
  /// pin protects it. Caller must hold gate_ (shared suffices — the walk
  /// only reads documents).
  std::string PinGuardOwner(const std::string& set_id)
      MMM_REQUIRES_SHARED(gate_) MMM_EXCLUDES(pin_mu_);
  /// Removes cached layers + metadata of the given deleted sets, sparing
  /// layers a pinned set still needs.
  void InvalidateDeleted(const std::vector<std::string>& deleted_set_ids)
      MMM_EXCLUDES(meta_mu_, pin_mu_);
  /// A set's layer hashes from the metadata memo (empty if unknown).
  std::vector<Sha256Digest> KnownHashesOf(const std::string& set_id)
      MMM_EXCLUDES(meta_mu_);

  ModelSetManager* manager_;
  ModelSetServiceOptions options_;
  LayerCache layer_cache_;
  CacheAdapter adapter_;
  std::unique_ptr<Executor> executor_;
  Mutex replay_mu_ MMM_LOCK_RANK(60);  ///< Executor dispatch is not reentrant.

  /// Readers (Recover) take it shared; DeleteSet/RetainOnly/PinSet take it
  /// exclusive, so the GC never races a recovery mid-walk. Lock order:
  /// replay_mu_ > gate_ > meta_mu_ > pin_mu_ (see DESIGN.md §6.2).
  SharedMutex gate_ MMM_LOCK_RANK(70);

  mutable Mutex meta_mu_ MMM_LOCK_RANK(80);
  /// set id -> metadata memo (hash table + architecture), one entry per set
  /// served, pruned when the set is deleted or rewritten. Besides saving
  /// hash-blob reads, it is what lets the GC invalidate a collected set's
  /// layers.
  std::unordered_map<std::string, std::shared_ptr<const SetMeta>> meta_index_
      MMM_GUARDED_BY(meta_mu_);

  mutable Mutex pin_mu_ MMM_LOCK_RANK(90);
  /// set id -> flattened layer hashes pinned for it.
  std::unordered_map<std::string, std::vector<Sha256Digest>> pinned_sets_
      MMM_GUARDED_BY(pin_mu_);
  /// raw 32-byte digest -> number of pinned sets referencing the layer.
  std::unordered_map<std::string, uint64_t> pinned_hash_refs_
      MMM_GUARDED_BY(pin_mu_);
};

}  // namespace mmm

#endif  // MMM_SERVE_SERVICE_H_
