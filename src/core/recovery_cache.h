#ifndef MMM_CORE_RECOVERY_CACHE_H_
#define MMM_CORE_RECOVERY_CACHE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/blob_formats.h"
#include "core/model_set.h"
#include "nn/architecture.h"
#include "serialize/sha256.h"
#include "tensor/tensor.h"

namespace mmm {

/// \brief Per-request cache effectiveness counters, filled by the cached
/// recovery path (see UpdateApproach::RecoverCached).
struct CacheRequestStats {
  /// Layers served from the cache (content-hash lookups that hit).
  uint64_t layer_hits = 0;
  /// Layers that had to be fetched and decoded from the store.
  uint64_t layer_misses = 0;
  /// Set-metadata memo hits (hash table + architecture found cached).
  uint64_t meta_hits = 0;
  /// Set-metadata memo misses (hash blob re-read from the store).
  uint64_t meta_misses = 0;
  /// Sets assembled purely from cached layers (no blob read at all).
  uint64_t sets_from_cache = 0;

  CacheRequestStats& operator+=(const CacheRequestStats& other) {
    layer_hits += other.layer_hits;
    layer_misses += other.layer_misses;
    meta_hits += other.meta_hits;
    meta_misses += other.meta_misses;
    sets_from_cache += other.sets_from_cache;
    return *this;
  }
};

/// \brief Per-set metadata the cached recovery path resolves once per set:
/// the set's stored per-layer hash table, the architecture it decodes
/// against, and the layer CRC table of its chain's root snapshot. Immutable
/// once built, so a memo can hand out shared references.
struct SetMeta {
  /// The stored hash table, one digest per slot: hashes[m * num_params + p]
  /// is parameter p of model m.
  std::vector<Sha256Digest> hashes;
  ArchitectureSpec spec;
  /// The root snapshot's param blob, its parsed header, and its layer CRC
  /// table, laid out like `hashes`, which check the layers a recovery reads
  /// from it by range. The table is empty, and the header unset, when the
  /// blob is read whole (compressed, CAS-chunked or MMMPARM1). A recovery
  /// uses them only while the chain's root still has this blob.
  std::string root_param_blob;
  ParamBlobLayout root_layout;
  std::vector<uint32_t> root_layer_crcs;
};

/// \brief Interface of a layer-granular recovery cache, consulted by the
/// Update approach's read path (implemented by serve/ModelSetService).
///
/// The cache key for parameter tensors is the per-layer SHA-256 content hash
/// the Update approach already persists for change detection (§3.3 step 2):
/// layers shared between a base set and its derived sets have identical
/// hashes, so one cached decode serves every set that contains the layer.
/// Entries are therefore immutable by construction — a content hash can
/// never map to stale bytes — and a reader's copy of one shares its buffer
/// (Tensor is copy-on-write), so a hit never copies bytes. The *document
/// store* remains the single root of trust: every recovery starts with a
/// live set-document fetch, so a cache can never resurrect a deleted set.
///
/// RecoverCached offers a layer only after it was verified: every blob it
/// was decoded from passed its CRC check, or, for a layer read by range
/// from the root snapshot, its bytes matched their entry of the root's
/// layer CRC table. Layers are offered only under the requested set's
/// hashes, so an entry never holds bytes a corrupt blob produced.
///
/// Layer calls are batched, one probe and one offer per request, so an
/// implementation can take its lock once for all of a request's layers.
/// Implementations must be safe for concurrent calls; lookups and inserts
/// are advisory (a cache may decline to admit or may have evicted anything).
class RecoveryCache {
 public:
  virtual ~RecoveryCache() = default;

  /// Probes every layer of one request at once. A hit copies the tensor
  /// cached under `hashes[i]` into `out[i]`, sharing its buffer; a miss
  /// leaves `out[i]` as it was. `out` is as long as `hashes`. Returns one
  /// hit flag per hash.
  virtual std::vector<bool> GetLayers(std::span<const Sha256Digest> hashes,
                                      std::span<Tensor> out) = 0;

  /// Offers the verified, decoded layers of one request at once, `values[i]`
  /// under `hashes[i]` (any may be declined). An admitted value is copied
  /// into the cache's entry, sharing its buffer; the caller keeps every
  /// value. RecoverCached makes no offer when it fetched nothing.
  virtual void PutLayers(std::span<const Sha256Digest> hashes,
                         std::span<const Tensor> values) = 0;

  /// Returns the memoized metadata of a set, or null on a miss.
  virtual std::shared_ptr<const SetMeta> GetSetMeta(const std::string& set_id) = 0;

  /// Memoizes a set's metadata after a recovery resolved it from the store.
  virtual void PutSetMeta(const std::string& set_id,
                          std::shared_ptr<const SetMeta> meta) = 0;
};

}  // namespace mmm

#endif  // MMM_CORE_RECOVERY_CACHE_H_
