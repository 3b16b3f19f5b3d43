#ifndef MMM_SERVE_LAYER_CACHE_H_
#define MMM_SERVE_LAYER_CACHE_H_

#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "serialize/sha256.h"
#include "tensor/tensor.h"

namespace mmm {

/// \brief Aggregate counters of a LayerCache, summed over all shards.
struct LayerCacheStats {
  uint64_t hits = 0;         ///< Get calls that found the hash.
  uint64_t misses = 0;       ///< Get calls that did not.
  uint64_t inserts = 0;      ///< Puts that admitted a new entry.
  uint64_t evictions = 0;    ///< Entries evicted to make room.
  uint64_t rejected = 0;     ///< Puts declined (would not fit / duplicate).
  uint64_t invalidated = 0;  ///< Entries removed by Invalidate.
  uint64_t bytes_used = 0;   ///< Charged bytes currently resident.
  uint64_t bytes_pinned = 0; ///< Charged bytes of pinned entries.
  uint64_t entries = 0;      ///< Resident entry count.
  uint64_t capacity_bytes = 0;
};

/// \brief Sharded, layer-granular LRU cache of decoded parameter tensors,
/// keyed by the per-layer SHA-256 content hash the Update approach persists.
///
/// Content-hash keys make entries immutable by construction: a hash can only
/// ever map to one tensor value, so concurrent Puts for the same key are
/// idempotent and a hit always returns exactly the bytes a store recovery
/// would have produced. Entries hold a `shared_ptr<const Tensor>`, so a hit
/// shares the tensor instead of copying it under the shard lock, and an
/// evicted tensor stays alive for every reader still holding it. A set
/// assembled from hits shares the entries' buffers too; a caller's first
/// write to one of its tensors copies that buffer (Tensor is copy-on-write),
/// so no write ever reaches an entry.
///
/// The capacity bound is strict *per shard* (shard capacity = total /
/// shards), which also bounds the global footprint: charged bytes never
/// exceed `capacity_bytes()`, even transiently. A Put that cannot fit after
/// evicting every unpinned entry of its shard is declined. Pinned entries
/// are never evicted (but are removed by Invalidate/Clear, which track
/// explicit deletion, not capacity pressure).
///
/// Each shard has its own mutex; the shard is chosen from digest bytes — so
/// uniformly distributed — and lookups for different layers mostly touch
/// different locks.
class LayerCache {
 public:
  /// \param capacity_bytes total charged-byte budget across all shards
  /// \param shards number of independently locked LRU shards (>= 1)
  explicit LayerCache(uint64_t capacity_bytes, size_t shards = 8);

  /// Returns the cached tensor for `hash` and marks the entry
  /// most-recently used, or null on a miss.
  std::shared_ptr<const Tensor> Get(const Sha256Digest& hash);

  /// True if the hash is resident (does not touch LRU order or counters).
  bool Contains(const Sha256Digest& hash) const;

  /// Admits a tensor under its content hash, evicting least-recently-used
  /// unpinned entries of the target shard as needed. Returns false if the
  /// entry was declined (already resident, or cannot fit). `pinned` admits
  /// the entry pre-pinned (used by PinSet so a pin can never lose the race
  /// against eviction).
  bool Put(const Sha256Digest& hash, std::shared_ptr<const Tensor> value,
           bool pinned = false);

  /// Pins a resident entry, shielding it from eviction. Returns false if
  /// the hash is not resident.
  bool Pin(const Sha256Digest& hash);

  /// Drops a pin (no-op if absent or unpinned).
  void Unpin(const Sha256Digest& hash);

  /// Removes an entry regardless of pin state. Returns true if it was
  /// resident.
  bool Invalidate(const Sha256Digest& hash);

  /// Removes everything, including pinned entries.
  void Clear();

  /// Charged size of one cached tensor: payload plus bookkeeping overhead.
  static uint64_t ChargeOf(const Tensor& value);

  uint64_t capacity_bytes() const { return shard_capacity_ * shards_.size(); }
  size_t shards() const { return shards_.size(); }

  /// Consistent aggregate snapshot (locks the shards one at a time).
  LayerCacheStats stats() const;

 private:
  struct Key {
    std::array<uint8_t, 32> bytes;
    bool operator==(const Key& other) const { return bytes == other.bytes; }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // A SHA-256 prefix is already uniformly distributed.
      uint64_t h;
      std::memcpy(&h, k.bytes.data(), sizeof(h));
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const Tensor> value;
    uint64_t charge = 0;
    bool pinned = false;
  };
  struct Shard {
    mutable Mutex mu MMM_LOCK_RANK(100);
    std::list<Entry> lru MMM_GUARDED_BY(mu);  ///< front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index
        MMM_GUARDED_BY(mu);
    uint64_t bytes_used MMM_GUARDED_BY(mu) = 0;
    uint64_t bytes_pinned MMM_GUARDED_BY(mu) = 0;
    uint64_t hits MMM_GUARDED_BY(mu) = 0;
    uint64_t misses MMM_GUARDED_BY(mu) = 0;
    uint64_t inserts MMM_GUARDED_BY(mu) = 0;
    uint64_t evictions MMM_GUARDED_BY(mu) = 0;
    uint64_t rejected MMM_GUARDED_BY(mu) = 0;
    uint64_t invalidated MMM_GUARDED_BY(mu) = 0;
  };

  Shard& ShardOf(const Sha256Digest& hash);
  const Shard& ShardOf(const Sha256Digest& hash) const;

  uint64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mmm

#endif  // MMM_SERVE_LAYER_CACHE_H_
