#ifndef MMM_SERVE_LAYER_CACHE_H_
#define MMM_SERVE_LAYER_CACHE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "serialize/sha256.h"
#include "serve/digest_index.h"
#include "tensor/tensor.h"

namespace mmm {

/// \brief Aggregate counters of a LayerCache.
struct LayerCacheStats {
  uint64_t hits = 0;         ///< Probes that found the hash.
  uint64_t misses = 0;       ///< Probes that did not.
  uint64_t inserts = 0;      ///< Offers that admitted a new entry.
  uint64_t evictions = 0;    ///< Entries evicted to make room.
  uint64_t rejected = 0;     ///< Offers declined (would not fit / duplicate).
  uint64_t declined = 0;     ///< Offers the admission filter turned away.
  uint64_t invalidated = 0;  ///< Entries removed by Invalidate.
  uint64_t bytes_used = 0;   ///< Charged bytes currently resident.
  uint64_t bytes_pinned = 0; ///< Charged bytes of pinned entries.
  uint64_t entries = 0;      ///< Resident entry count.
  uint64_t capacity_bytes = 0;
};

/// \brief Count-min sketch of small saturating counters: how often each
/// key was seen recently, for LayerCache's admission filter (TinyLFU,
/// Einziger, Friedman & Manes, ACM TOS 2017; Caffeine's FrequencySketch).
///
/// Four rows of `width` one-byte counters; a key counts once in each row,
/// at an index its 64-bit hash picks, and its estimate is the smallest of
/// its four counters. Counters saturate at 15. Once the recorded events reach
/// ten times the width, every counter is halved, so the estimate tracks
/// recent frequency and an old burst fades.
class FrequencySketch {
 public:
  /// \param width counters per row; clamped to [2^10, 2^20] and rounded
  /// up to a power of two
  explicit FrequencySketch(uint64_t width);

  /// Counts one occurrence of `key`.
  void Record(uint64_t key);
  /// Estimated recent occurrences of `key`, 0..15.
  uint32_t Estimate(uint64_t key) const;

 private:
  static constexpr size_t kRows = 4;
  static constexpr uint8_t kMaxCount = 15;

  size_t IndexOf(uint64_t key, size_t row) const;
  /// Halves every counter and the event count.
  void Age();

  uint64_t mask_;
  uint64_t sample_size_;
  uint64_t events_ = 0;
  std::vector<uint8_t> counters_;  ///< kRows rows of mask_ + 1 counters
};

/// \brief Layer-granular cache of decoded parameter tensors, keyed by the
/// per-layer SHA-256 content hash the Update approach persists, with one
/// segmented-LRU recency order and a frequency-gated admission filter
/// under one lock.
///
/// Content-hash keys make entries immutable by construction: a hash can only
/// ever map to one tensor value, so concurrent Puts for the same key are
/// idempotent and a hit always returns exactly the bytes a store recovery
/// would have produced. Each entry is one allocation holding its key, its
/// Tensor by value and its recency links; one open-addressed DigestIndex
/// owns the entries and finds them by digest, with no node of its own. A
/// hit copies the tensor into the caller's slot: the copy shares the
/// entry's buffer, and its shape is inline, so it costs one reference-count
/// bump and no allocation. An evicted entry's buffer stays
/// alive for every reader still holding a copy. A caller's first write to
/// such a copy copies the buffer (Tensor is copy-on-write), so no write
/// ever reaches an entry.
///
/// Recency is segmented: a new entry starts on probation; a hit promotes it
/// to the protected segment, which holds at most kProtectedPercent of the
/// capacity (its least recently used entries fall back to the head of
/// probation). Eviction takes the probation tail first, then the protected
/// tail.
///
/// Admission is gated by frequency (TinyLFU): a FrequencySketch, sized from
/// the capacity, counts the probes of every hash while the cache is at
/// least kRecordFullEighths/8 full (a cache with room to spare needs no
/// history, and its probes stay cheap). An unpinned offer that fits in the
/// free room is admitted. One that would have to evict is admitted only if
/// its estimated frequency is greater than that of every entry it would
/// evict, least recently used first; a tie declines it, and a declined
/// offer evicts nothing. So a layer probed once cannot push out layers
/// probed more often, and a cache smaller than its working set keeps the
/// layers most requests share instead of turning over on every request.
/// The sketch halves its counts as it fills, so no entry outlives its
/// popularity. Pinned offers bypass the filter.
///
/// Calls are batched: Get and Put take every layer of one request and hold
/// the lock once for all of them. A batch behaves exactly like the same
/// layers offered one call each. Get pipelines its probes so that their
/// cache misses overlap (see Get).
///
/// The capacity bound is strict: charged bytes never exceed
/// `capacity_bytes()`, even transiently. An offer that cannot fit after
/// evicting every unpinned entry is declined without evicting anything.
/// Pinned entries are never evicted (but are removed by Invalidate/Clear,
/// which track explicit deletion, not capacity pressure).
class LayerCache {
 public:
  /// Share of the capacity the protected segment may hold, in percent.
  static constexpr uint64_t kProtectedPercent = 80;
  /// Probes are counted in the sketch only while the charged bytes are at
  /// least this many eighths of the capacity.
  static constexpr uint64_t kRecordFullEighths = 7;
  /// Capacity bytes per sketch counter (per row): the sketch's width is
  /// the capacity over this, rounded up to a power of two.
  static constexpr uint64_t kBytesPerSketchCounter = 256;
  /// Probes between two stages of Get's pipeline.
  static constexpr size_t kProbeDistance = 4;

  /// \param capacity_bytes charged-byte budget
  explicit LayerCache(uint64_t capacity_bytes);

  /// Probes `hashes`. On a hit, `out[i]` receives a copy of the tensor
  /// cached under `hashes[i]` (sharing its buffer) and the entry is marked
  /// most recently used, in request order; on a miss `out[i]` is left as it
  /// was. `out` must be as long as `hashes`. Returns one hit flag per hash.
  ///
  /// The lookups are software-pipelined (group prefetching, Chen,
  /// Ailamaki, Gibbons & Mowry, ICDE 2004): while probe i's key is checked
  /// and its buffer's reference counts are prefetched, probe i +
  /// kProbeDistance resolves its slot and prefetches its entry, and probe
  /// i + 2 * kProbeDistance prefetches its slot. The hits are then copied
  /// in a second pass and touched in a third, so each reference-count
  /// increment finds its line already fetched.
  std::vector<bool> Get(std::span<const Sha256Digest> hashes,
                        std::span<Tensor> out);

  /// True if the hash is resident (does not touch recency or counters).
  bool Contains(const Sha256Digest& hash) const;

  /// Offers `values[i]` under `hashes[i]`, in order, each evicting as
  /// needed (see the class comment). An offer is declined if its hash is
  /// already resident, it cannot fit, or the admission filter turns it
  /// away. An admitted value is copied into a new entry, which shares its
  /// buffer. `pinned` admits the entries pre-pinned, past the filter, and
  /// pins an entry already resident (used by PinSet, so a pin can never
  /// lose the race against eviction). Returns the number of offers
  /// admitted or pinned.
  size_t Put(std::span<const Sha256Digest> hashes,
             std::span<const Tensor> values, bool pinned = false);

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

  /// Charged size of one cached tensor: its values plus the bytes its entry
  /// adds (the entry, its share of the index's slots and the buffer's
  /// header), so capacity also bounds the footprint of many tiny layers.
  static uint64_t ChargeOf(const Tensor& value);

  uint64_t capacity_bytes() const { return capacity_; }

  /// Consistent snapshot of the counters.
  LayerCacheStats stats() const;

 private:
  /// The sketch's key: the digest's second 8 bytes, independent of the
  /// index's tag.
  static uint64_t SketchKey(const Sha256Digest& hash) {
    uint64_t h;
    std::memcpy(&h, hash.bytes.data() + 8, sizeof(h));
    return h;
  }
  /// One cached layer. The key and the tensor's hot fields lead, so a
  /// probe's key check and its copy read the entry's first lines.
  struct Entry {
    Sha256Digest key;
    Tensor value;
    Entry* prev = nullptr;  ///< toward its segment's head (more recent)
    Entry* next = nullptr;  ///< toward its segment's tail
    uint64_t charge = 0;
    bool pinned = false;
    bool is_protected = false;
  };
  /// An intrusive recency list of entries; the index owns them.
  struct Segment {
    Entry* head = nullptr;  ///< most recently used
    Entry* tail = nullptr;
    void PushFront(Entry* entry);
    void Unlink(Entry* entry);
  };
  using Index = DigestIndex<Entry>;

  /// Marks a hit: moves the entry to the head of the protected segment,
  /// then demotes protected tail entries to probation while the segment
  /// is over its share.
  void Touch(Entry* entry) MMM_REQUIRES(mu_);
  /// The admission filter: true if an unpinned offer of `charge` bytes
  /// whose sketch key is `key` is more frequent than every entry it would
  /// evict. Evicts nothing.
  bool Admits(uint64_t key, uint64_t charge) const MMM_REQUIRES(mu_);
  /// Offers one value (see Put). Returns true if it was admitted or pinned.
  bool PutOne(const Sha256Digest& hash, const Tensor& value, bool pinned)
      MMM_REQUIRES(mu_);
  /// Unlinks an entry from its segment and destroys it.
  void Erase(Entry* entry) MMM_REQUIRES(mu_);

  const uint64_t capacity_;
  const uint64_t protected_capacity_;
  const uint64_t record_threshold_;

  mutable Mutex mu_ MMM_LOCK_RANK(100);
  Segment probation_ MMM_GUARDED_BY(mu_);
  Segment protected_ MMM_GUARDED_BY(mu_);
  Index index_ MMM_GUARDED_BY(mu_);  ///< owns every entry
  /// Get's hits, one per probe (null on a miss); kept to spare each
  /// request an allocation.
  std::vector<Entry*> found_ MMM_GUARDED_BY(mu_);
  FrequencySketch sketch_ MMM_GUARDED_BY(mu_);
  uint64_t bytes_used_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t bytes_pinned_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t bytes_protected_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t hits_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t misses_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t inserts_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t declined_ MMM_GUARDED_BY(mu_) = 0;
  uint64_t invalidated_ MMM_GUARDED_BY(mu_) = 0;
};

}  // namespace mmm

#endif  // MMM_SERVE_LAYER_CACHE_H_
