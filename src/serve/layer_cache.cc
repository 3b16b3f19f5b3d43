#include "serve/layer_cache.h"

#include <algorithm>
#include <array>
#include <bit>

namespace mmm {

namespace {

/// Per-row multipliers of the sketch's index hash (Caffeine's seeds).
constexpr uint64_t kSketchSeeds[4] = {0xc3a5c85c97cb3127ull,
                                      0xb492b66fbe98f273ull,
                                      0x9ae16a3b2f90404full,
                                      0xcbf29ce484222325ull};

/// Bounds of the sketch's width. Below 1,024 counters a row, a run of
/// distinct keys a few times the cache's entry count already inflates the
/// estimates of keys seen once; above 2^20 (4 MiB of counters, for a cache
/// of 256 MiB or more) the sketch stops growing with the capacity.
constexpr uint64_t kMinSketchWidth = 1024;
constexpr uint64_t kMaxSketchWidth = uint64_t{1} << 20;

}  // namespace

FrequencySketch::FrequencySketch(uint64_t width)
    : mask_(std::bit_ceil(
                std::clamp(width, kMinSketchWidth, kMaxSketchWidth)) -
            1),
      sample_size_(10 * (mask_ + 1)),
      counters_(kRows * (mask_ + 1), 0) {}

size_t FrequencySketch::IndexOf(uint64_t key, size_t row) const {
  uint64_t h = (key + kSketchSeeds[row]) * kSketchSeeds[row];
  h += h >> 32;
  return row * (mask_ + 1) + (h & mask_);
}

void FrequencySketch::Record(uint64_t key) {
  bool counted = false;
  for (size_t row = 0; row < kRows; ++row) {
    uint8_t& counter = counters_[IndexOf(key, row)];
    if (counter < kMaxCount) {
      counter += 1;
      counted = true;
    }
  }
  if (counted && ++events_ == sample_size_) Age();
}

uint32_t FrequencySketch::Estimate(uint64_t key) const {
  uint32_t estimate = kMaxCount;
  for (size_t row = 0; row < kRows; ++row) {
    estimate = std::min<uint32_t>(estimate, counters_[IndexOf(key, row)]);
  }
  return estimate;
}

void FrequencySketch::Age() {
  for (uint8_t& counter : counters_) counter >>= 1;
  events_ /= 2;
}

LayerCache::LayerCache(uint64_t capacity_bytes)
    : capacity_(capacity_bytes),
      protected_capacity_(capacity_bytes / 100 * kProtectedPercent +
                          capacity_bytes % 100 * kProtectedPercent / 100),
      record_threshold_(capacity_bytes - capacity_bytes / 8 *
                                             (8 - kRecordFullEighths)),
      sketch_(capacity_bytes / kBytesPerSketchCounter) {}

uint64_t LayerCache::ChargeOf(const Tensor& value) {
  // The entry, the two index slots it has at the index's highest load, and
  // the buffer's header.
  static const uint64_t kOverhead = sizeof(Entry) + 2 * sizeof(Index::Slot) +
                                    Tensor::BufferHeaderBytes();
  return value.numel() * sizeof(float) + kOverhead;
}

void LayerCache::Segment::PushFront(Entry* entry) {
  entry->prev = nullptr;
  entry->next = head;
  if (head != nullptr) {
    head->prev = entry;
  } else {
    tail = entry;
  }
  head = entry;
}

void LayerCache::Segment::Unlink(Entry* entry) {
  (entry->prev != nullptr ? entry->prev->next : head) = entry->next;
  (entry->next != nullptr ? entry->next->prev : tail) = entry->prev;
  entry->prev = nullptr;
  entry->next = nullptr;
}

void LayerCache::Touch(Entry* entry) {
  if (entry->is_protected) {
    protected_.Unlink(entry);
    protected_.PushFront(entry);
    return;
  }
  entry->is_protected = true;
  bytes_protected_ += entry->charge;
  probation_.Unlink(entry);
  protected_.PushFront(entry);
  while (bytes_protected_ > protected_capacity_) {
    Entry* demoted = protected_.tail;
    demoted->is_protected = false;
    bytes_protected_ -= demoted->charge;
    protected_.Unlink(demoted);
    probation_.PushFront(demoted);
  }
}

namespace {

/// Hints the CPU to fetch every cache line of `bytes` bytes at `p`.
void PrefetchLines(const void* p, size_t bytes) {
  constexpr uintptr_t kLine = 64;
  const uintptr_t start = reinterpret_cast<uintptr_t>(p);
  for (uintptr_t line = start & ~(kLine - 1); line < start + bytes;
       line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

}  // namespace

std::vector<bool> LayerCache::Get(std::span<const Sha256Digest> hashes,
                                  std::span<Tensor> out) {
  constexpr size_t kD = kProbeDistance;
  const size_t n = hashes.size();
  std::vector<bool> hit(n, false);
  // The slot step two found for each of the last kD probes; step three
  // reads probe k's before step two overwrites it with probe k + kD's.
  std::array<size_t, kD> scanned{};
  size_t hits = 0;
  MutexLock lock(mu_);
  found_.assign(n, nullptr);
  if (bytes_used_ >= record_threshold_) {
    for (const Sha256Digest& hash : hashes) sketch_.Record(SketchKey(hash));
  }
  for (size_t i = 0; i < n + 2 * kD; ++i) {
    // Step three, probe k: check the key, prefetch the buffer's counts.
    if (i >= 2 * kD) {
      const size_t k = i - 2 * kD;
      Entry* entry = index_.FindFrom(scanned[k % kD], hashes[k]);
      if (entry != nullptr) {
        entry->value.PrefetchBuffer();
        found_[k] = entry;
        hit[k] = true;
        hits += 1;
      }
    }
    // Step two, probe j: find the first slot with its tag, prefetch the
    // entry there.
    if (i >= kD && i - kD < n) {
      const size_t j = i - kD;
      const uint64_t tag = Index::TagOf(hashes[j]);
      const size_t slot = index_.Scan(index_.Home(tag), tag);
      scanned[j % kD] = slot;
      if (const Entry* entry = index_.At(slot)) {
        PrefetchLines(entry, sizeof(Entry));
      }
    }
    // Step one, probe i: prefetch its home slot.
    if (i < n) index_.Prefetch(index_.Home(Index::TagOf(hashes[i])));
  }
  for (size_t i = 0; i < n; ++i) {
    if (found_[i] != nullptr) out[i] = found_[i]->value;
  }
  for (Entry* entry : found_) {
    if (entry != nullptr) Touch(entry);
  }
  hits_ += hits;
  misses_ += n - hits;
  return hit;
}

bool LayerCache::Contains(const Sha256Digest& hash) const {
  MutexLock lock(mu_);
  return index_.Find(hash) != nullptr;
}

void LayerCache::Erase(Entry* entry) {
  bytes_used_ -= entry->charge;
  if (entry->pinned) bytes_pinned_ -= entry->charge;
  if (entry->is_protected) {
    bytes_protected_ -= entry->charge;
    protected_.Unlink(entry);
  } else {
    probation_.Unlink(entry);
  }
  index_.Erase(entry->key);
}

bool LayerCache::Admits(uint64_t key, uint64_t charge) const {
  const uint32_t frequency = sketch_.Estimate(key);
  // The victims the eviction loop in PutOne would take, in its order.
  uint64_t freed = 0;
  for (const Segment* segment : {&probation_, &protected_}) {
    for (const Entry* victim = segment->tail;
         victim != nullptr && bytes_used_ - freed + charge > capacity_;
         victim = victim->prev) {
      if (victim->pinned) continue;
      if (sketch_.Estimate(SketchKey(victim->key)) >= frequency) {
        return false;
      }
      freed += victim->charge;
    }
  }
  return true;
}

bool LayerCache::PutOne(const Sha256Digest& hash, const Tensor& value,
                        bool pinned) {
  const uint64_t charge = ChargeOf(value);
  if (Entry* resident = index_.Find(hash)) {
    // Content-hash keys are immutable: the resident value is already
    // correct. Honor a pin request, otherwise decline the duplicate.
    if (pinned && !resident->pinned) {
      resident->pinned = true;
      bytes_pinned_ += resident->charge;
      return true;
    }
    rejected_ += 1;
    return false;
  }
  // Only unpinned bytes can be evicted; decline before evicting anything
  // if even all of them would not make room.
  if (charge > capacity_ - bytes_pinned_) {
    rejected_ += 1;
    return false;
  }
  if (!pinned && bytes_used_ + charge > capacity_ &&
      !Admits(SketchKey(hash), charge)) {
    declined_ += 1;
    return false;
  }
  for (Segment* segment : {&probation_, &protected_}) {
    Entry* victim = segment->tail;
    while (bytes_used_ + charge > capacity_ && victim != nullptr) {
      Entry* newer = victim->prev;
      if (!victim->pinned) {
        Erase(victim);
        evictions_ += 1;
      }
      victim = newer;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->key = hash;
  entry->value = value;
  entry->charge = charge;
  entry->pinned = pinned;
  probation_.PushFront(entry.get());
  index_.Insert(std::move(entry));
  bytes_used_ += charge;
  if (pinned) bytes_pinned_ += charge;
  inserts_ += 1;
  return true;
}

size_t LayerCache::Put(std::span<const Sha256Digest> hashes,
                       std::span<const Tensor> values, bool pinned) {
  size_t admitted = 0;
  MutexLock lock(mu_);
  for (size_t i = 0; i < hashes.size(); ++i) {
    admitted += PutOne(hashes[i], values[i], pinned) ? 1 : 0;
  }
  return admitted;
}

bool LayerCache::Pin(const Sha256Digest& hash) {
  MutexLock lock(mu_);
  Entry* entry = index_.Find(hash);
  if (entry == nullptr) return false;
  if (!entry->pinned) {
    entry->pinned = true;
    bytes_pinned_ += entry->charge;
  }
  return true;
}

void LayerCache::Unpin(const Sha256Digest& hash) {
  MutexLock lock(mu_);
  Entry* entry = index_.Find(hash);
  if (entry == nullptr || !entry->pinned) return;
  entry->pinned = false;
  bytes_pinned_ -= entry->charge;
}

bool LayerCache::Invalidate(const Sha256Digest& hash) {
  MutexLock lock(mu_);
  Entry* entry = index_.Find(hash);
  if (entry == nullptr) return false;
  Erase(entry);
  invalidated_ += 1;
  return true;
}

void LayerCache::Clear() {
  MutexLock lock(mu_);
  invalidated_ += index_.size();
  probation_ = Segment{};
  protected_ = Segment{};
  index_.Clear();
  bytes_used_ = 0;
  bytes_pinned_ = 0;
  bytes_protected_ = 0;
}

LayerCacheStats LayerCache::stats() const {
  MutexLock lock(mu_);
  LayerCacheStats out;
  out.capacity_bytes = capacity_;
  out.hits = hits_;
  out.misses = misses_;
  out.inserts = inserts_;
  out.evictions = evictions_;
  out.rejected = rejected_;
  out.declined = declined_;
  out.invalidated = invalidated_;
  out.bytes_used = bytes_used_;
  out.bytes_pinned = bytes_pinned_;
  out.entries = index_.size();
  return out;
}

}  // namespace mmm
