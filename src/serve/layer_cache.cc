#include "serve/layer_cache.h"

#include <algorithm>
#include <bit>
#include <iterator>

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
  // Payload plus an estimate of list/map node + Entry overhead, so capacity
  // also bounds the footprint of many tiny layers.
  return value.numel() * sizeof(float) + 96;
}

void LayerCache::Touch(List::iterator entry) {
  if (entry->is_protected) {
    protected_.splice(protected_.begin(), protected_, entry);
    return;
  }
  entry->is_protected = true;
  bytes_protected_ += entry->charge;
  protected_.splice(protected_.begin(), probation_, entry);
  while (bytes_protected_ > protected_capacity_) {
    auto demoted = std::prev(protected_.end());
    demoted->is_protected = false;
    bytes_protected_ -= demoted->charge;
    probation_.splice(probation_.begin(), protected_, demoted);
  }
}

std::vector<bool> LayerCache::Get(std::span<const Sha256Digest> hashes,
                                  std::span<Tensor> out) {
  std::vector<bool> hit(hashes.size(), false);
  size_t found = 0;
  MutexLock lock(mu_);
  if (bytes_used_ >= record_threshold_) {
    for (const Sha256Digest& hash : hashes) sketch_.Record(SketchKey(hash.bytes));
  }
  for (size_t i = 0; i < hashes.size(); ++i) {
    auto it = index_.find(Key{hashes[i].bytes});
    if (it == index_.end()) continue;
    out[i] = it->second->value;
    hit[i] = true;
    Touch(it->second);
    found += 1;
  }
  hits_ += found;
  misses_ += hashes.size() - found;
  return hit;
}

bool LayerCache::Contains(const Sha256Digest& hash) const {
  MutexLock lock(mu_);
  return index_.find(Key{hash.bytes}) != index_.end();
}

LayerCache::List::iterator LayerCache::Erase(List::iterator entry) {
  bytes_used_ -= entry->charge;
  if (entry->pinned) bytes_pinned_ -= entry->charge;
  List& segment = entry->is_protected ? protected_ : probation_;
  if (entry->is_protected) bytes_protected_ -= entry->charge;
  index_.erase(entry->key);
  return segment.erase(entry);
}

bool LayerCache::Admits(uint64_t key, uint64_t charge) const {
  const uint32_t frequency = sketch_.Estimate(key);
  // The victims the eviction loop in PutOne would take, in its order.
  uint64_t freed = 0;
  for (const List* segment : {&probation_, &protected_}) {
    for (auto victim = segment->rbegin();
         victim != segment->rend() && bytes_used_ - freed + charge > capacity_;
         ++victim) {
      if (victim->pinned) continue;
      if (sketch_.Estimate(SketchKey(victim->key.bytes)) >= frequency) {
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
  auto it = index_.find(Key{hash.bytes});
  if (it != index_.end()) {
    // Content-hash keys are immutable: the resident value is already
    // correct. Honor a pin request, otherwise decline the duplicate.
    if (pinned && !it->second->pinned) {
      it->second->pinned = true;
      bytes_pinned_ += it->second->charge;
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
      !Admits(SketchKey(hash.bytes), charge)) {
    declined_ += 1;
    return false;
  }
  for (List* segment : {&probation_, &protected_}) {
    auto victim = segment->end();
    while (bytes_used_ + charge > capacity_ && victim != segment->begin()) {
      --victim;
      if (victim->pinned) continue;
      victim = Erase(victim);
      evictions_ += 1;
    }
  }
  probation_.push_front(
      Entry{Key{hash.bytes}, value, charge, pinned, /*is_protected=*/false});
  index_[Key{hash.bytes}] = probation_.begin();
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
  auto it = index_.find(Key{hash.bytes});
  if (it == index_.end()) return false;
  if (!it->second->pinned) {
    it->second->pinned = true;
    bytes_pinned_ += it->second->charge;
  }
  return true;
}

void LayerCache::Unpin(const Sha256Digest& hash) {
  MutexLock lock(mu_);
  auto it = index_.find(Key{hash.bytes});
  if (it == index_.end() || !it->second->pinned) return;
  it->second->pinned = false;
  bytes_pinned_ -= it->second->charge;
}

bool LayerCache::Invalidate(const Sha256Digest& hash) {
  MutexLock lock(mu_);
  auto it = index_.find(Key{hash.bytes});
  if (it == index_.end()) return false;
  Erase(it->second);
  invalidated_ += 1;
  return true;
}

void LayerCache::Clear() {
  MutexLock lock(mu_);
  invalidated_ += index_.size();
  probation_.clear();
  protected_.clear();
  index_.clear();
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
