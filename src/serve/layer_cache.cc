#include "serve/layer_cache.h"

#include <iterator>

namespace mmm {

LayerCache::LayerCache(uint64_t capacity_bytes)
    : capacity_(capacity_bytes),
      protected_capacity_(capacity_bytes / 100 * kProtectedPercent +
                          capacity_bytes % 100 * kProtectedPercent / 100) {}

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

size_t LayerCache::Get(std::span<const Sha256Digest> hashes,
                       std::span<std::shared_ptr<const Tensor>> out) {
  size_t found = 0;
  MutexLock lock(mu_);
  for (size_t i = 0; i < hashes.size(); ++i) {
    auto it = index_.find(Key{hashes[i].bytes});
    if (it == index_.end()) {
      out[i] = nullptr;
      continue;
    }
    out[i] = it->second->value;
    Touch(it->second);
    found += 1;
  }
  hits_ += found;
  misses_ += hashes.size() - found;
  return found;
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

bool LayerCache::PutOne(const Sha256Digest& hash,
                        std::shared_ptr<const Tensor> value, bool pinned) {
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
  const uint64_t charge = ChargeOf(*value);
  // Only unpinned bytes can be evicted; decline before evicting anything
  // if even all of them would not make room.
  if (charge > capacity_ - bytes_pinned_) {
    rejected_ += 1;
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
  probation_.push_front(Entry{Key{hash.bytes}, std::move(value), charge, pinned,
                              /*is_protected=*/false});
  index_[Key{hash.bytes}] = probation_.begin();
  bytes_used_ += charge;
  if (pinned) bytes_pinned_ += charge;
  inserts_ += 1;
  return true;
}

size_t LayerCache::Put(std::span<const Sha256Digest> hashes,
                       std::span<const std::shared_ptr<const Tensor>> values,
                       bool pinned) {
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
  out.invalidated = invalidated_;
  out.bytes_used = bytes_used_;
  out.bytes_pinned = bytes_pinned_;
  out.entries = index_.size();
  return out;
}

}  // namespace mmm
