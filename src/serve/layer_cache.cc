#include "serve/layer_cache.h"

namespace mmm {

LayerCache::LayerCache(uint64_t capacity_bytes, size_t shards) {
  if (shards == 0) shards = 1;
  shard_capacity_ = capacity_bytes / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint64_t LayerCache::ChargeOf(const Tensor& value) {
  // Payload plus an estimate of list/map node + Entry overhead, so capacity
  // also bounds the footprint of many tiny layers.
  return value.numel() * sizeof(float) + 96;
}

LayerCache::Shard& LayerCache::ShardOf(const Sha256Digest& hash) {
  uint64_t h;
  std::memcpy(&h, hash.bytes.data() + 8, sizeof(h));
  return *shards_[h % shards_.size()];
}

const LayerCache::Shard& LayerCache::ShardOf(const Sha256Digest& hash) const {
  uint64_t h;
  std::memcpy(&h, hash.bytes.data() + 8, sizeof(h));
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const Tensor> LayerCache::Get(const Sha256Digest& hash) {
  Shard& shard = ShardOf(hash);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(Key{hash.bytes});
  if (it == shard.index.end()) {
    shard.misses += 1;
    return nullptr;
  }
  shard.hits += 1;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

bool LayerCache::Contains(const Sha256Digest& hash) const {
  const Shard& shard = ShardOf(hash);
  MutexLock lock(shard.mu);
  return shard.index.find(Key{hash.bytes}) != shard.index.end();
}

bool LayerCache::Put(const Sha256Digest& hash,
                     std::shared_ptr<const Tensor> value, bool pinned) {
  Shard& shard = ShardOf(hash);
  uint64_t charge = ChargeOf(*value);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(Key{hash.bytes});
  if (it != shard.index.end()) {
    // Content-hash keys are immutable: the resident value is already
    // correct. Honor a pin request, otherwise decline the duplicate.
    if (pinned && !it->second->pinned) {
      it->second->pinned = true;
      shard.bytes_pinned += it->second->charge;
      return true;
    }
    shard.rejected += 1;
    return false;
  }
  if (charge > shard_capacity_) {
    shard.rejected += 1;
    return false;
  }
  // Evict from the LRU tail, skipping pinned entries.
  auto victim = shard.lru.end();
  while (shard.bytes_used + charge > shard_capacity_) {
    // Find the least-recently-used unpinned entry before `victim`.
    auto scan = victim;
    bool found = false;
    while (scan != shard.lru.begin()) {
      --scan;
      if (!scan->pinned) {
        found = true;
        break;
      }
    }
    if (!found) {
      shard.rejected += 1;  // everything left is pinned; cannot fit
      return false;
    }
    victim = scan;
    shard.bytes_used -= victim->charge;
    shard.index.erase(victim->key);
    victim = shard.lru.erase(victim);
    shard.evictions += 1;
  }
  shard.lru.push_front(Entry{Key{hash.bytes}, std::move(value), charge, pinned});
  shard.index[Key{hash.bytes}] = shard.lru.begin();
  shard.bytes_used += charge;
  if (pinned) shard.bytes_pinned += charge;
  shard.inserts += 1;
  return true;
}

bool LayerCache::Pin(const Sha256Digest& hash) {
  Shard& shard = ShardOf(hash);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(Key{hash.bytes});
  if (it == shard.index.end()) return false;
  if (!it->second->pinned) {
    it->second->pinned = true;
    shard.bytes_pinned += it->second->charge;
  }
  return true;
}

void LayerCache::Unpin(const Sha256Digest& hash) {
  Shard& shard = ShardOf(hash);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(Key{hash.bytes});
  if (it == shard.index.end() || !it->second->pinned) return;
  it->second->pinned = false;
  shard.bytes_pinned -= it->second->charge;
}

bool LayerCache::Invalidate(const Sha256Digest& hash) {
  Shard& shard = ShardOf(hash);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(Key{hash.bytes});
  if (it == shard.index.end()) return false;
  shard.bytes_used -= it->second->charge;
  if (it->second->pinned) shard.bytes_pinned -= it->second->charge;
  shard.lru.erase(it->second);
  shard.index.erase(it);
  shard.invalidated += 1;
  return true;
}

void LayerCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->invalidated += shard->lru.size();
    shard->lru.clear();
    shard->index.clear();
    shard->bytes_used = 0;
    shard->bytes_pinned = 0;
  }
}

LayerCacheStats LayerCache::stats() const {
  LayerCacheStats out;
  out.capacity_bytes = capacity_bytes();
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.inserts += shard->inserts;
    out.evictions += shard->evictions;
    out.rejected += shard->rejected;
    out.invalidated += shard->invalidated;
    out.bytes_used += shard->bytes_used;
    out.bytes_pinned += shard->bytes_pinned;
    out.entries += shard->lru.size();
  }
  return out;
}

}  // namespace mmm
