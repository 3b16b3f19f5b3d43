#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/blob_formats.h"
#include "core/manager.h"
#include "core/set_codec.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "serve/digest_index.h"
#include "serve/layer_cache.h"
#include "serve/service.h"
#include "serve/trace.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::RandomTensor;
using testing::TempDir;
using testing::VersionOneParamBlob;

Sha256Digest DigestOf(uint8_t tag) {
  Sha256Digest d;
  d.bytes.fill(tag);
  return d;
}

// A digest for any id, for tests that need more than 256 distinct keys.
Sha256Digest DigestOfId(uint32_t id) {
  return Sha256::Hash("layer " + std::to_string(id));
}

// One-layer calls of the batched LayerCache interface: the tensor cached
// under `hash`, or nullopt on a miss.
std::optional<Tensor> GetOne(LayerCache& cache, const Sha256Digest& hash) {
  Tensor out;
  if (!cache.Get({&hash, 1}, {&out, 1})[0]) return std::nullopt;
  return out;
}

bool PutOne(LayerCache& cache, const Sha256Digest& hash, const Tensor& t,
            bool pinned = false) {
  return cache.Put({&hash, 1}, {&t, 1}, pinned) == 1;
}

// A recovery's use of the cache for one layer: `probes` probes, then an
// offer if the last one missed. Returns true if the layer is resident
// afterwards.
bool Request(LayerCache& cache, const Sha256Digest& hash, const Tensor& t,
             int probes = 1) {
  bool hit = false;
  for (int i = 0; i < probes; ++i) hit = GetOne(cache, hash).has_value();
  return hit || PutOne(cache, hash, t);
}

// ---------------------------------------------------------------------------
// LayerCache invariants.

TEST(LayerCacheTest, RoundTripAndHitCounters) {
  LayerCache cache(1 << 20);
  Tensor t = RandomTensor(Shape{16, 4}, 1);
  EXPECT_FALSE(GetOne(cache, DigestOf(1)).has_value());
  EXPECT_TRUE(PutOne(cache, DigestOf(1), t));
  EXPECT_FALSE(PutOne(cache, DigestOf(1), t));  // duplicate declined
  std::optional<Tensor> out = GetOne(cache, DigestOf(1));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->Equals(t));
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

// An admitted value is copied into its entry, sharing its buffer, and the
// caller keeps every value it offered, admitted or declined.
TEST(LayerCacheTest, PutCopiesAdmittedValuesAndLeavesTheCallersOwn) {
  Tensor t = RandomTensor(Shape{64}, 10);
  LayerCache cache(LayerCache::ChargeOf(t));
  std::vector<Sha256Digest> hashes = {DigestOf(1), DigestOf(2)};
  std::vector<Tensor> values = {t, t};
  EXPECT_EQ(cache.Put(hashes, values), 1u);
  std::optional<Tensor> entry = GetOne(cache, DigestOf(1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->Equals(t));
  EXPECT_EQ(entry->data().data(), values[0].data().data());
  EXPECT_FALSE(cache.Contains(DigestOf(2)));
  EXPECT_TRUE(values[0].Equals(t));
  EXPECT_TRUE(values[1].Equals(t));
}

// A write through a tensor a hit returned copies the buffer first: the
// entry, and every other reader's copy of it, keep their bytes.
TEST(LayerCacheTest, WriteThroughAHitLeavesTheEntryAndOtherReaders) {
  const Tensor t = RandomTensor(Shape{16, 4}, 14);
  const std::vector<float> want(t.data().begin(), t.data().end());
  LayerCache cache(1 << 20);
  ASSERT_TRUE(PutOne(cache, DigestOf(1), t));
  std::optional<Tensor> writer = GetOne(cache, DigestOf(1));
  std::optional<Tensor> reader = GetOne(cache, DigestOf(1));
  ASSERT_TRUE(writer.has_value() && reader.has_value());
  ASSERT_EQ(writer->data().data(), reader->data().data());
  for (float& x : writer->mutable_data()) x = -x - 1.0f;
  EXPECT_NE(writer->data().data(), reader->data().data());
  const auto bits_equal = [&](const Tensor& tensor) {
    return tensor.shape() == t.shape() &&
           std::memcmp(tensor.data().data(), want.data(),
                       want.size() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(bits_equal(*reader));
  std::optional<Tensor> again = GetOne(cache, DigestOf(1));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(bits_equal(*again));
  EXPECT_EQ(again->data().data(), reader->data().data());
  EXPECT_FALSE(writer->Equals(*again));
}

// The byte bound holds under request-shaped churn: every offer is probed
// first, and each one past the fourth either evicts or is declined.
TEST(LayerCacheTest, CapacityNeverExceeded) {
  Tensor t = RandomTensor(Shape{64}, 2);
  uint64_t charge = LayerCache::ChargeOf(t);
  // Room for 4 entries.
  LayerCache cache(charge * 4);
  for (uint8_t i = 0; i < 100; ++i) {
    Request(cache, DigestOf(i), t, /*probes=*/1 + i % 3);
    LayerCacheStats stats = cache.stats();
    ASSERT_LE(stats.bytes_used, cache.capacity_bytes());
    ASSERT_LE(stats.entries, 4u);
  }
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.evictions + stats.declined, 96u);
  // An entry larger than the whole budget is declined outright.
  Tensor huge = RandomTensor(Shape{1024}, 3);
  EXPECT_FALSE(PutOne(cache, DigestOf(200), huge));
  EXPECT_LE(cache.stats().bytes_used, cache.capacity_bytes());
}

// Pinned entries sit at the probation tail while offers that the filter
// admits (each probed more often than the one before) evict past them.
TEST(LayerCacheTest, PinnedEntriesSurviveEvictionPressure) {
  Tensor t = RandomTensor(Shape{64}, 4);
  uint64_t charge = LayerCache::ChargeOf(t);
  LayerCache cache(charge * 3);
  ASSERT_TRUE(PutOne(cache, DigestOf(1), t, /*pinned=*/true));
  ASSERT_TRUE(PutOne(cache, DigestOf(2), t));
  ASSERT_TRUE(cache.Pin(DigestOf(2)));
  for (uint8_t i = 10; i < 25; ++i) {
    ASSERT_TRUE(Request(cache, DigestOf(i), t, /*probes=*/i - 9));
  }
  EXPECT_EQ(cache.stats().evictions, 14u);
  EXPECT_TRUE(cache.Contains(DigestOf(1)));
  EXPECT_TRUE(cache.Contains(DigestOf(2)));
  ASSERT_LE(cache.stats().bytes_used, cache.capacity_bytes());
  // With only pinned entries left in budget, an oversized Put is declined,
  // never evicting a pinned entry.
  Tensor big = RandomTensor(Shape{140}, 5);
  EXPECT_FALSE(PutOne(cache, DigestOf(99), big));
  EXPECT_TRUE(cache.Contains(DigestOf(1)));
  EXPECT_TRUE(cache.Contains(DigestOf(2)));
  // Unpinning releases them for eviction again.
  cache.Unpin(DigestOf(1));
  cache.Unpin(DigestOf(2));
  for (uint8_t i = 60; i < 70; ++i) Request(cache, DigestOf(i), t);
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
}

TEST(LayerCacheTest, InvalidateRemovesEvenPinned) {
  Tensor t = RandomTensor(Shape{8}, 6);
  LayerCache cache(1 << 20);
  ASSERT_TRUE(PutOne(cache, DigestOf(1), t, /*pinned=*/true));
  EXPECT_TRUE(cache.Invalidate(DigestOf(1)));
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes_used, 0u);
  EXPECT_EQ(stats.bytes_pinned, 0u);
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_FALSE(cache.Invalidate(DigestOf(1)));
}

// Segmented LRU: eviction takes probation first, so offers that are never
// hit, even ones probed more often than a hit entry, evict only each other
// and the other never-hit entries.
TEST(LayerCacheTest, AdmissionsNeverHitCannotEvictAHitEntry) {
  Tensor t = RandomTensor(Shape{64}, 7);
  LayerCache cache(LayerCache::ChargeOf(t) * 10);
  ASSERT_TRUE(PutOne(cache, DigestOf(1), t));
  for (uint8_t i = 10; i < 19; ++i) ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  ASSERT_TRUE(GetOne(cache, DigestOf(1)).has_value());
  for (uint8_t i = 20; i < 220; ++i) Request(cache, DigestOf(i), t, 2);
  EXPECT_TRUE(cache.Contains(DigestOf(1)));
  for (uint8_t i = 10; i < 19; ++i) EXPECT_FALSE(cache.Contains(DigestOf(i)));
  EXPECT_TRUE(cache.Contains(DigestOf(20)));
  EXPECT_EQ(cache.stats().evictions, 9u);
  EXPECT_EQ(cache.stats().entries, 10u);
}

// No entry lives forever once the sketch ages: an entry admitted on a
// burst of probes and never probed again first holds off newer offers,
// then loses to one of them once the halved counts fall below theirs.
TEST(LayerCacheTest, OldEntryNeverHitIsEvictedByNewerAdmissions) {
  Tensor t = RandomTensor(Shape{64}, 8);
  LayerCache cache(LayerCache::ChargeOf(t) * 10);
  for (uint32_t i = 0; i < 10; ++i) ASSERT_TRUE(PutOne(cache, DigestOfId(i), t));
  const Sha256Digest old = DigestOf(1);
  ASSERT_TRUE(Request(cache, old, t, /*probes=*/15));
  uint32_t next = 100;
  for (; next < 150; ++next) Request(cache, DigestOfId(next), t, 3);
  ASSERT_TRUE(cache.Contains(old));
  const uint64_t declined = cache.stats().declined;
  EXPECT_GT(declined, 0u);
  for (; next < 20000 && cache.Contains(old); ++next) {
    Request(cache, DigestOfId(next), t, 3);
  }
  EXPECT_FALSE(cache.Contains(old));
  EXPECT_TRUE(cache.Contains(DigestOfId(next - 1)));
}

// The protected segment holds at most kProtectedPercent of the capacity: when
// every entry was hit, the least recently hit ones fall back to probation
// and make room for new, more frequent entries, while the rest stay.
TEST(LayerCacheTest, ProtectedSegmentKeepsRoomForNewEntries) {
  Tensor t = RandomTensor(Shape{64}, 9);
  LayerCache cache(LayerCache::ChargeOf(t) * 10);
  for (uint8_t i = 0; i < 10; ++i) ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(GetOne(cache, DigestOf(i)).has_value());
  }
  for (uint8_t i = 100; i < 150; ++i) Request(cache, DigestOf(i), t, 2);
  EXPECT_FALSE(cache.Contains(DigestOf(0)));
  EXPECT_FALSE(cache.Contains(DigestOf(1)));
  for (uint8_t i = 2; i < 10; ++i) EXPECT_TRUE(cache.Contains(DigestOf(i)));
  EXPECT_TRUE(cache.Contains(DigestOf(100)));
  EXPECT_TRUE(cache.Contains(DigestOf(101)));
  EXPECT_LE(cache.stats().bytes_used, cache.capacity_bytes());
}

// The admission filter: a run of offers probed once each, against a full
// cache whose entries were probed again and again, is declined and evicts
// nothing.
TEST(LayerCacheTest, OnceProbedOffersCannotDisplaceFrequentEntries) {
  Tensor t = RandomTensor(Shape{64}, 11);
  LayerCache cache(LayerCache::ChargeOf(t) * 10);
  for (uint8_t i = 0; i < 10; ++i) ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  for (int round = 0; round < 4; ++round) {
    for (uint8_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(GetOne(cache, DigestOf(i)).has_value());
    }
  }
  const LayerCacheStats before = cache.stats();
  for (uint32_t i = 1000; i < 1200; ++i) {
    EXPECT_FALSE(Request(cache, DigestOfId(i), t));
  }
  const LayerCacheStats after = cache.stats();
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.declined - before.declined, 200u);
  for (uint8_t i = 0; i < 10; ++i) EXPECT_TRUE(cache.Contains(DigestOf(i)));
}

// Pinned offers bypass the filter: never-probed pinned offers against a
// full cache of frequent entries are admitted while they fit, and the
// first one that does not fit is declined without evicting anything.
TEST(LayerCacheTest, PinnedOffersAreNeverDeclinedByAdmission) {
  Tensor t = RandomTensor(Shape{64}, 12);
  LayerCache cache(LayerCache::ChargeOf(t) * 10);
  for (uint8_t i = 0; i < 10; ++i) ASSERT_TRUE(PutOne(cache, DigestOf(i), t));
  for (int round = 0; round < 4; ++round) {
    for (uint8_t i = 0; i < 10; ++i) GetOne(cache, DigestOf(i));
  }
  for (uint8_t i = 100; i < 110; ++i) {
    EXPECT_TRUE(PutOne(cache, DigestOf(i), t, /*pinned=*/true));
  }
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.declined, 0u);
  EXPECT_EQ(stats.evictions, 10u);
  EXPECT_EQ(stats.bytes_pinned, cache.capacity_bytes());
  EXPECT_FALSE(PutOne(cache, DigestOf(110), t, /*pinned=*/true));
  EXPECT_EQ(cache.stats().evictions, 10u);
  for (uint8_t i = 100; i < 110; ++i) EXPECT_TRUE(cache.Contains(DigestOf(i)));
}

// With free room, every offer is admitted: the filter only decides which
// of two layers keeps a byte the cache cannot hold both of.
TEST(LayerCacheTest, CacheWithFreeRoomAdmitsEveryOffer) {
  Tensor t = RandomTensor(Shape{64}, 13);
  LayerCache cache(LayerCache::ChargeOf(t) * 300);
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(PutOne(cache, DigestOfId(i), t)) << i;
  }
  LayerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 300u);
  EXPECT_EQ(stats.declined, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes_used, cache.capacity_bytes());
}

// A batch behaves exactly like its layers offered one call each: the same
// hits, misses, admissions, declines, evictions and resident bytes after
// every step of a seeded mix of probe batches, offer batches and
// request-shaped batches (a probe of every layer, then an offer of the
// misses), with layers of several sizes, some pinned. The byte bound holds
// throughout.
TEST(LayerCacheTest, BatchedAndPerLayerCallsAgree) {
  std::vector<Tensor> tensors;
  for (uint64_t k = 0; k < 4; ++k) {
    tensors.push_back(RandomTensor(Shape{16 * (k + 1)}, 30 + k));
  }
  const uint64_t capacity = LayerCache::ChargeOf(tensors[1]) * 12;
  LayerCache batched(capacity);
  LayerCache single(capacity);
  Rng rng(17);
  for (int step = 0; step < 600; ++step) {
    const size_t count = 1 + rng.NextBounded(12);
    std::vector<Sha256Digest> hashes;
    std::vector<Tensor> values;
    for (size_t i = 0; i < count; ++i) {
      const uint8_t tag = static_cast<uint8_t>(rng.NextBounded(40));
      hashes.push_back(DigestOf(tag));
      values.push_back(tensors[tag % tensors.size()]);
    }
    const uint64_t kind = rng.NextBounded(3);
    std::vector<bool> offer(count, true);
    if (kind != 1) {
      std::vector<Tensor> out(count);
      const std::vector<bool> hit = batched.Get(hashes, out);
      ASSERT_EQ(hit.size(), count);
      const size_t hits =
          static_cast<size_t>(std::count(hit.begin(), hit.end(), true));
      size_t single_hits = 0;
      for (size_t i = 0; i < count; ++i) {
        std::optional<Tensor> one = GetOne(single, hashes[i]);
        ASSERT_EQ(one.has_value(), hit[i]) << "step " << step;
        if (hit[i]) {
          ASSERT_TRUE(out[i].Equals(*one)) << "step " << step;
        }
        single_hits += one.has_value() ? 1 : 0;
        offer[i] = !hit[i];
      }
      ASSERT_EQ(hits, single_hits);
    }
    if (kind != 0) {
      std::vector<Sha256Digest> offered_hashes;
      std::vector<Tensor> offered;
      for (size_t i = 0; i < count; ++i) {
        if (!offer[i]) continue;
        offered_hashes.push_back(hashes[i]);
        offered.push_back(values[i]);
      }
      const bool pinned = rng.NextBounded(10) == 0;
      const std::vector<Tensor> single_offered = offered;
      const uint64_t inserts_before = batched.stats().inserts;
      const size_t admitted = batched.Put(offered_hashes, offered, pinned);
      // Admitted counts new entries, plus resident ones a pinned offer pins.
      const uint64_t inserted = batched.stats().inserts - inserts_before;
      ASSERT_LE(inserted, admitted);
      if (!pinned) {
        ASSERT_EQ(inserted, admitted);
      }
      size_t single_admitted = 0;
      for (size_t i = 0; i < offered_hashes.size(); ++i) {
        single_admitted +=
            PutOne(single, offered_hashes[i], single_offered[i], pinned) ? 1
                                                                         : 0;
      }
      ASSERT_EQ(admitted, single_admitted);
      if (rng.NextBounded(4) == 0) {
        for (const Sha256Digest& hash : offered_hashes) {
          batched.Unpin(hash);
          single.Unpin(hash);
        }
      }
    }
    const LayerCacheStats a = batched.stats();
    const LayerCacheStats b = single.stats();
    ASSERT_EQ(a.hits, b.hits) << "step " << step;
    ASSERT_EQ(a.misses, b.misses);
    ASSERT_EQ(a.inserts, b.inserts);
    ASSERT_EQ(a.evictions, b.evictions);
    ASSERT_EQ(a.rejected, b.rejected);
    ASSERT_EQ(a.declined, b.declined);
    ASSERT_EQ(a.bytes_used, b.bytes_used);
    ASSERT_EQ(a.bytes_pinned, b.bytes_pinned);
    ASSERT_EQ(a.entries, b.entries);
    ASSERT_LE(a.bytes_used, capacity);
    for (uint8_t tag = 0; tag < 40; ++tag) {
      ASSERT_EQ(batched.Contains(DigestOf(tag)),
                single.Contains(DigestOf(tag)));
    }
  }
  EXPECT_GT(batched.stats().evictions, 0u);
  EXPECT_GT(batched.stats().declined, 0u);
  EXPECT_GT(batched.stats().hits, 0u);
}

// A digest whose first 8 bytes, the index's tag, are `tag`; the other 24
// differ per `id`.
Sha256Digest DigestWithTag(uint64_t tag, uint64_t id) {
  Sha256Digest d = Sha256::Hash("rest " + std::to_string(id));
  std::memcpy(d.bytes.data(), &tag, sizeof(tag));
  return d;
}

// Digests that share their tag with three others (tag collisions). Half of
// the tags end in many one bits, so their home slots sit at the end of any
// table and their runs wrap past it; the other half are spread.
Sha256Digest CollidingDigest(uint64_t id) {
  const uint64_t group = id / 4;
  uint64_t tag = ~uint64_t{0} - group;
  if (group % 2 == 1) {
    std::memcpy(&tag, DigestOfId(static_cast<uint32_t>(group)).bytes.data(),
                sizeof(tag));
  }
  return DigestWithTag(tag, id);
}

std::string RawBytes(const Sha256Digest& d) {
  return std::string(reinterpret_cast<const char*>(d.bytes.data()),
                     d.bytes.size());
}

struct IndexEntry {
  Sha256Digest key;
};

// The index agrees with std::unordered_map over a seeded mix of inserts,
// finds and erases of colliding digests whose runs wrap past the table's
// end. An entry keeps its address while the table grows under it, and
// every resident entry stays findable after each erase's backward shift.
TEST(DigestIndexTest, AgreesWithUnorderedMap) {
  DigestIndex<IndexEntry> index;
  std::unordered_map<std::string, IndexEntry*> model;
  Rng rng(29);
  size_t grown = 0;
  for (int step = 0; step < 20000; ++step) {
    // A window of keys that drifts upwards, so the table keeps growing.
    const uint64_t id = rng.NextBounded(64) + static_cast<uint64_t>(step / 40);
    const Sha256Digest key = CollidingDigest(id);
    auto it = model.find(RawBytes(key));
    switch (rng.NextBounded(3)) {
      case 0: {  // insert if absent
        if (it != model.end()) break;
        auto entry = std::make_unique<IndexEntry>();
        entry->key = key;
        model[RawBytes(key)] = entry.get();
        const size_t capacity = index.capacity();
        index.Insert(std::move(entry));
        if (index.capacity() > capacity) grown += 1;
        break;
      }
      case 1: {  // erase
        std::unique_ptr<IndexEntry> erased = index.Erase(key);
        if (it == model.end()) {
          ASSERT_EQ(erased.get(), nullptr) << "step " << step;
        } else {
          ASSERT_EQ(erased.get(), it->second) << "step " << step;
          model.erase(it);
        }
        break;
      }
      default:  // find
        ASSERT_EQ(index.Find(key), it == model.end() ? nullptr : it->second)
            << "step " << step;
    }
    ASSERT_EQ(index.size(), model.size());
    ASSERT_LE(2 * index.size(), index.capacity());
    if (step % 97 == 0) {
      for (const auto& [raw, entry] : model) {
        ASSERT_EQ(index.Find(entry->key), entry) << "step " << step;
      }
    }
  }
  EXPECT_GT(grown, 2u);
}

// Erase shifts the rest of a run back over the hole, across the table's
// end, and leaves no slot a lookup could stop at early.
TEST(DigestIndexTest, EraseShiftsRunsBackAcrossTheEnd) {
  DigestIndex<IndexEntry> index;
  ASSERT_EQ(index.capacity(), 16u);
  // a, b, c collide at the last slot; d's home is slot 0.
  IndexEntry* a = nullptr;
  IndexEntry* b = nullptr;
  IndexEntry* c = nullptr;
  IndexEntry* d = nullptr;
  const std::pair<IndexEntry**, uint64_t> tags[] = {
      {&a, ~uint64_t{0}}, {&b, ~uint64_t{0}}, {&c, ~uint64_t{0}}, {&d, 16}};
  uint64_t id = 0;
  for (const auto& [entry, tag] : tags) {
    auto owned = std::make_unique<IndexEntry>();
    owned->key = DigestWithTag(tag, ++id);
    *entry = owned.get();
    index.Insert(std::move(owned));
  }
  EXPECT_EQ(index.At(15), a);
  EXPECT_EQ(index.At(0), b);
  EXPECT_EQ(index.At(1), c);
  EXPECT_EQ(index.At(2), d);

  const Sha256Digest a_key = a->key;
  const Sha256Digest b_key = b->key;
  EXPECT_EQ(index.Erase(b_key).get(), b);
  EXPECT_EQ(index.At(15), a);
  EXPECT_EQ(index.At(0), c);
  EXPECT_EQ(index.At(1), d);
  EXPECT_EQ(index.At(2), nullptr);

  EXPECT_EQ(index.Erase(a_key).get(), a);
  EXPECT_EQ(index.At(15), c);
  EXPECT_EQ(index.At(0), d);
  EXPECT_EQ(index.At(1), nullptr);
  EXPECT_EQ(index.Find(a_key), nullptr);
  EXPECT_EQ(index.Find(b_key), nullptr);
  EXPECT_EQ(index.Find(c->key), c);
  EXPECT_EQ(index.Find(d->key), d);
  EXPECT_EQ(index.Erase(b_key), nullptr);
  EXPECT_EQ(index.size(), 2u);
}

// A batch that repeats hashes and holds collision twins (digests that
// share the index's tag): each probe gets its own tensor, and the hit flags
// and counters match one-layer calls on an identical cache. Pinned entries
// stay resident and keep their buffers while the index grows under them.
TEST(LayerCacheTest, BatchWithRepeatsAndTagTwinsMatchesPerLayerCalls) {
  std::vector<Sha256Digest> hashes;
  std::vector<Tensor> tensors;
  for (uint64_t id = 0; id < 24; ++id) {
    hashes.push_back(CollidingDigest(id));
    tensors.push_back(RandomTensor(Shape{8 + id}, 40 + id));
  }
  LayerCache batched(1 << 20);
  LayerCache single(1 << 20);
  // Every third digest stays out, so each tag group mixes hits and misses.
  for (size_t i = 0; i < hashes.size(); ++i) {
    if (i % 3 == 2) continue;
    const bool pinned = i % 3 == 0;
    ASSERT_TRUE(PutOne(batched, hashes[i], tensors[i], pinned));
    ASSERT_TRUE(PutOne(single, hashes[i], tensors[i], pinned));
  }
  const std::optional<Tensor> pinned_before = GetOne(batched, hashes[0]);
  ASSERT_TRUE(pinned_before.has_value());
  ASSERT_TRUE(GetOne(single, hashes[0]).has_value());
  // Enough other entries to grow the index several times.
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(PutOne(batched, DigestOfId(1000 + i), tensors[0]));
    ASSERT_TRUE(PutOne(single, DigestOfId(1000 + i), tensors[0]));
  }

  Rng rng(31);
  std::vector<size_t> picks;
  for (int k = 0; k < 64; ++k) {
    picks.push_back(static_cast<size_t>(rng.NextBounded(hashes.size())));
  }
  picks.push_back(picks.front());
  std::vector<Sha256Digest> batch;
  for (size_t pick : picks) batch.push_back(hashes[pick]);
  std::vector<Tensor> out(batch.size());
  const std::vector<bool> hit = batched.Get(batch, out);
  ASSERT_EQ(hit.size(), batch.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    const std::optional<Tensor> one = GetOne(single, batch[k]);
    ASSERT_EQ(hit[k], one.has_value()) << "probe " << k;
    ASSERT_EQ(hit[k], picks[k] % 3 != 2) << "probe " << k;
    if (hit[k]) {
      EXPECT_TRUE(out[k].Equals(tensors[picks[k]])) << "probe " << k;
      EXPECT_EQ(out[k].data().data(), one->data().data()) << "probe " << k;
    } else {
      EXPECT_TRUE(out[k].empty()) << "probe " << k;
    }
  }
  const LayerCacheStats a = batched.stats();
  const LayerCacheStats b = single.stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.entries, b.entries);
  for (size_t i = 0; i < hashes.size(); i += 3) {
    const std::optional<Tensor> pinned = GetOne(batched, hashes[i]);
    ASSERT_TRUE(pinned.has_value());
    EXPECT_TRUE(pinned->Equals(tensors[i]));
  }
  EXPECT_EQ(GetOne(batched, hashes[0])->data().data(),
            pinned_before->data().data());
}

// ---------------------------------------------------------------------------
// Trace generation.

TEST(TraceTest, ZipfianTraceIsDeterministicAndSkewed) {
  std::vector<std::string> ids = {"a", "b", "c", "d", "e"};
  std::vector<std::string> t1 = BuildZipfianTrace(ids, 1000, 0.99, 7);
  std::vector<std::string> t2 = BuildZipfianTrace(ids, 1000, 0.99, 7);
  EXPECT_EQ(t1, t2);
  std::map<std::string, size_t> counts;
  for (const std::string& id : t1) counts[id] += 1;
  // ids[0] is the hottest item by construction.
  EXPECT_GT(counts["a"], counts["e"]);
  EXPECT_GT(counts["a"], 1000u / ids.size());
}

TEST(TraceTest, SummarizePercentiles) {
  std::vector<uint64_t> nanos;
  for (uint64_t i = 1; i <= 100; ++i) nanos.push_back(i);
  LatencySummary s = Summarize(nanos);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.p50, 50u);
  EXPECT_EQ(s.p99, 99u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_EQ(Summarize({}).p99, 0u);
}

// ---------------------------------------------------------------------------
// ModelSetService: a small battery deployment saved by every approach.

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : temp_("serve") {}

  void OpenManager(UpdateApproachOptions update_options = {},
                   Compression compression = Compression::kNone,
                   bool cas = false, Env* env = nullptr,
                   uint64_t stream_window_bytes = 0) {
    ScenarioConfig config = ScenarioConfig::Battery(12);
    config.samples_per_dataset = 64;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    ASSERT_OK(scenario_->Init());
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    options.update_options = update_options;
    options.blob_compression = compression;
    options.cas.enabled = cas;
    options.env = env;
    options.stream_window_bytes = stream_window_bytes;
    // Modeled store latency on, so per-request cost comparisons are
    // meaningful (the clock is simulated — no real waiting).
    options.profile = SetupProfile::Server();
    ASSERT_OK_AND_ASSIGN(manager_, ModelSetManager::Open(options));
  }

  // Saves the current scenario state with `type` (derived from the
  // approach's chain head when `update` is given) and records the expected
  // recovered state.
  std::string Save(ApproachType type, const ModelSetUpdateInfo* update) {
    Result<SaveResult> saved =
        update == nullptr
            ? manager_->SaveInitial(type, scenario_->current_set())
            : [&] {
                ModelSetUpdateInfo derived = *update;
                derived.base_set_id = heads_[type];
                return manager_->SaveDerived(type, scenario_->current_set(),
                                             derived);
              }();
    saved.status().Check();
    heads_[type] = saved.ValueOrDie().set_id;
    expected_[saved.ValueOrDie().set_id] = scenario_->current_set();
    return saved.ValueOrDie().set_id;
  }

  // Saves the current state with all four approaches.
  void SaveAll(const ModelSetUpdateInfo* update) {
    for (ApproachType type : kAllApproaches) Save(type, update);
  }

  void ExpectSetEquals(const ModelSet& recovered, const ModelSet& expected) {
    ASSERT_EQ(recovered.models.size(), expected.models.size());
    ASSERT_EQ(recovered.spec, expected.spec);
    for (size_t m = 0; m < recovered.models.size(); ++m) {
      ASSERT_EQ(recovered.models[m].size(), expected.models[m].size());
      for (size_t p = 0; p < recovered.models[m].size(); ++p) {
        ASSERT_EQ(recovered.models[m][p].first, expected.models[m][p].first);
        ASSERT_TRUE(
            recovered.models[m][p].second.Equals(expected.models[m][p].second))
            << "model " << m << " param " << recovered.models[m][p].first;
      }
    }
  }

  size_t TotalLayers(const ModelSet& set) const {
    return set.models.empty() ? 0 : set.models.size() * set.models[0].size();
  }

  uint64_t SetChargeBytes(const ModelSet& set) const {
    uint64_t total = 0;
    for (const StateDict& model : set.models) {
      for (const auto& [key, tensor] : model) {
        total += LayerCache::ChargeOf(tensor);
      }
    }
    return total;
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
  std::map<ApproachType, std::string> heads_;
  std::map<std::string, ModelSet> expected_;
};

// All four approaches, served concurrently, stay bit-exact at any worker
// count (content-hash keying + deterministic lane assignment).
TEST_F(ServeTest, ReplayAllApproachesBitExact) {
  OpenManager();
  SaveAll(nullptr);
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    SaveAll(&update);
  }
  // Every saved set, twice, so the second round hits the warm cache.
  std::vector<std::string> trace;
  for (const auto& [id, set] : expected_) trace.push_back(id);
  const std::vector<std::string> once = trace;
  trace.insert(trace.end(), once.begin(), once.end());

  for (size_t workers : {size_t{1}, size_t{4}}) {
    ModelSetServiceOptions options;
    options.workers = workers;
    ModelSetService service(manager_.get(), options);
    std::vector<ModelSet> recovered;
    std::vector<ServeResult> results = service.Replay(trace, &recovered);
    ASSERT_EQ(results.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok())
          << "request " << i << " set " << trace[i] << ": "
          << results[i].status.ToString();
      EXPECT_EQ(results[i].set_id, trace[i]);
      ExpectSetEquals(recovered[i], expected_[trace[i]]);
    }
  }
}

// With the cache off and one worker, the service is a pass-through: results
// and modeled store cost are identical to calling Recover directly.
TEST_F(ServeTest, CacheOffSingleWorkerMatchesDirectRecover) {
  OpenManager();
  SaveAll(nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  SaveAll(&update);

  ModelSetServiceOptions options;
  options.workers = 1;
  options.cache_enabled = false;
  ModelSetService service(manager_.get(), options);
  for (const auto& [id, expected] : expected_) {
    RecoverStats direct_stats;
    ASSERT_OK_AND_ASSIGN(ModelSet direct,
                         manager_->Recover(id, &direct_stats));
    ServeResult result;
    ASSERT_OK_AND_ASSIGN(ModelSet served, service.Recover(id, &result));
    ExpectSetEquals(served, direct);
    ExpectSetEquals(served, expected);
    EXPECT_EQ(result.modeled_store_nanos, direct_stats.simulated_store_nanos);
    EXPECT_EQ(result.sets_walked, direct_stats.sets_recovered);
    EXPECT_EQ(result.cache.layer_hits + result.cache.layer_misses, 0u);
  }
}

// Exact hit accounting at one worker. A cold request probes each layer of
// the requested set once; a repeated request hits all of them and serves the
// set without a single file-store read; the base, recovered next, hits
// exactly the layers it shares with the head (ancestors are not admitted).
TEST_F(ServeTest, WarmCacheHitCountersAreExact) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  size_t layers = TotalLayers(expected_[head_id]);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  // Cold request: each of the head's layers misses once; the walk reads the
  // head's diff, then the base's snapshot for what the diff lacks.
  ServeResult cold;
  ASSERT_OK_AND_ASSIGN(ModelSet first, service.Recover(head_id, &cold));
  ExpectSetEquals(first, expected_[head_id]);
  EXPECT_EQ(cold.cache.layer_hits, 0u);
  EXPECT_EQ(cold.cache.layer_misses, layers);
  EXPECT_EQ(cold.cache.meta_misses, 1u);
  EXPECT_EQ(cold.sets_walked, 2u);

  // Warm request: all layers hit, zero file-store reads, strictly cheaper.
  StoreStats before = manager_->file_store()->stats();
  ServeResult warm;
  ASSERT_OK_AND_ASSIGN(ModelSet second, service.Recover(head_id, &warm));
  StoreStats delta = manager_->file_store()->stats() - before;
  ExpectSetEquals(second, expected_[head_id]);
  EXPECT_EQ(warm.cache.layer_hits, layers);
  EXPECT_EQ(warm.cache.layer_misses, 0u);
  EXPECT_EQ(warm.cache.meta_hits, 1u);
  EXPECT_EQ(warm.cache.sets_from_cache, 1u);
  EXPECT_EQ(warm.sets_walked, 1u);
  EXPECT_EQ(delta.read_ops, 0u);
  EXPECT_EQ(delta.bytes_read, 0u);
  EXPECT_LT(warm.modeled_store_nanos, cold.modeled_store_nanos);

  // Sibling sharing: the base's layers that the head kept are resident
  // under the same content hashes and hit; the ones the head changed miss
  // and come from the base's snapshot.
  HashTable head_hashes = ComputeHashTable(expected_[head_id]);
  std::set<std::string> resident;
  for (const auto& row : head_hashes) {
    for (const Sha256Digest& hash : row) resident.insert(hash.ToHex());
  }
  size_t shared = 0;
  for (const auto& row : ComputeHashTable(expected_[base_id])) {
    for (const Sha256Digest& hash : row) shared += resident.count(hash.ToHex());
  }
  ASSERT_GT(shared, 0u);
  ASSERT_LT(shared, layers);
  ServeResult base_result;
  ASSERT_OK_AND_ASSIGN(ModelSet base, service.Recover(base_id, &base_result));
  ExpectSetEquals(base, expected_[base_id]);
  EXPECT_EQ(base_result.cache.layer_hits, shared);
  EXPECT_EQ(base_result.cache.layer_misses, layers - shared);
  EXPECT_EQ(base_result.cache.sets_from_cache, 0u);
  EXPECT_EQ(base_result.sets_walked, 1u);
}

// A RecoveryCache over one LayerCache and a metadata map that counts the
// layer calls RecoverCached makes.
class CountingRecoveryCache : public RecoveryCache {
 public:
  std::vector<bool> GetLayers(std::span<const Sha256Digest> hashes,
                              std::span<Tensor> out) override {
    get_calls += 1;
    return layers_.Get(hashes, out);
  }
  void PutLayers(std::span<const Sha256Digest> hashes,
                 std::span<const Tensor> values) override {
    put_calls += 1;
    offered += hashes.size();
    layers_.Put(hashes, values);
  }
  std::shared_ptr<const SetMeta> GetSetMeta(const std::string& set_id) override {
    auto it = meta_.find(set_id);
    return it == meta_.end() ? nullptr : it->second;
  }
  void PutSetMeta(const std::string& set_id,
                  std::shared_ptr<const SetMeta> meta) override {
    meta_[set_id] = std::move(meta);
  }

  int get_calls = 0;
  int put_calls = 0;
  size_t offered = 0;

 private:
  LayerCache layers_{64 << 20};
  std::map<std::string, std::shared_ptr<const SetMeta>> meta_;
};

// RecoverCached offers exactly the layers it fetched, in one call, and an
// all-hit recovery makes no offer at all.
TEST_F(ServeTest, AllHitRecoveryMakesNoOffer) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  UpdateApproach* update_approach = manager_->update_approach();
  CountingRecoveryCache cache;

  CacheRequestStats cold;
  ASSERT_OK_AND_ASSIGN(ModelSet base, update_approach->RecoverCached(
                                          base_id, &cache, nullptr, &cold));
  ExpectSetEquals(base, expected_[base_id]);
  EXPECT_EQ(cold.layer_hits, 0u);
  EXPECT_EQ(cache.get_calls, 1);
  EXPECT_EQ(cache.put_calls, 1);
  EXPECT_EQ(cache.offered, TotalLayers(base));

  CacheRequestStats partial;
  ASSERT_OK_AND_ASSIGN(ModelSet head, update_approach->RecoverCached(
                                          head_id, &cache, nullptr, &partial));
  ExpectSetEquals(head, expected_[head_id]);
  EXPECT_GT(partial.layer_hits, 0u);
  EXPECT_GT(partial.layer_misses, 0u);
  EXPECT_EQ(cache.put_calls, 2);
  EXPECT_EQ(cache.offered, TotalLayers(base) + partial.layer_misses);

  for (const std::string& id : {base_id, head_id}) {
    CacheRequestStats hot;
    ASSERT_OK_AND_ASSIGN(ModelSet again, update_approach->RecoverCached(
                                             id, &cache, nullptr, &hot));
    ExpectSetEquals(again, expected_[id]);
    EXPECT_EQ(hot.layer_misses, 0u);
    EXPECT_EQ(hot.sets_from_cache, 1u);
  }
  EXPECT_EQ(cache.get_calls, 4);
  EXPECT_EQ(cache.put_calls, 2);
}

// Recovering the head after its base reads the head's diff blob and no
// parameter blob: the base's snapshot already put every shared layer in the
// cache, and the head's diff holds every layer it changed.
TEST_F(ServeTest, HeadAfterBaseReadsOnlyItsDiff) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  ASSERT_OK(service.Recover(base_id).status());
  StoreStats before = manager_->file_store()->stats();
  ServeResult result;
  ASSERT_OK_AND_ASSIGN(ModelSet head, service.Recover(head_id, &result));
  StoreStats delta = manager_->file_store()->stats() - before;
  ExpectSetEquals(head, expected_[head_id]);
  EXPECT_GT(result.cache.layer_hits, 0u);
  EXPECT_GT(result.cache.layer_misses, 0u);
  EXPECT_EQ(result.sets_walked, 1u);

  // Five blob reads: the head's hash table, the root's architecture and
  // its param blob's header and layer CRC table (the head's metadata memo
  // missed), then the head's diff. No layer of the param blob is read.
  ASSERT_OK_AND_ASSIGN(SetDocument head_doc,
                       FetchSetDocument(manager_->context(), head_id));
  ASSERT_OK_AND_ASSIGN(SetDocument base_doc,
                       FetchSetDocument(manager_->context(), base_id));
  FileStore* files = manager_->file_store();
  ASSERT_OK_AND_ASSIGN(uint64_t hash_bytes, files->Size(head_doc.hash_blob));
  ASSERT_OK_AND_ASSIGN(uint64_t arch_bytes, files->Size(base_doc.arch_blob));
  ASSERT_OK_AND_ASSIGN(uint64_t diff_bytes, files->Size(head_doc.diff_blob));
  ASSERT_OK_AND_ASSIGN(uint64_t param_bytes, files->Size(base_doc.param_blob));
  const uint64_t table_bytes =
      head.models.size() * LayoutOf(head.spec).size() * sizeof(uint32_t);
  EXPECT_EQ(delta.read_ops, 5u);
  EXPECT_EQ(delta.bytes_read, hash_bytes + arch_bytes + diff_bytes +
                                  kParamBlobMaxHeaderBytes + table_bytes);
  EXPECT_LT(delta.bytes_read, param_bytes);
}

// Pinned sets survive arbitrary eviction pressure; pin bookkeeping is
// rolled back cleanly when the cache cannot hold the set.
TEST_F(ServeTest, PinnedSetSurvivesEvictionPressure) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);

  // Budget: the base set plus a little headroom — not both sets.
  ModelSetServiceOptions options;
  options.cache_capacity_bytes =
      SetChargeBytes(expected_[base_id]) + (SetChargeBytes(expected_[base_id]) / 4);
  ModelSetService service(manager_.get(), options);

  ASSERT_OK(service.PinSet(base_id));
  EXPECT_EQ(service.PinnedSets(), std::vector<std::string>{base_id});
  EXPECT_TRUE(service.PinSet(base_id).IsAlreadyExists());

  // Churn the cache well past capacity; the pinned base must keep serving
  // from memory.
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(service.Recover(head_id).status());
  }
  ServeResult pinned_result;
  ASSERT_OK_AND_ASSIGN(ModelSet base, service.Recover(base_id, &pinned_result));
  ExpectSetEquals(base, expected_[base_id]);
  EXPECT_EQ(pinned_result.cache.layer_misses, 0u);
  EXPECT_EQ(pinned_result.cache.sets_from_cache, 1u);
  LayerCacheStats cache_stats = service.cache_stats();
  EXPECT_LE(cache_stats.bytes_used, cache_stats.capacity_bytes);
  EXPECT_GT(cache_stats.bytes_pinned, 0u);

  ASSERT_OK(service.UnpinSet(base_id));
  EXPECT_TRUE(service.UnpinSet(base_id).IsNotFound());
  EXPECT_EQ(service.cache_stats().bytes_pinned, 0u);

  // A cache that cannot hold the set refuses the pin and leaks nothing.
  ModelSetServiceOptions tiny;
  tiny.cache_capacity_bytes = 1024;
  ModelSetService tiny_service(manager_.get(), tiny);
  EXPECT_TRUE(tiny_service.PinSet(base_id).IsInvalidArgument());
  EXPECT_TRUE(tiny_service.PinnedSets().empty());
  EXPECT_EQ(tiny_service.cache_stats().bytes_pinned, 0u);
}

// GC coherence: deleting a collected set invalidates its cached layers, a
// pinned set blocks deletion of anything its recovery needs, and a set
// whose base was legally collected still recovers bit-exact.
TEST_F(ServeTest, DeleteInvalidatesAndRespectsPins) {
  UpdateApproachOptions update_options;
  update_options.snapshot_interval = 2;  // B(full) <- D1(delta) <- D2(full)
  OpenManager(update_options);
  std::string b_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo u1, scenario_->AdvanceCycle());
  std::string d1_id = Save(ApproachType::kUpdate, &u1);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo u2, scenario_->AdvanceCycle());
  std::string d2_id = Save(ApproachType::kUpdate, &u2);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  // Warm the cache with every set.
  for (const std::string& id : {b_id, d1_id, d2_id}) {
    ASSERT_OK(service.Recover(id).status());
  }

  // D1 is pinned: deleting it, or its recovery ancestors, pin-fails.
  ASSERT_OK(service.PinSet(d1_id));
  EXPECT_TRUE(service.DeleteSet(d1_id).status().IsInvalidArgument());
  EXPECT_TRUE(service.DeleteSet(b_id).status().IsInvalidArgument());
  ASSERT_OK(service.UnpinSet(d1_id));

  // D2 is a full snapshot, so its base D1 is legally collectable.
  uint64_t invalidated_before = service.cache_stats().invalidated;
  ASSERT_OK_AND_ASSIGN(DeleteReport report, service.DeleteSet(d1_id));
  EXPECT_EQ(report.deleted_set_ids, std::vector<std::string>{d1_id});
  EXPECT_GT(service.cache_stats().invalidated, invalidated_before);

  // The deleted set is gone for good — cached layers cannot resurrect it —
  // while its descendant still recovers bit-exact.
  EXPECT_TRUE(service.Recover(d1_id).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(ModelSet d2, service.Recover(d2_id));
  ExpectSetEquals(d2, expected_[d2_id]);
  ASSERT_OK_AND_ASSIGN(ModelSet b, service.Recover(b_id));
  ExpectSetEquals(b, expected_[b_id]);
}

// Compaction coherence: the compactor rewrites a cached set while a
// *different* set is pinned. The pinned set's lineage and cached layers must
// survive untouched, the rewritten set's stale cache entries must be
// invalidated, and every hit counter stays exact.
TEST_F(ServeTest, CompactionInvalidatesRewrittenSetsAndSparesPins) {
  OpenManager();
  std::string b_id = Save(ApproachType::kUpdate, nullptr);
  std::vector<std::string> chain{b_id};
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    chain.push_back(Save(ApproachType::kUpdate, &update));
  }
  const std::string d3_id = chain.back();  // depth 3
  size_t layers = TotalLayers(expected_[d3_id]);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  // Warm the cache through the deep set (walks and caches the whole chain),
  // then pin the root — a different set than the one compaction rewrites.
  ASSERT_OK(service.Recover(d3_id).status());
  ASSERT_OK(service.PinSet(b_id));

  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  uint64_t invalidated_before = service.cache_stats().invalidated;
  ASSERT_OK_AND_ASSIGN(CompactionReport report, service.CompactChains(policy));
  EXPECT_EQ(report.sets_rebased, 1u);
  EXPECT_EQ(report.rebased_set_ids, std::vector<std::string>{d3_id});
  EXPECT_EQ(report.rewritten_set_ids, std::vector<std::string>{d3_id});
  EXPECT_GT(service.cache_stats().invalidated, invalidated_before);

  // The pinned set still serves entirely from the cache: its layers were
  // spared by the pin-aware invalidation, and its metadata memo was not
  // touched (only rewritten sets are invalidated).
  ServeResult pinned;
  ASSERT_OK_AND_ASSIGN(ModelSet b, service.Recover(b_id, &pinned));
  ExpectSetEquals(b, expected_[b_id]);
  EXPECT_EQ(pinned.cache.layer_hits, layers);
  EXPECT_EQ(pinned.cache.layer_misses, 0u);
  EXPECT_EQ(pinned.cache.meta_hits, 1u);
  EXPECT_EQ(pinned.cache.sets_from_cache, 1u);

  // The rewritten set lost its metadata memo (its recorded chain shape
  // changed) and every cached layer except the ones the pinned set still
  // holds — layers are keyed by content hash, so exactly the tensors it
  // shares with the pinned root are still resident.
  size_t shared = 0;
  const ModelSet& d3 = expected_[d3_id];
  const ModelSet& root = expected_[b_id];
  for (size_t m = 0; m < d3.models.size(); ++m) {
    for (const auto& [key, tensor] : d3.models[m]) {
      bool resident = false;
      for (size_t rm = 0; rm < root.models.size() && !resident; ++rm) {
        for (const auto& [rkey, rtensor] : root.models[rm]) {
          if (tensor.Equals(rtensor)) {
            resident = true;
            break;
          }
        }
      }
      if (resident) ++shared;
    }
  }
  ASSERT_GT(shared, 0u);
  ASSERT_LT(shared, layers);
  ServeResult rewritten;
  ASSERT_OK_AND_ASSIGN(ModelSet d3_recovered, service.Recover(d3_id, &rewritten));
  ExpectSetEquals(d3_recovered, expected_[d3_id]);
  EXPECT_EQ(rewritten.cache.meta_misses, 1u);
  EXPECT_EQ(rewritten.cache.layer_hits, shared);
  EXPECT_EQ(rewritten.cache.layer_misses, layers - shared);
  // The rebase turned the set into a full snapshot: one set materialized,
  // no chain walk — the serving-side TTR bound compaction exists for.
  EXPECT_EQ(rewritten.sets_walked, 1u);

  // Unpin and recover once more: the service keeps functioning normally on
  // the compacted store.
  ASSERT_OK(service.UnpinSet(b_id));
  ASSERT_OK_AND_ASSIGN(ModelSet again, service.Recover(d3_id));
  ExpectSetEquals(again, expected_[d3_id]);
}

// RetainOnly through the service implicitly keeps pinned sets (and their
// lineage) and invalidates everything it collected.
TEST_F(ServeTest, RetainOnlyKeepsPinnedSets) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  std::string baseline_id = Save(ApproachType::kBaseline, nullptr);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  ASSERT_OK(service.Recover(head_id).status());
  ASSERT_OK(service.PinSet(head_id));

  // Keep only the baseline set; the pinned update chain must survive.
  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       service.RetainOnly({baseline_id}));
  EXPECT_EQ(report.sets_deleted, 0u);  // head's lineage covers base too

  ASSERT_OK_AND_ASSIGN(ModelSet head, service.Recover(head_id));
  ExpectSetEquals(head, expected_[head_id]);

  // After unpinning, the sweep collects the update chain and the service
  // refuses to serve it afterwards.
  ASSERT_OK(service.UnpinSet(head_id));
  ASSERT_OK_AND_ASSIGN(report, service.RetainOnly({baseline_id}));
  EXPECT_EQ(report.sets_deleted, 2u);
  EXPECT_TRUE(service.Recover(head_id).status().IsNotFound());
  EXPECT_TRUE(service.Recover(base_id).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(ModelSet baseline, service.Recover(baseline_id));
  ExpectSetEquals(baseline, expected_[baseline_id]);
}

// Concurrent Zipfian replay against one shared cache — the TSan target.
TEST_F(ServeTest, ConcurrentZipfianReplayIsRaceFreeAndExact) {
  OpenManager();
  Save(ApproachType::kUpdate, nullptr);
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    Save(ApproachType::kUpdate, &update);
  }
  std::vector<std::string> ids;
  for (const auto& [id, set] : expected_) ids.push_back(id);
  std::vector<std::string> trace = BuildZipfianTrace(ids, 60, 0.99, 11);

  ModelSetServiceOptions options;
  options.workers = 4;
  options.cache_capacity_bytes = 1 << 20;  // force eviction under load
  ModelSetService service(manager_.get(), options);
  std::vector<ModelSet> recovered;
  std::vector<ServeResult> results = service.Replay(trace, &recovered);
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_OK(results[i].status);
    ExpectSetEquals(recovered[i], expected_[trace[i]]);
  }
  LayerCacheStats cache_stats = service.cache_stats();
  EXPECT_LE(cache_stats.bytes_used, cache_stats.capacity_bytes);
}

// A set served from the cache shares the entries' buffers (a hit costs a
// reference-count bump), and a caller's writes copy them first: overwriting
// a hot recovery, or loading one into models and training them, never
// reaches the cache, pinned entries included.
TEST_F(ServeTest, CallerWritesNeverReachCachedLayers) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);

  ModelSetServiceOptions options;
  options.cache_capacity_bytes = 4 * SetChargeBytes(expected_[head_id]);
  ModelSetService service(manager_.get(), options);
  ASSERT_OK(service.PinSet(base_id));
  ASSERT_OK(service.Recover(head_id).status());

  ServeResult hot;
  ASSERT_OK_AND_ASSIGN(ModelSet first, service.Recover(head_id, &hot));
  ASSERT_OK_AND_ASSIGN(ModelSet second, service.Recover(head_id));
  EXPECT_EQ(hot.cache.layer_misses, 0u);
  EXPECT_EQ(first.models[0][0].second.data().data(),
            second.models[0][0].second.data().data());
  const ModelSet untouched = first;

  // Overwrite every tensor of one recovery in place.
  for (StateDict& model : first.models) {
    for (auto& [key, tensor] : model) {
      for (float& x : tensor.mutable_data()) x = -2.0f * x + 1.0f;
    }
  }
  // Load the other into models and train each for one step.
  const Tensor inputs = RandomTensor(Shape{8, 4}, 31);
  const Tensor targets = RandomTensor(Shape{8, 1}, 32);
  TrainConfig one_step;
  one_step.batch_size = 8;
  for (const StateDict& state : second.models) {
    ASSERT_OK_AND_ASSIGN(Model model, Model::Create(second.spec));
    ASSERT_OK(model.LoadStateDict(state));
    ASSERT_OK(TrainModel(&model, inputs, targets, one_step).status());
    EXPECT_FALSE(model.GetStateDict()[0].second.Equals(state[0].second));
  }

  ServeResult again;
  ASSERT_OK_AND_ASSIGN(ModelSet third, service.Recover(head_id, &again));
  EXPECT_EQ(again.cache.layer_misses, 0u);
  ASSERT_OK_AND_ASSIGN(ModelSet direct, manager_->Recover(head_id));
  ExpectSetEquals(third, expected_[head_id]);
  ExpectSetEquals(third, direct);
  ExpectSetEquals(untouched, expected_[head_id]);

  // The pinned base's layers survive the same treatment.
  ASSERT_OK_AND_ASSIGN(ModelSet base, service.Recover(base_id));
  for (StateDict& model : base.models) {
    for (auto& [key, tensor] : model) tensor.Fill(7.0f);
  }
  ServeResult pinned;
  ASSERT_OK_AND_ASSIGN(base, service.Recover(base_id, &pinned));
  EXPECT_EQ(pinned.cache.layer_misses, 0u);
  ExpectSetEquals(base, expected_[base_id]);
}

// Writers recover one hot set and overwrite their copies while readers
// recover the same set and compare it with the saved bytes. Every writer
// copies shared cache buffers concurrently with the readers (a TSan target).
TEST_F(ServeTest, ConcurrentWritersNeverDisturbCachedReaders) {
  OpenManager();
  std::string id = Save(ApproachType::kUpdate, nullptr);
  ModelSetServiceOptions options;
  options.cache_capacity_bytes = 4 * SetChargeBytes(expected_[id]);
  ModelSetService service(manager_.get(), options);
  ASSERT_OK(service.Recover(id).status());

  const ModelSet& saved = expected_[id];
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const bool writer = t % 2 == 0;
      for (int round = 0; round < 20; ++round) {
        Result<ModelSet> recovered = service.Recover(id);
        if (!recovered.ok()) {
          ++wrong;
          continue;
        }
        ModelSet set = std::move(recovered).ValueOrDie();
        for (size_t m = 0; m < set.models.size(); ++m) {
          for (size_t p = 0; p < set.models[m].size(); ++p) {
            Tensor& tensor = set.models[m][p].second;
            const Tensor& want = saved.models[m][p].second;
            if (writer) {
              tensor.Fill(static_cast<float>(t));
              if (tensor.data()[0] != static_cast<float>(t)) ++wrong;
            } else if (!tensor.Equals(want)) {
              ++wrong;
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  ASSERT_OK_AND_ASSIGN(ModelSet after, service.Recover(id));
  ExpectSetEquals(after, saved);
}

// Saves commit beside recoveries: one thread extends the Update chain with
// derived sets while two threads recover the already-saved sets through the
// service. Both sides touch the document store at once (the TSan target);
// every recovered set, and every newly saved one, is bit-exact.
TEST_F(ServeTest, SavesBesideConcurrentRecoveriesStayExact) {
  OpenManager();
  Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo first, scenario_->AdvanceCycle());
  Save(ApproachType::kUpdate, &first);
  const std::map<std::string, ModelSet> readable = expected_;

  // Cycles are trained up front so the writer only saves.
  std::vector<std::pair<ModelSetUpdateInfo, ModelSet>> cycles;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    cycles.emplace_back(update, scenario_->current_set());
  }

  ModelSetServiceOptions options;
  options.cache_capacity_bytes = 1 << 20;  // evict, so reads reach storage
  ModelSetService service(manager_.get(), options);

  std::atomic<int> readers_started{0};
  std::atomic<bool> writer_done{false};
  std::vector<std::pair<std::string, ModelSet>> saved;
  Status writer_status = Status::OK();
  std::thread writer([&] {
    // Saving starts only once both readers run, and they keep reading
    // until the last save returns, so the two sides always overlap.
    while (readers_started < 2) std::this_thread::yield();
    std::string head = heads_[ApproachType::kUpdate];
    for (const auto& [update, set] : cycles) {
      ModelSetUpdateInfo derived = update;
      derived.base_set_id = head;
      Result<SaveResult> result =
          manager_->SaveDerived(ApproachType::kUpdate, set, derived);
      if (!result.ok()) {
        writer_status = result.status();
        break;
      }
      head = result.ValueOrDie().set_id;
      saved.emplace_back(head, set);
    }
    writer_done = true;
  });

  std::vector<std::vector<std::pair<std::string, ModelSet>>> reads(2);
  std::vector<Status> reader_status(2, Status::OK());
  std::vector<std::thread> readers;
  for (size_t r = 0; r < reads.size(); ++r) {
    readers.emplace_back([&, r] {
      ++readers_started;
      for (size_t i = 0; i < readable.size() || !writer_done; ++i) {
        auto it = std::next(readable.begin(),
                            static_cast<ptrdiff_t>((i + r) % readable.size()));
        Result<ModelSet> recovered = service.Recover(it->first);
        if (!recovered.ok()) {
          reader_status[r] = recovered.status();
          return;
        }
        reads[r].emplace_back(it->first, std::move(recovered).ValueOrDie());
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  ASSERT_OK(writer_status);
  ASSERT_EQ(saved.size(), cycles.size());
  for (size_t r = 0; r < reads.size(); ++r) {
    ASSERT_OK(reader_status[r]);
    for (const auto& [id, set] : reads[r]) {
      ExpectSetEquals(set, readable.at(id));
    }
  }
  for (const auto& [id, set] : saved) {
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, service.Recover(id));
    ExpectSetEquals(recovered, set);
  }
}

// Per-request modeled store cost is exact at any worker count: charges are
// attributed through the per-thread clock accumulator and a request runs
// entirely on one worker, so the 4-worker replay reports the same
// modeled_store_nanos per request as the sequential one — not just the same
// total. Cache off, so every request takes the full store path.
TEST_F(ServeTest, PerRequestModeledCostExactUnderConcurrency) {
  OpenManager();
  SaveAll(nullptr);
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    SaveAll(&update);
  }
  std::vector<std::string> ids;
  for (const auto& [id, set] : expected_) ids.push_back(id);
  std::vector<std::string> trace = BuildZipfianTrace(ids, 48, 0.99, 13);

  std::vector<std::vector<ServeResult>> runs;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ModelSetServiceOptions options;
    options.workers = workers;
    options.cache_enabled = false;
    ModelSetService service(manager_.get(), options);
    runs.push_back(service.Replay(trace));
  }
  ASSERT_EQ(runs[0].size(), trace.size());
  ASSERT_EQ(runs[1].size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_OK(runs[0][i].status);
    ASSERT_OK(runs[1][i].status);
    EXPECT_GT(runs[0][i].modeled_store_nanos, 0u) << "request " << i;
    EXPECT_EQ(runs[0][i].modeled_store_nanos, runs[1][i].modeled_store_nanos)
        << "request " << i << " set " << trace[i];
    EXPECT_EQ(runs[0][i].sets_walked, runs[1][i].sets_walked);
  }
}

// A corrupt blob never poisons the layer cache. One byte of the base
// snapshot's parameter blob is flipped inside a layer the head shares with
// it. Recovering the base fails with Corruption and leaves no layer of that
// blob in the cache (layers are admitted only after their blob's CRC
// passed), so the head, recovered next, cannot be assembled from the
// flipped layer: it ends in Corruption or in bit-exact bytes.
TEST_F(ServeTest, CorruptBlobNeverPoisonsTheCache) {
  struct Arm {
    const char* name;
    Compression compression;
    bool cas;
  };
  for (const Arm& arm : {Arm{"raw", Compression::kNone, false},
                         Arm{"lz", Compression::kLz, false},
                         Arm{"cas", Compression::kNone, true}}) {
    SCOPED_TRACE(arm.name);
    manager_.reset();
    heads_.clear();
    expected_.clear();
    std::filesystem::remove_all(temp_.path() + "/store");
    OpenManager({}, arm.compression, arm.cas);
    std::string base_id = Save(ApproachType::kUpdate, nullptr);
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    std::string head_id = Save(ApproachType::kUpdate, &update);

    // The largest layer the head kept unchanged from the base.
    const ModelSet& base = expected_[base_id];
    const ModelSet& head = expected_[head_id];
    const Tensor* victim = nullptr;
    for (size_t m = 0; m < base.models.size(); ++m) {
      for (size_t p = 0; p < base.models[m].size(); ++p) {
        const Tensor& t = base.models[m][p].second;
        if (t.Equals(head.models[m][p].second) &&
            (victim == nullptr || t.numel() > victim->numel())) {
          victim = &t;
        }
      }
    }
    ASSERT_NE(victim, nullptr);
    ASSERT_GE(victim->numel(), 8u);
    // Stored files hold a shared layer's floats verbatim: raw blobs and CAS
    // chunks byte for byte, LZ blobs as literals (trained weights do not
    // compress). Flip a byte inside the first 16-byte window of the layer
    // that occurs exactly once across the store's blobs.
    const auto* bytes = reinterpret_cast<const char*>(victim->data().data());
    const size_t layer_bytes = victim->numel() * sizeof(float);
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(
             temp_.path() + "/store/blobs")) {
      if (entry.is_regular_file()) files.push_back(entry.path().string());
    }
    std::string flipped_file;
    for (size_t at = 0; at + 16 <= layer_bytes && flipped_file.empty();
         at += 16) {
      const std::string window(bytes + at, 16);
      std::vector<std::pair<std::string, size_t>> hits;
      for (const std::string& file : files) {
        std::ifstream in(file, std::ios::binary);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        for (size_t pos = content.find(window); pos != std::string::npos;
             pos = content.find(window, pos + 1)) {
          hits.emplace_back(file, pos);
        }
      }
      if (hits.size() != 1) continue;
      std::fstream io(hits[0].first,
                      std::ios::binary | std::ios::in | std::ios::out);
      io.seekg(static_cast<std::streamoff>(hits[0].second + 8));
      char c = 0;
      io.get(c);
      io.seekp(static_cast<std::streamoff>(hits[0].second + 8));
      io.put(static_cast<char>(c ^ 0x01));
      flipped_file = hits[0].first;
    }
    ASSERT_FALSE(flipped_file.empty()) << "no stored copy of the layer found";

    ModelSetService service(manager_.get(), ModelSetServiceOptions{});
    Result<ModelSet> base_result = service.Recover(base_id);
    ASSERT_TRUE(base_result.status().IsCorruption())
        << base_result.status().ToString();
    EXPECT_EQ(service.cache_stats().entries, 0u);
    EXPECT_EQ(service.cache_stats().inserts, 0u);

    Result<ModelSet> head_result = service.Recover(head_id);
    if (head_result.ok()) {
      ExpectSetEquals(head_result.ValueOrDie(), head);
    } else {
      EXPECT_TRUE(head_result.status().IsCorruption())
          << head_result.status().ToString();
    }
  }
}

// Verify-then-admit on the ranged root read. With half a set of capacity,
// a cold recovery of the root admits its layers while they fit and the
// admission filter declines the rest, so the next recovery reads the
// layers the cache does not hold by range from the raw param blob. A byte
// flipped inside one of those is outside the footer's reach: its layer CRC
// check fails the recovery with Corruption, and no layer of that request is
// admitted.
TEST_F(ServeTest, RangedRootReadFailsAFlippedLayerAndAdmitsNothing) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ModelSetServiceOptions options;
  options.cache_capacity_bytes = SetChargeBytes(expected_[base_id]) / 2;
  ModelSetService service(manager_.get(), options);
  ASSERT_OK(service.Recover(base_id).status());

  // The last model's first layer: offered when the cache was full, so not
  // held; the Corruption below shows it was read from the store.
  ASSERT_OK_AND_ASSIGN(SetDocument doc,
                       FetchSetDocument(manager_->context(), base_id));
  FileStore* files = manager_->file_store();
  ASSERT_OK_AND_ASSIGN(uint64_t param_bytes, files->Size(doc.param_blob));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> prefix,
                       files->GetRange(doc.param_blob, 0,
                                       kParamBlobMaxHeaderBytes));
  ASSERT_OK_AND_ASSIGN(
      ParamBlobLayout layout,
      ReadParamBlobHeader(prefix, LayoutOf(expected_[base_id].spec).size()));
  const std::string path = temp_.path() + "/store/blobs/" + doc.param_blob;
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(io.is_open()) << path;
  const auto at = static_cast<std::streamoff>(
      layout.ModelOffset(expected_[base_id].models.size() - 1) + 2);
  io.seekg(at);
  char c = 0;
  io.get(c);
  io.seekp(at);
  io.put(static_cast<char>(c ^ 0x10));
  io.close();

  const LayerCacheStats before = service.cache_stats();
  const StoreStats reads_before = files->stats();
  ServeResult result;
  Result<ModelSet> recovered = service.Recover(base_id, &result);
  ASSERT_TRUE(recovered.status().IsCorruption())
      << recovered.status().ToString();
  EXPECT_NE(recovered.status().ToString().find("layer crc"), std::string::npos)
      << recovered.status().ToString();
  // The layers came by range, not with the whole blob.
  EXPECT_LT((files->stats() - reads_before).bytes_read, param_bytes);
  const LayerCacheStats after = service.cache_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.entries, before.entries);
}

// Counts the Env read calls (whole and ranged) per path; everything else
// passes through.
class ReadCountingEnv : public Env {
 public:
  explicit ReadCountingEnv(Env* base) : base_(base) {}
  int reads(const std::string& path) const {
    MutexLock lock(mu_);
    auto it = reads_.find(path);
    return it == reads_.end() ? 0 : it->second;
  }
  Status WriteFile(const std::string& path,
                   std::span<const uint8_t> data) override {
    return base_->WriteFile(path, data);
  }
  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override {
    return base_->AppendToFile(path, data);
  }
  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    Count(path);
    return base_->ReadFile(path);
  }
  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override {
    Count(path);
    return base_->ReadFileRange(path, offset, length);
  }
  Result<bool> FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  Status RemoveDirs(const std::string& path) override {
    return base_->RemoveDirs(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }

 private:
  void Count(const std::string& path) {
    MutexLock lock(mu_);
    reads_[path] += 1;
  }
  Env* base_;
  mutable Mutex mu_;
  std::map<std::string, int> reads_ MMM_GUARDED_BY(mu_);
};

// A diff level that is not CAS-chunked is read whole in one Env read, raw
// or compressed, however small the stream window: its diff blob is many
// windows long, yet the cached recovery of the head reads it once.
TEST_F(ServeTest, NonCasDiffLevelIsOneEnvRead) {
  constexpr uint64_t kWindow = 512;
  for (Compression compression : {Compression::kNone, Compression::kLz}) {
    SCOPED_TRACE(std::string(CompressionName(compression)));
    manager_.reset();
    heads_.clear();
    expected_.clear();
    std::filesystem::remove_all(temp_.path() + "/store");
    ReadCountingEnv env(Env::Default());
    OpenManager({}, compression, /*cas=*/false, &env, kWindow);
    std::string base_id = Save(ApproachType::kUpdate, nullptr);
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
    std::string head_id = Save(ApproachType::kUpdate, &update);
    ASSERT_OK_AND_ASSIGN(SetDocument head,
                         FetchSetDocument(manager_->context(), head_id));
    ASSERT_OK_AND_ASSIGN(uint64_t diff_bytes,
                         manager_->file_store()->Size(head.diff_blob));
    ASSERT_GT(diff_bytes, 4 * kWindow);
    const std::string diff_path =
        temp_.path() + "/store/blobs/" + head.diff_blob;
    ASSERT_EQ(env.reads(diff_path), 0);

    ModelSetService service(manager_.get(), ModelSetServiceOptions{});
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, service.Recover(head_id));
    ExpectSetEquals(recovered, expected_[head_id]);
    EXPECT_EQ(env.reads(diff_path), 1);
    manager_.reset();
  }
}

// Verify-then-admit on the whole-blob diff read: a byte flipped in a diff
// blob fails the head's recovery with Corruption, and no layer of that
// request reaches the cache, neither the diff's nor the base's.
TEST_F(ServeTest, FlippedDiffByteIsCorruptionAndAdmitsNothing) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  ASSERT_OK_AND_ASSIGN(SetDocument head,
                       FetchSetDocument(manager_->context(), head_id));
  const std::string path = temp_.path() + "/store/blobs/" + head.diff_blob;
  const auto size = static_cast<std::streamoff>(std::filesystem::file_size(path));
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(io.is_open()) << path;
  io.seekg(size / 2);
  char c = 0;
  io.get(c);
  io.seekp(size / 2);
  io.put(static_cast<char>(c ^ 0x04));
  io.close();

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  Result<ModelSet> recovered = service.Recover(head_id);
  ASSERT_TRUE(recovered.status().IsCorruption())
      << recovered.status().ToString();
  EXPECT_EQ(service.cache_stats().inserts, 0u);
  EXPECT_EQ(service.cache_stats().entries, 0u);
  // The base does not depend on the diff and still recovers bit-exactly.
  ASSERT_OK_AND_ASSIGN(ModelSet base, service.Recover(base_id));
  ExpectSetEquals(base, expected_[base_id]);
}

// A request whose metadata memo hits reads the root's missing layers with
// one ranged stream: the memo holds the root's header as well as its layer
// CRC table, so neither the blob's header nor its size is read again.
TEST_F(ServeTest, MemoHitRangedRootReadIsOneReadOp) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ModelSetServiceOptions options;
  options.cache_capacity_bytes = SetChargeBytes(expected_[base_id]) / 2;
  ModelSetService service(manager_.get(), options);
  ASSERT_OK(service.Recover(base_id).status());

  ASSERT_OK_AND_ASSIGN(SetDocument doc,
                       FetchSetDocument(manager_->context(), base_id));
  FileStore* files = manager_->file_store();
  ASSERT_OK_AND_ASSIGN(uint64_t param_bytes, files->Size(doc.param_blob));
  const StoreStats before = files->stats();
  ServeResult result;
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, service.Recover(base_id, &result));
  const StoreStats delta = files->stats() - before;
  ExpectSetEquals(recovered, expected_[base_id]);
  EXPECT_EQ(result.cache.meta_hits, 1u);
  ASSERT_GT(result.cache.layer_misses, 0u);
  EXPECT_EQ(delta.read_ops, 1u);
  EXPECT_LT(delta.bytes_read, param_bytes);  // by range, not whole
}

// A root snapshot stored as MMMPARM1 recovers bit-exact through Recover,
// RecoverModels and the cached path, each reading it whole (checked by its
// footer) where an MMMPARM2 root would be read by range. Baseline's
// selective read of an MMMPARM1 snapshot does the same.
TEST_F(ServeTest, VersionOneParamBlobIsReadWhole) {
  OpenManager();
  const std::string base_id = Save(ApproachType::kUpdate, nullptr);
  const std::string baseline_id = Save(ApproachType::kBaseline, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  const std::string head_id = Save(ApproachType::kUpdate, &update);
  const std::vector<uint8_t> v1 = VersionOneParamBlob(expected_[base_id]);
  for (const std::string& id : {base_id, baseline_id}) {
    ASSERT_OK_AND_ASSIGN(SetDocument doc,
                         FetchSetDocument(manager_->context(), id));
    std::ofstream out(temp_.path() + "/store/blobs/" + doc.param_blob,
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(v1.data()),
              static_cast<std::streamsize>(v1.size()));
  }
  FileStore* files = manager_->file_store();
  auto bytes_read = [&](auto&& read) {
    const StoreStats before = files->stats();
    read();
    return (files->stats() - before).bytes_read;
  };

  for (const std::string& id : {base_id, head_id, baseline_id}) {
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager_->Recover(id));
    ExpectSetEquals(recovered, expected_[id]);
    // One model is asked for, so only a whole read covers the blob.
    const std::vector<size_t> models = {3};
    const uint64_t read = bytes_read([&] {
      ASSERT_OK_AND_ASSIGN(std::vector<StateDict> selected,
                           manager_->RecoverModels(id, models));
      ASSERT_EQ(selected.size(), 1u);
      for (size_t p = 0; p < selected[0].size(); ++p) {
        EXPECT_TRUE(selected[0][p].second.Equals(
            expected_[id].models[3][p].second));
      }
    });
    EXPECT_GE(read, v1.size()) << id;
  }

  // Half a set of capacity: the second recovery of the root misses some
  // layers, which an MMMPARM2 root would serve by range.
  ModelSetServiceOptions options;
  options.cache_capacity_bytes = SetChargeBytes(expected_[base_id]) / 2;
  ModelSetService service(manager_.get(), options);
  ASSERT_OK(service.Recover(base_id).status());
  ServeResult result;
  const uint64_t read = bytes_read([&] {
    ASSERT_OK_AND_ASSIGN(ModelSet served, service.Recover(base_id, &result));
    ExpectSetEquals(served, expected_[base_id]);
  });
  EXPECT_GT(result.cache.layer_hits, 0u);
  EXPECT_GT(result.cache.layer_misses, 0u);
  EXPECT_GE(read, v1.size());
  ASSERT_OK_AND_ASSIGN(ModelSet head, service.Recover(head_id));
  ExpectSetEquals(head, expected_[head_id]);
}

// Every Update read path against what was saved. Both diff encodings x
// compression {none, LZ} x CAS {off, on}, over a chain 4 deltas deep:
// Recover, RecoverModels of a fixed subset, and the service through caches
// of 0, 0.3x and 2x one set, replaying a seeded random order at workers 1
// and 4, all return exactly the saved version. The paths share one chain
// resolver, so each is checked against the saved bytes, not against
// another path. At 0.3x, entries are evicted while other workers still hold
// them (a TSan target), and on a raw, non-CAS store the root is read by
// range and each of those layers checked against its layer CRC, under both
// encodings.
TEST_F(ServeTest, CachedMatchesDirectAcrossEncodingsCompressionCas) {
  for (DiffEncoding encoding : {DiffEncoding::kAbsolute, DiffEncoding::kXorBase}) {
    for (Compression compression : {Compression::kNone, Compression::kLz}) {
      for (bool cas : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "xor=" << (encoding == DiffEncoding::kXorBase)
                     << " lz=" << (compression == Compression::kLz)
                     << " cas=" << cas);
        TempDir dir("serve-parity");
        ModelSetManager::Options options;
        options.root_dir = dir.path() + "/store";
        options.update_options.diff_encoding = encoding;
        options.blob_compression = compression;
        options.cas.enabled = cas;
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<ModelSetManager> manager,
                             ModelSetManager::Open(options));

        // Each version changes a random subset of layers: nudged, zeroed
        // (so layers repeat within and across sets) or negated.
        Rng rng(23);
        ASSERT_OK_AND_ASSIGN(ModelSet set,
                             MakeInitializedSet(Ffnn48Spec(), 8, /*seed=*/5));
        ASSERT_OK_AND_ASSIGN(SaveResult saved,
                             manager->SaveInitial(ApproachType::kUpdate, set));
        std::vector<std::string> ids{saved.set_id};
        std::map<std::string, ModelSet> versions{{saved.set_id, set}};
        for (int version = 0; version < 4; ++version) {
          ModelSet base = set;
          for (size_t k = 0, n = 3 + rng.NextBounded(10); k < n; ++k) {
            StateDict& model = set.models[rng.NextBounded(set.models.size())];
            Tensor& tensor = model[rng.NextBounded(model.size())].second;
            switch (rng.NextBounded(3)) {
              case 0:
                tensor.at(rng.NextBounded(tensor.numel())) += 0.25f;
                break;
              case 1:
                tensor.Fill(0.0f);
                break;
              default:
                for (float& x : tensor.mutable_data()) x = -x;
                break;
            }
          }
          ModelSetUpdateInfo update;
          update.base_set_id = ids.back();
          update.base_set = &base;
          ASSERT_OK_AND_ASSIGN(
              saved, manager->SaveDerived(ApproachType::kUpdate, set, update));
          ids.push_back(saved.set_id);
          versions[saved.set_id] = set;
        }
        const std::vector<size_t> subset{5, 0, 5, 3};
        for (const std::string& id : ids) {
          ASSERT_OK_AND_ASSIGN(ModelSet direct, manager->Recover(id));
          ExpectSetEquals(direct, versions[id]);
          ASSERT_OK_AND_ASSIGN(std::vector<StateDict> models,
                               manager->RecoverModels(id, subset));
          ASSERT_EQ(models.size(), subset.size());
          ModelSet selected;
          selected.spec = versions[id].spec;
          for (size_t index : subset) {
            selected.models.push_back(versions[id].models[index]);
          }
          ExpectSetEquals(ModelSet{selected.spec, std::move(models)}, selected);
        }

        std::vector<std::string> trace;
        for (int i = 0; i < 24; ++i) {
          trace.push_back(ids[rng.NextBounded(ids.size())]);
        }
        const uint64_t set_bytes = SetChargeBytes(set);
        for (uint64_t capacity : {uint64_t{0}, set_bytes * 3 / 10, 2 * set_bytes}) {
          for (size_t workers : {size_t{1}, size_t{4}}) {
            SCOPED_TRACE(::testing::Message() << "capacity=" << capacity
                                              << " workers=" << workers);
            ModelSetServiceOptions service_options;
            service_options.workers = workers;
            service_options.cache_capacity_bytes = capacity;
            ModelSetService service(manager.get(), service_options);
            std::vector<ModelSet> recovered;
            std::vector<ServeResult> results = service.Replay(trace, &recovered);
            for (size_t i = 0; i < trace.size(); ++i) {
              ASSERT_OK(results[i].status);
              ExpectSetEquals(recovered[i], versions[trace[i]]);
            }
            EXPECT_LE(service.cache_stats().bytes_used, capacity);
          }
        }
        if (cas || compression != Compression::kNone) continue;
        // On a raw, non-CAS store the 0.3x cache leaves part of a set
        // resident, and a request that walks to the root reads just the
        // layers still missing there, by range: fewer bytes in the whole
        // request than the root's param blob alone.
        ASSERT_OK_AND_ASSIGN(SetDocument root_doc,
                             FetchSetDocument(manager->context(), ids[0]));
        ASSERT_OK_AND_ASSIGN(uint64_t param_bytes,
                             manager->file_store()->Size(root_doc.param_blob));
        ModelSetServiceOptions service_options;
        service_options.cache_capacity_bytes = set_bytes * 3 / 10;
        ModelSetService service(manager.get(), service_options);
        size_t ranged = 0;
        for (const std::string& id : trace) {
          const StoreStats before = manager->file_store()->stats();
          ServeResult result;
          ASSERT_OK_AND_ASSIGN(ModelSet served, service.Recover(id, &result));
          ExpectSetEquals(served, versions[id]);
          const auto depth = static_cast<uint64_t>(
              std::find(ids.begin(), ids.end(), id) - ids.begin());
          const uint64_t bytes =
              (manager->file_store()->stats() - before).bytes_read;
          if (result.sets_walked == depth + 1 &&
              result.cache.layer_misses > 0 && bytes < param_bytes) {
            ++ranged;
          }
        }
        EXPECT_GT(ranged, 0u);
      }
    }
  }
}

// Every recovery path fetches a set's document once, whichever approach
// saved the set: the manager and the service learn the approach from the
// document and hand it on. MMlib-base also reads one document per model it
// recovers. The manager's modeled cost is the approach's own, fetch
// included.
TEST_F(ServeTest, EveryRecoveryPathFetchesTheSetDocumentOnce) {
  OpenManager();
  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  DocumentStore* docs = manager_->doc_store();
  for (ApproachType type : kAllApproaches) {
    const std::string id = Save(type, nullptr);
    const uint64_t num_models = expected_[id].models.size();
    const bool per_model = type == ApproachType::kMMlibBase;
    SCOPED_TRACE(ApproachTypeName(type));

    uint64_t before = docs->stats().read_ops;
    RecoverStats stats;
    ASSERT_OK_AND_ASSIGN(ModelSet direct, manager_->Recover(id, &stats));
    ExpectSetEquals(direct, expected_[id]);
    EXPECT_EQ(docs->stats().read_ops - before,
              1 + (per_model ? num_models : 0));
    RecoverStats by_approach;
    ASSERT_OK(manager_->approach(type)->Recover(id, &by_approach).status());
    EXPECT_EQ(stats.simulated_store_nanos, by_approach.simulated_store_nanos);

    before = docs->stats().read_ops;
    ASSERT_OK_AND_ASSIGN(std::vector<StateDict> selected,
                         manager_->RecoverModels(id, {1}));
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(docs->stats().read_ops - before, per_model ? 2u : 1u);

    before = docs->stats().read_ops;
    ServeResult served;
    ASSERT_OK(service.Recover(id, &served).status());
    EXPECT_EQ(docs->stats().read_ops - before,
              1 + (per_model ? num_models : 0));
  }
}

// Corrupted chains fail cleanly on every read path: Recover, RecoverModels
// and the cached path. Two planted delta documents whose base_set_ids point
// at each other end in Corruption within chain_depth + 1 fetches of the
// chain's documents; a diff entry whose model index is out of range, and a
// base of an unknown kind, end in Corruption too.
TEST_F(ServeTest, CorruptedChainsFailCleanlyOnBothPaths) {
  OpenManager();
  std::string base_id = Save(ApproachType::kUpdate, nullptr);
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario_->AdvanceCycle());
  std::string head_id = Save(ApproachType::kUpdate, &update);
  const StoreContext& context = manager_->context();
  ASSERT_OK_AND_ASSIGN(SetDocument head_doc, FetchSetDocument(context, head_id));

  SetDocument a = head_doc;
  a.id = "set-cycle-a";
  a.base_set_id = "set-cycle-b";
  SetDocument b = head_doc;
  b.id = "set-cycle-b";
  b.base_set_id = "set-cycle-a";
  ASSERT_OK(InsertSetDocument(context, a));
  ASSERT_OK(InsertSetDocument(context, b));
  const uint64_t budget = a.chain_depth + 1;
  DocumentStore* docs = manager_->doc_store();

  // The approach itself fetches at most chain_depth + 1 documents. The
  // manager and the service each fetch the first one to learn the set's
  // approach and hand it on, so no path fetches more.
  uint64_t before = docs->stats().read_ops;
  Result<ModelSet> walked = manager_->update_approach()->Recover(a.id);
  EXPECT_TRUE(walked.status().IsCorruption()) << walked.status().ToString();
  EXPECT_LE(docs->stats().read_ops - before, budget);

  before = docs->stats().read_ops;
  Result<ModelSet> direct = manager_->Recover(a.id);
  EXPECT_TRUE(direct.status().IsCorruption()) << direct.status().ToString();
  EXPECT_NE(direct.status().ToString().find("cycle"), std::string::npos);
  EXPECT_LE(docs->stats().read_ops - before, budget);

  ModelSetService service(manager_.get(), ModelSetServiceOptions{});
  before = docs->stats().read_ops;
  Result<ModelSet> served = service.Recover(a.id);
  EXPECT_TRUE(served.status().IsCorruption()) << served.status().ToString();
  EXPECT_NE(served.status().ToString().find("cycle"), std::string::npos);
  EXPECT_LE(docs->stats().read_ops - before, budget);

  before = docs->stats().read_ops;
  Result<std::vector<StateDict>> selected = manager_->RecoverModels(a.id, {0});
  EXPECT_TRUE(selected.status().IsCorruption()) << selected.status().ToString();
  EXPECT_LE(docs->stats().read_ops - before, budget);

  // A diff whose one entry names model num_models. It is encoded from the
  // head plus one extra model, so the blob itself decodes cleanly.
  ModelSet wider = expected_[head_id];
  wider.models.push_back(wider.models.back());
  std::vector<DiffEntry> entries{
      {static_cast<uint32_t>(head_doc.num_models), 0}};
  SetDocument oob = head_doc;
  oob.id = "set-oob";
  oob.diff_blob = "set-oob.diff.bin";
  ASSERT_OK(manager_->file_store()->Put(oob.diff_blob,
                                        EncodeDiffBlob(wider, entries)));
  ASSERT_OK(InsertSetDocument(context, oob));
  Result<ModelSet> oob_direct = manager_->Recover(oob.id);
  EXPECT_TRUE(oob_direct.status().IsCorruption())
      << oob_direct.status().ToString();
  ModelSetService cold_service(manager_.get(), ModelSetServiceOptions{});
  Result<ModelSet> oob_served = cold_service.Recover(oob.id);
  EXPECT_TRUE(oob_served.status().IsCorruption())
      << oob_served.status().ToString();
  EXPECT_NE(oob_served.status().ToString().find("out of range"),
            std::string::npos);
  Result<std::vector<StateDict>> oob_selected =
      manager_->RecoverModels(oob.id, {0});
  EXPECT_TRUE(oob_selected.status().IsCorruption())
      << oob_selected.status().ToString();

  // A base level of a kind an Update chain never holds.
  SetDocument odd_base = head_doc;
  odd_base.id = "set-odd-base";
  odd_base.kind = "prov";
  SetDocument odd = head_doc;
  odd.id = "set-odd";
  odd.base_set_id = odd_base.id;
  ASSERT_OK(InsertSetDocument(context, odd_base));
  ASSERT_OK(InsertSetDocument(context, odd));
  Result<ModelSet> odd_direct = manager_->Recover(odd.id);
  EXPECT_TRUE(odd_direct.status().IsCorruption())
      << odd_direct.status().ToString();
  Result<std::vector<StateDict>> odd_selected =
      manager_->RecoverModels(odd.id, {0});
  EXPECT_TRUE(odd_selected.status().IsCorruption())
      << odd_selected.status().ToString();
  Result<ModelSet> odd_served = cold_service.Recover(odd.id);
  EXPECT_TRUE(odd_served.status().IsCorruption())
      << odd_served.status().ToString();
}

}  // namespace
}  // namespace mmm
