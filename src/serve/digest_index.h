#ifndef MMM_SERVE_DIGEST_INDEX_H_
#define MMM_SERVE_DIGEST_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "serialize/sha256.h"

namespace mmm {

/// \brief Open-addressed index that owns entries holding their own SHA-256
/// digest (`entry->key`), with no node per entry.
///
/// Each slot holds the digest's first 8 bytes as a tag and the entry's
/// owning pointer; an empty slot's is null. A key's home slot is its tag
/// masked to the table size (a SHA-256 prefix is already uniformly
/// distributed). Collisions probe linearly, wrapping past the table's end.
/// Erase shifts the rest of the run back over the hole (no tombstones), so
/// every run ends at its first empty slot. The table doubles before its
/// load passes 1/2, which keeps runs short. Entries never move; growth
/// moves only their pointers.
///
/// A lookup reads slots until the first one whose tag matches, and only
/// then the entry, to compare the whole digest: a miss rarely touches an
/// entry. The steps of a lookup are public (Home, Prefetch, Scan, At,
/// FindFrom), so that a batch can software-pipeline many lookups and
/// prefetch each step's line ahead of its use (LayerCache::Get).
template <typename Entry>
class DigestIndex {
 public:
  /// One slot: 16 bytes.
  struct Slot {
    uint64_t tag = 0;
    std::unique_ptr<Entry> entry;
  };

  DigestIndex() : slots_(kMinSlots) {}

  /// The tag of `key`: its first 8 bytes.
  static uint64_t TagOf(const Sha256Digest& key) {
    uint64_t tag;
    std::memcpy(&tag, key.bytes.data(), sizeof(tag));
    return tag;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  /// The slot a key with `tag` probes first.
  size_t Home(uint64_t tag) const { return static_cast<size_t>(tag) & Mask(); }
  /// The slot after `slot` in probe order.
  size_t Next(size_t slot) const { return (slot + 1) & Mask(); }
  /// Hints the CPU to fetch `slot`'s cache line.
  void Prefetch(size_t slot) const { __builtin_prefetch(&slots_[slot]); }
  /// The first slot from `slot` on, in probe order, that is empty or tagged
  /// `tag`.
  size_t Scan(size_t slot, uint64_t tag) const {
    while (At(slot) != nullptr && slots_[slot].tag != tag) slot = Next(slot);
    return slot;
  }
  /// The entry in `slot`, or null if the slot is empty.
  Entry* At(size_t slot) const { return slots_[slot].entry.get(); }
  /// The entry keyed `key`, probing from `slot`, which must lie on `key`'s
  /// probe run at or before the entry (its home, or a slot Scan returned
  /// for it); null if there is none.
  Entry* FindFrom(size_t slot, const Sha256Digest& key) const {
    return At(Locate(slot, key));
  }
  Entry* Find(const Sha256Digest& key) const {
    return FindFrom(Home(TagOf(key)), key);
  }

  /// Adds an entry whose key is not indexed yet.
  void Insert(std::unique_ptr<Entry> entry) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const uint64_t tag = TagOf(entry->key);
    Place(Slot{tag, std::move(entry)});
    size_ += 1;
  }

  /// Removes the entry keyed `key` and returns it (null if absent).
  std::unique_ptr<Entry> Erase(const Sha256Digest& key) {
    size_t hole = Locate(Home(TagOf(key)), key);
    if (At(hole) == nullptr) return nullptr;
    std::unique_ptr<Entry> erased = std::move(slots_[hole].entry);
    // Backward shift: move each later entry of the run into the hole
    // unless its home lies cyclically in (hole, slot].
    for (size_t slot = Next(hole); At(slot) != nullptr; slot = Next(slot)) {
      const size_t home = Home(slots_[slot].tag);
      if (((slot - home) & Mask()) >= ((slot - hole) & Mask())) {
        slots_[hole] = std::move(slots_[slot]);
        hole = slot;
      }
    }
    slots_[hole] = Slot{};
    size_ -= 1;
    return erased;
  }

  /// Removes every entry; keeps the table's size.
  void Clear() {
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

 private:
  static constexpr size_t kMinSlots = 16;

  size_t Mask() const { return slots_.size() - 1; }

  /// The slot keyed `key`, probing from `slot` (see FindFrom), or the
  /// empty slot that ends its run.
  size_t Locate(size_t slot, const Sha256Digest& key) const {
    const uint64_t tag = TagOf(key);
    slot = Scan(slot, tag);
    while (At(slot) != nullptr && !(At(slot)->key == key)) {
      slot = Scan(Next(slot), tag);
    }
    return slot;
  }

  /// Puts `slot` in the first empty slot of its run.
  void Place(Slot slot) {
    size_t at = Home(slot.tag);
    while (At(at) != nullptr) at = Next(at);
    slots_[at] = std::move(slot);
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.entry != nullptr) Place(std::move(slot));
    }
  }

  std::vector<Slot> slots_;  ///< a power of two of them
  size_t size_ = 0;
};

}  // namespace mmm

#endif  // MMM_SERVE_DIGEST_INDEX_H_
