#include "cas/chunker.h"

#include <array>

namespace mmm {

namespace {

/// SplitMix64 step — fills the Gear table with well-mixed constants at
/// compile time, with no runtime randomness source.
constexpr uint64_t SplitMix64(uint64_t* state) {
  uint64_t x = (*state += 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::array<uint64_t, 256> MakeGearTable() {
  std::array<uint64_t, 256> table{};
  uint64_t state = 0x6d6d6d2d63617331ull;  // "mmm-cas1"
  for (uint64_t& entry : table) entry = SplitMix64(&state);
  return table;
}

/// One 64-bit constant per byte value. The Gear hash `h = (h << 1) + g[b]`
/// forgets a byte after 64 shifts, so the cut decision depends only on a
/// sliding window of the last 64 bytes — the property that re-synchronizes
/// boundaries after an edit.
constexpr std::array<uint64_t, 256> kGearTable = MakeGearTable();

bool IsPowerOfTwo(uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

}  // namespace

Status CasOptions::Validate() const {
  if (!IsPowerOfTwo(avg_chunk_bytes)) {
    return Status::InvalidArgument("cas avg_chunk_bytes (", avg_chunk_bytes,
                                   ") must be a power of two");
  }
  if (min_chunk_bytes == 0 || min_chunk_bytes > avg_chunk_bytes ||
      avg_chunk_bytes > max_chunk_bytes) {
    return Status::InvalidArgument(
        "cas chunk sizes must satisfy 0 < min (", min_chunk_bytes,
        ") <= avg (", avg_chunk_bytes, ") <= max (", max_chunk_bytes, ")");
  }
  if (min_blob_bytes == 0) {
    return Status::InvalidArgument("cas min_blob_bytes must be positive");
  }
  // A pack index records each chunk's length in 32 bits (cas/pack.h).
  if (max_chunk_bytes > UINT32_MAX) {
    return Status::InvalidArgument("cas max_chunk_bytes (", max_chunk_bytes,
                                   ") must fit in 32 bits");
  }
  return Status::OK();
}

std::vector<ChunkSpan> ChunkBlob(std::span<const uint8_t> data,
                                 const CasOptions& options) {
  std::vector<ChunkSpan> spans;
  if (data.empty()) return spans;

  if (options.fixed_size) {
    const size_t step = static_cast<size_t>(options.avg_chunk_bytes);
    for (size_t start = 0; start < data.size(); start += step) {
      spans.push_back({start, std::min(step, data.size() - start)});
    }
    return spans;
  }

  const uint64_t mask = options.avg_chunk_bytes - 1;
  size_t start = 0;
  uint64_t hash = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    hash = (hash << 1) + kGearTable[data[i]];
    const size_t length = i + 1 - start;
    if ((length >= options.min_chunk_bytes && (hash & mask) == 0) ||
        length >= options.max_chunk_bytes) {
      spans.push_back({start, length});
      start = i + 1;
      hash = 0;
    }
  }
  if (start < data.size()) spans.push_back({start, data.size() - start});
  return spans;
}

}  // namespace mmm
