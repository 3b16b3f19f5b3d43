#ifndef MMM_CAS_PACK_H_
#define MMM_CAS_PACK_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cas/manifest.h"
#include "common/result.h"
#include "storage/blob_sink.h"
#include "storage/env.h"
#include "storage/file_store.h"

namespace mmm {

/// \file
/// Pack blobs (DESIGN.md §10): every commit's new chunks, back to back in
/// one immutable blob named `pack-<id>`, followed by the pack's own index.
///
///   [chunk 0][chunk 1]...[chunk n-1]
///   [index: n x (32-byte SHA-256, u32 length, u32 CRC-32 of the chunk)]
///   [footer: u32 n, u32 CRC-32 of the index, 8-byte magic "MMCASP1\n"]
///
/// Integers are little-endian. Chunk offsets are the prefix sums of the
/// lengths, so an index that parses always tiles the data region exactly.
/// The index is what `CasStore::Open` reads to map each chunk to its place
/// in a pack (one footer read and one index read per pack), and the CRC of
/// each entry lets a reader name the chunk whose bytes are bad.

/// Pack blob names live beside the artifacts: `pack-` plus the id as 16
/// zero-padded decimal digits, so names sort by id. Like the legacy chunk
/// namespace, only src/cas/ may delete them (mmmsa `chunk-delete`).
inline constexpr char kCasPackPrefix[] = "pack-";

inline constexpr char kCasPackMagic[] = "MMCASP1\n";
inline constexpr size_t kCasPackFooterSize = 16;
inline constexpr size_t kCasPackEntrySize = 40;

std::string PackBlobName(uint64_t id);
bool IsPackBlobName(std::string_view name);
/// The id of a pack blob name; 0 if `name` is not a well-formed pack name
/// (ids start at 1).
uint64_t PackIdOfBlobName(std::string_view name);

/// \brief One chunk inside a pack.
struct PackEntry {
  std::string hash_hex;  ///< lowercase SHA-256 of the chunk bytes
  uint64_t offset = 0;   ///< from the start of the pack
  uint64_t length = 0;
  uint32_t crc = 0;      ///< CRC-32 of the chunk bytes
};

/// \brief Streams one pack blob into a sink: each chunk as it is added,
/// then the index and footer. Holds only the index entries, never the
/// chunks. Every pack is written by one: a commit's CAS session, repack and
/// the migration of legacy chunk files.
class PackWriter {
 public:
  explicit PackWriter(BlobSink* out) : out_(out) {}

  /// Appends a chunk. `hash_hex` must be a 64-digit lowercase hex digest
  /// and `crc` the chunk's CRC-32.
  Status Add(const std::string& hash_hex, std::span<const uint8_t> bytes,
             uint32_t crc);

  bool empty() const { return entries_.empty(); }
  const std::vector<PackEntry>& entries() const { return entries_; }
  /// Bytes appended so far: the whole blob once Finish has run.
  uint64_t size() const { return size_; }

  /// Appends the index and footer.
  Status Finish();

 private:
  BlobSink* out_;
  std::vector<PackEntry> entries_;
  uint64_t size_ = 0;
};

/// The index and footer for `entries` (which must tile `[0, data size)` in
/// order); PackWriter::Finish appends exactly these bytes.
std::vector<uint8_t> EncodePackIndex(const std::vector<PackEntry>& entries);

/// Reads and checks the index of the pack blob at `path` through `env`:
/// two ranged reads (footer, then index). Corruption if the footer, the
/// index CRC, or the tiling of the data region is wrong.
Result<std::vector<PackEntry>> ReadPackIndex(Env* env, const std::string& path);

/// \brief Where one chunk's bytes are: `[offset, offset + length)` of pack
/// `pack`. `pack == 0` means no pack holds the chunk.
struct ChunkLocation {
  uint64_t pack = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;  ///< CRC-32 of the chunk, from the pack index
};

/// Reads chunk `refs[i]` from `where[i]`, in order, and hands each to
/// `on_chunk(i, bytes)` once its length matches `refs[i]` and its CRC the
/// pack index; the bytes are valid until the next call.
///
/// Read plan: each pack gets one forward-only cursor. The chunks are
/// planned into segments by RangePlanner (storage/range_planner.h), one
/// stream per pack: a chunk joins its pack's current segment unless it lies
/// behind it, or the gap to it costs more to transfer than a new round
/// trip. Each segment is one ranged FileStore::OpenStream, charged as one
/// op plus its bytes; its cursor reads windows of at most `window_bytes`
/// (or one chunk, if larger) that start at a chunk and end at a chunk
/// boundary, skipping the rest.
///
/// Errors name the chunk and the pack: NotFound for a missing pack or an
/// unlocated chunk, Corruption for a short pack, a length that disagrees
/// with `refs`, or a CRC mismatch. A failed `on_chunk` is returned as is.
Status ReadPackedChunks(
    FileStore* store, uint64_t window_bytes,
    std::span<const CasChunkRef> refs, std::span<const ChunkLocation> where,
    const std::function<Status(size_t, std::span<const uint8_t>)>& on_chunk);

}  // namespace mmm

#endif  // MMM_CAS_PACK_H_
