#ifndef MMM_CAS_CHUNKER_H_
#define MMM_CAS_CHUNKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace mmm {

/// \brief Configuration of the content-addressed chunk store (src/cas/).
///
/// Off by default: the store then behaves (and costs) exactly as before —
/// every blob is written and read verbatim. When enabled, parameter-scale
/// blobs are split into content-defined chunks keyed by SHA-256 and shared
/// across *all* sets; see cas/cas_store.h for the refcounting lifecycle.
struct CasOptions {
  bool enabled = false;
  /// A content-defined cut is never taken before this many bytes.
  uint64_t min_chunk_bytes = 2048;
  /// Expected chunk size: the rolling hash cuts when its low
  /// log2(avg_chunk_bytes) bits are zero. Must be a power of two.
  uint64_t avg_chunk_bytes = 8192;
  /// A cut is forced at this many bytes regardless of content.
  uint64_t max_chunk_bytes = 65536;
  /// Fallback mode: cut every avg_chunk_bytes exactly (no rolling hash).
  /// Cheaper, but an insertion/deletion shifts every later boundary.
  bool fixed_size = false;
  /// Blobs smaller than this are stored verbatim — chunking tiny metadata
  /// blobs would cost a manifest indirection per read for no dedup.
  uint64_t min_blob_bytes = 4096;

  Status Validate() const;
};

/// \brief One chunk of a blob payload: `[offset, offset + length)`.
struct ChunkSpan {
  size_t offset = 0;
  size_t length = 0;
};

/// \brief The Gear chunker over a stream (DESIGN.md §10): finds the cut
/// points of a blob whose bytes arrive in pieces, holding only the rolling
/// hash and the current chunk's length. Cuts are those ChunkBlob finds in
/// the whole blob, however the bytes are split.
class GearChunker {
 public:
  explicit GearChunker(const CasOptions& options) : options_(options) {}

  /// Scans `bytes`, the stream's next bytes, up to and including the next
  /// cut: returns how many bytes it took, and whether a chunk ends after
  /// the last of them. The end of the stream ends the last chunk too.
  size_t Scan(std::span<const uint8_t> bytes, bool* cut);

 private:
  const CasOptions& options_;
  uint64_t hash_ = 0;
  uint64_t length_ = 0;  ///< bytes of the current chunk so far
};

/// Splits `data` into content-defined chunks (Gear rolling hash; see
/// DESIGN.md §10). Deterministic in the bytes alone: two blobs sharing a run
/// of content longer than a few max-chunk windows produce identical chunks
/// for the shared run, which is what makes cross-set dedup work. Spans are
/// contiguous, in order, and cover `data` exactly; every span except the
/// last is at least min_chunk_bytes and every span is at most
/// max_chunk_bytes. Empty input yields no spans.
std::vector<ChunkSpan> ChunkBlob(std::span<const uint8_t> data,
                                 const CasOptions& options);

}  // namespace mmm

#endif  // MMM_CAS_CHUNKER_H_
