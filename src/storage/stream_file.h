#ifndef MMM_STORAGE_STREAM_FILE_H_
#define MMM_STORAGE_STREAM_FILE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/env.h"

namespace mmm {

/// Default streaming window: large enough that per-window overhead is
/// noise, small enough that a recovery's transient buffering is hundreds
/// of KiB instead of the full snapshot (DESIGN.md §12).
inline constexpr uint64_t kDefaultStreamWindowBytes = 256 * 1024;

/// \brief Pull-based windowed reader over one stored blob (DESIGN.md §12).
///
/// A StreamFile is the streaming counterpart of FileStore::Get: the caller
/// pulls fixed-size windows with Next() and overlaps decode/hash/
/// decompress work with the read loop instead of materializing the whole
/// blob first. Obtained via FileStore::OpenStream, which performs the
/// store-level accounting; see there for the cost model.
///
/// Windows are served through Env::ReadFileRange, so fault injection is
/// transparent: a FaultInjectionEnv that kills the path mid-stream surfaces
/// the error on the Next() that touches it, exactly where a real short read
/// would appear. The file length is latched at open; a blob that shrinks
/// underneath an open stream surfaces as the underlying env's OutOfRange.
///
/// A ranged stream (FileStore::OpenStream with an offset and length)
/// covers `[start, start + size)` of the blob; offsets below are relative
/// to `start`. It moves forward only: Skip() passes over bytes without
/// reading them, which is how a reader that needs scattered pieces of one
/// range (the CAS pack reader, cas/blob_io.cc) pays one round trip for the
/// whole range but reads only the pieces.
///
/// Not thread-safe; one reader per instance (matching the one-recovery-
/// per-request shape of the read path).
class StreamFile {
 public:
  /// Bytes the stream covers (the blob's size for a whole-blob stream),
  /// latched at open.
  uint64_t size() const { return size_; }
  /// Bytes delivered or skipped so far.
  uint64_t offset() const { return offset_; }
  /// The configured window size.
  uint64_t window_bytes() const { return window_bytes_; }
  bool done() const { return offset_ == size_; }

  /// Reads the next window: up to window_bytes() bytes (the final window
  /// is shorter; an empty span means end of stream). The span aliases an
  /// internal buffer that the next Next() or Skip() call invalidates.
  Result<std::span<const uint8_t>> Next() { return Next(window_bytes_); }
  /// Reads the next `bytes` bytes (fewer at the end of the stream) with one
  /// Env read, whatever the window size.
  Result<std::span<const uint8_t>> Next(uint64_t bytes);
  /// Moves forward `bytes` without reading them; OutOfRange past the end.
  Status Skip(uint64_t bytes);

 private:
  friend class FileStore;
  StreamFile(Env* env, std::string path, uint64_t start, uint64_t size,
             uint64_t window_bytes)
      : env_(env),
        path_(std::move(path)),
        start_(start),
        size_(size),
        window_bytes_(window_bytes == 0 ? kDefaultStreamWindowBytes
                                        : window_bytes) {}

  Env* env_;
  std::string path_;
  uint64_t start_;
  uint64_t size_;
  uint64_t window_bytes_;
  uint64_t offset_ = 0;
  std::vector<uint8_t> buffer_;
};

}  // namespace mmm

#endif  // MMM_STORAGE_STREAM_FILE_H_
