#ifndef MMM_SERIALIZE_COMPRESS_H_
#define MMM_SERIALIZE_COMPRESS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace mmm {

/// Compression method for blob artifacts (the paper's §4.5 future work:
/// "evaluate if it is beneficial to integrate compression techniques into
/// our approaches").
enum class Compression : uint8_t {
  kNone = 0,
  /// LZ77 with greedy hash-chain matching (LZ4-style token format).
  kLz = 1,
  /// Byte-plane shuffle (stride 4, for float32 payloads) followed by LZ.
  /// Grouping the exponent bytes of neighboring floats makes runs the LZ
  /// stage can exploit.
  kShuffleLz = 2,
};

std::string_view CompressionName(Compression method);
Result<Compression> CompressionFromName(std::string_view name);

/// \brief Compresses `input` into a self-describing blob:
/// magic "MMZ1", method byte, varint raw size, payload.
/// kNone stores the payload verbatim (still framed, so decoding is uniform).
std::vector<uint8_t> CompressBlob(Compression method,
                                  std::span<const uint8_t> input);

/// The bytes a blob's head must hold to tell a CompressBlob frame from a
/// raw blob: the magic and the method byte.
inline constexpr size_t kBlobFrameSniffBytes = 5;

/// True if `head`, the first bytes of a blob (at least
/// kBlobFrameSniffBytes of them, or the whole blob), starts a CompressBlob
/// frame. A blob that does not is raw: BlobDecompressor and DecompressBlob
/// pass it through unchanged.
bool IsFramedBlob(std::span<const uint8_t> head);

/// \brief Inverse of CompressBlob. If `input` does not start with the
/// compression magic it is returned unchanged (raw legacy blob).
Result<std::vector<uint8_t>> DecompressBlob(std::span<const uint8_t> input);

/// \name Raw primitives (exposed for tests and benchmarks).
/// @{

/// LZ77-compresses `input` (no framing). Always succeeds; incompressible
/// data expands by at most ~1/255 + 16 bytes.
std::vector<uint8_t> LzCompress(std::span<const uint8_t> input);

/// Decompresses LzCompress output; `raw_size` must be the original size.
Result<std::vector<uint8_t>> LzDecompress(std::span<const uint8_t> input,
                                          size_t raw_size);

/// \brief Incremental LzDecompress for the streaming recovery path
/// (DESIGN.md §12): absorbs the compressed stream in arbitrarily sized
/// chunks and emits decompressed bytes as each token completes, retaining
/// only the 64 KiB match window internally — peak memory is O(window), not
/// O(raw_size).
///
/// Bit-exact with LzDecompress over the concatenated feeds: it accepts
/// exactly the streams the materializing decoder accepts (including its
/// tolerance for trailing bytes once `raw_size` output has been produced)
/// and rejects the rest, with one deliberate tightening that is vacuous
/// for well-formed streams: a match offset reaching before the retained
/// window is rejected outright. Since retention equals the format's
/// maximum offset (65535), that is the same `offset > produced` check the
/// materializing decoder performs.
class LzDecompressor {
 public:
  /// `raw_size` is the expected decompressed size (from the blob header).
  /// Unlike the materializing decoder it never drives allocation, so no
  /// plausibility clamp is needed: an implausible size simply runs out of
  /// input and fails at Finish().
  explicit LzDecompressor(size_t raw_size);

  /// Absorbs the next compressed chunk, appending any newly decompressed
  /// bytes to `*out`. Errors are sticky.
  Status Feed(std::span<const uint8_t> data, std::vector<uint8_t>* out);

  /// Declares end of input: fails unless exactly `raw_size` bytes were
  /// produced and no token was left half-parsed.
  Status Finish();

  size_t produced() const { return produced_; }
  /// High-water mark of internal buffering (the retained window), for the
  /// peak-memory assertions in tests.
  size_t peak_buffered_bytes() const { return peak_buffered_; }

 private:
  enum class State : uint8_t {
    kToken,       // expecting a token byte
    kLiteralLen,  // reading 255-continuation literal length bytes
    kLiterals,    // copying literal bytes through
    kOffset,      // reading the 2-byte little-endian match offset
    kMatchLen,    // reading 255-continuation match length bytes
    kDone,        // raw_size produced; trailing input is ignored
  };

  // Appends the bytes produced past `before_size` (the window length
  // before the current step) to `*out`, then trims the window to its
  // retention bound.
  void EmitAndTrim(size_t before_size, std::vector<uint8_t>* out);
  // Runs the match whose offset/length state is complete, in bounded steps.
  Status ExecuteMatch(std::vector<uint8_t>* out);
  Status Fail(Status status);

  size_t raw_size_ = 0;
  size_t produced_ = 0;
  size_t peak_buffered_ = 0;
  State state_ = State::kToken;
  Status error_;                 // sticky
  std::vector<uint8_t> window_;  // trailing bytes of the output stream
  uint8_t token_ = 0;
  size_t literal_remaining_ = 0;
  size_t match_code_ = 0;
  size_t offset_ = 0;
  uint8_t offset_bytes_ = 0;  // how many of the 2 offset bytes arrived
};

/// \brief Incremental DecompressBlob: absorbs a stored blob (framed or raw
/// legacy) in chunks and streams out the decompressed payload. kNone and
/// legacy blobs pass through window-by-window; kLz streams through
/// LzDecompressor; kShuffleLz must buffer the LZ output until Finish()
/// because the byte-plane unshuffle is a global transpose (documented
/// exception — shuffle is sized for float payloads that compress well, so
/// the buffered plane data is the compressed-side win, not the raw blob).
class BlobDecompressor {
 public:
  BlobDecompressor() = default;

  /// Absorbs the next stored-blob chunk, appending decompressed bytes to
  /// `*out`. Errors are sticky.
  Status Feed(std::span<const uint8_t> data, std::vector<uint8_t>* out);

  /// Declares end of the stored blob; appends any final bytes to `*out`
  /// (everything, for kShuffleLz) and validates sizes.
  Status Finish(std::vector<uint8_t>* out);

  /// Decompressed payload size, known once a framed header has been
  /// parsed; nullopt before that and for raw legacy passthrough (where the
  /// stored size *is* the payload size — the caller knows it).
  std::optional<uint64_t> raw_size() const { return raw_size_; }

  size_t peak_buffered_bytes() const;

 private:
  enum class Mode : uint8_t {
    kHeader,       // accumulating the frame header (or deciding legacy)
    kPassthrough,  // raw legacy blob: emit bytes unchanged
    kStoredNone,   // framed kNone: emit payload, count bytes
    kStoredLz,     // framed kLz: stream through lz_
    kStoredShuffleLz,  // framed kShuffleLz: collect lz_ output, transpose at
                       // Finish
  };

  Status Fail(Status status);

  Mode mode_ = Mode::kHeader;
  Status error_;  // sticky
  std::vector<uint8_t> header_;
  std::optional<uint64_t> raw_size_;
  uint64_t emitted_ = 0;
  std::optional<LzDecompressor> lz_;
  std::vector<uint8_t> shuffled_;  // kShuffleLz only
  size_t peak_header_ = 0;
};

/// Splits `input` into `stride` byte planes: all 1st bytes, all 2nd bytes, …
/// The tail (input.size() % stride) is appended verbatim.
std::vector<uint8_t> ShuffleBytes(std::span<const uint8_t> input, size_t stride);

/// Inverse of ShuffleBytes.
std::vector<uint8_t> UnshuffleBytes(std::span<const uint8_t> input,
                                    size_t stride);
/// @}

}  // namespace mmm

#endif  // MMM_SERIALIZE_COMPRESS_H_
