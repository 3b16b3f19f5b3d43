#ifndef MMM_STORAGE_BLOB_SINK_H_
#define MMM_STORAGE_BLOB_SINK_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"

namespace mmm {

/// \brief Receives one blob's bytes in order, in pieces of any size.
///
/// Every save writes its blobs through a chain of sinks (DESIGN.md §12):
/// a producer (the param-blob window encoder, a diff encoder, a pack
/// writer) appends to the chain's head; an optional compressor stage
/// buffers and compresses; the chain ends in a FileStore write stream or a
/// CAS session's blob sink. How the producer splits its bytes into calls
/// never changes the stored bytes.
class BlobSink {
 public:
  virtual ~BlobSink() = default;
  virtual Status Append(std::span<const uint8_t> bytes) = 0;
};

/// \brief A sink that collects the bytes in memory, for callers that need
/// a whole blob (tests, benchmarks, in-memory encoders).
class VectorSink : public BlobSink {
 public:
  Status Append(std::span<const uint8_t> bytes) override {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
    return Status::OK();
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace mmm

#endif  // MMM_STORAGE_BLOB_SINK_H_
