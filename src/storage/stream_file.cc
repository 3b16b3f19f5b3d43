#include "storage/stream_file.h"

#include <algorithm>

namespace mmm {

Result<std::span<const uint8_t>> StreamFile::Next(uint64_t bytes) {
  if (offset_ >= size_) return std::span<const uint8_t>();
  const uint64_t take = std::min(bytes, size_ - offset_);
  auto window = env_->ReadFileRange(path_, start_ + offset_, take);
  if (!window.ok()) {
    return window.status().WithContext("stream window [", start_ + offset_,
                                       ", +", take, ") of ", path_);
  }
  buffer_ = std::move(window).ValueOrDie();
  offset_ += buffer_.size();
  return std::span<const uint8_t>(buffer_);
}

Status StreamFile::Skip(uint64_t bytes) {
  if (bytes > size_ - offset_) {
    return Status::OutOfRange("cannot skip ", bytes, " bytes at offset ",
                              offset_, " of a ", size_, "-byte stream over ",
                              path_);
  }
  offset_ += bytes;
  return Status::OK();
}

}  // namespace mmm
