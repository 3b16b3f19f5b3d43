#include "serialize/compress.h"

#include <cstring>

#include "common/simd.h"
#include "serialize/binary_io.h"

namespace mmm {
namespace {

constexpr uint8_t kMagic[4] = {'M', 'M', 'Z', '1'};
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr size_t kHashBits = 16;

uint32_t HashWindow(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

void WriteLength(std::vector<uint8_t>* out, size_t value) {
  // LZ4-style length extension: 255-continuation bytes.
  while (value >= 255) {
    out->push_back(255);
    value -= 255;
  }
  out->push_back(static_cast<uint8_t>(value));
}

}  // namespace

bool IsFramedBlob(std::span<const uint8_t> head) {
  return head.size() >= kBlobFrameSniffBytes &&
         std::memcmp(head.data(), kMagic, 4) == 0;
}

std::string_view CompressionName(Compression method) {
  switch (method) {
    case Compression::kNone:
      return "none";
    case Compression::kLz:
      return "lz";
    case Compression::kShuffleLz:
      return "shuffle-lz";
  }
  return "?";
}

Result<Compression> CompressionFromName(std::string_view name) {
  if (name == "none") return Compression::kNone;
  if (name == "lz") return Compression::kLz;
  if (name == "shuffle-lz") return Compression::kShuffleLz;
  return Status::InvalidArgument("unknown compression '", name, "'");
}

std::vector<uint8_t> LzCompress(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + 32);
  const size_t n = input.size();
  std::vector<uint32_t> table(size_t{1} << kHashBits, 0xffffffffu);

  size_t anchor = 0;  // start of pending literals
  size_t pos = 0;
  while (n >= kMinMatch && pos + kMinMatch <= n) {
    // Find a match candidate via the hash table.
    uint32_t hash = HashWindow(input.data() + pos);
    uint32_t candidate = table[hash];
    table[hash] = static_cast<uint32_t>(pos);
    bool has_match = candidate != 0xffffffffu && pos - candidate <= kMaxOffset &&
                     std::memcmp(input.data() + candidate, input.data() + pos,
                                 kMinMatch) == 0;
    if (!has_match) {
      ++pos;
      continue;
    }
    // Extend the match forward.
    size_t match_len = kMinMatch;
    while (pos + match_len < n &&
           input[candidate + match_len] == input[pos + match_len]) {
      ++match_len;
    }
    // Emit [token][literal ext][literals][offset][match ext].
    size_t literal_len = pos - anchor;
    size_t offset = pos - candidate;
    size_t match_code = match_len - kMinMatch;
    uint8_t token = static_cast<uint8_t>(
        (std::min<size_t>(literal_len, 15) << 4) |
        std::min<size_t>(match_code, 15));
    out.push_back(token);
    if (literal_len >= 15) WriteLength(&out, literal_len - 15);
    out.insert(out.end(), input.begin() + anchor, input.begin() + pos);
    out.push_back(static_cast<uint8_t>(offset));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (match_code >= 15) WriteLength(&out, match_code - 15);

    pos += match_len;
    anchor = pos;
    if (pos + kMinMatch <= n) {
      // Insert one more table entry inside the match for better coverage.
      table[HashWindow(input.data() + pos - 2)] = static_cast<uint32_t>(pos - 2);
    }
  }
  // Trailing literals.
  size_t literal_len = n - anchor;
  if (literal_len > 0 || n == 0) {
    uint8_t token = static_cast<uint8_t>(std::min<size_t>(literal_len, 15) << 4);
    out.push_back(token);
    if (literal_len >= 15) WriteLength(&out, literal_len - 15);
    out.insert(out.end(), input.begin() + anchor, input.end());
  }
  return out;
}

Result<std::vector<uint8_t>> LzDecompress(std::span<const uint8_t> input,
                                          size_t raw_size) {
  // `raw_size` may come from a corrupted header and must not drive
  // allocation: every extension byte of this token format yields at most
  // 255 output bytes, so no valid stream expands more than ~256x.
  if (raw_size > input.size() * 256 + 64) {
    return Status::Corruption("lz: implausible raw size ", raw_size, " for ",
                              input.size(), " compressed bytes");
  }
  std::vector<uint8_t> out;
  out.reserve(raw_size);
  LzDecompressor decompressor(raw_size);
  MMM_RETURN_NOT_OK(decompressor.Feed(input, &out));
  MMM_RETURN_NOT_OK(decompressor.Finish());
  return out;
}

namespace {

/// The match window the incremental decoder must retain: the format's
/// 2-byte offsets can reach at most kMaxOffset bytes back.
constexpr size_t kLzRetention = kMaxOffset;
/// Flush granularity: produced bytes beyond retention + slack are moved to
/// the caller so peak buffering stays O(128 KiB) even for huge RLE tokens.
constexpr size_t kLzFlushSlack = 65536;

}  // namespace

LzDecompressor::LzDecompressor(size_t raw_size) : raw_size_(raw_size) {
  if (raw_size_ == 0) state_ = State::kDone;
}

Status LzDecompressor::Fail(Status status) {
  error_ = status;
  return error_;
}

void LzDecompressor::EmitAndTrim(size_t before_size,
                                 std::vector<uint8_t>* out) {
  peak_buffered_ = std::max(peak_buffered_, window_.size());
  out->insert(out->end(), window_.begin() + before_size, window_.end());
  if (window_.size() > kLzRetention + kLzFlushSlack) {
    window_.erase(window_.begin(), window_.end() - kLzRetention);
  }
}

Status LzDecompressor::ExecuteMatch(std::vector<uint8_t>* out) {
  const size_t match_len = match_code_ + kMinMatch;
  if (produced_ + match_len > raw_size_) {
    return Fail(Status::Corruption("lz: output overflow in match"));
  }
  // Execute in bounded steps so one giant RLE token cannot balloon the
  // window; splitting preserves the sequential replicate semantic because
  // the retained history always covers `offset_`.
  size_t remaining = match_len;
  while (remaining > 0) {
    const size_t step = std::min(remaining, kLzFlushSlack);
    const size_t before = window_.size();
    window_.resize(before + step);
    simd::ReplicateRun(window_.data() + before, offset_, step);
    produced_ += step;
    EmitAndTrim(before, out);
    remaining -= step;
  }
  state_ = produced_ == raw_size_ ? State::kDone : State::kToken;
  return Status::OK();
}

Status LzDecompressor::Feed(std::span<const uint8_t> data,
                            std::vector<uint8_t>* out) {
  if (!error_.ok()) return error_;
  size_t pos = 0;
  while (true) {
    switch (state_) {
      case State::kDone:
        // Trailing compressed bytes after raw_size output are ignored.
        return Status::OK();
      case State::kToken: {
        if (pos >= data.size()) return Status::OK();
        token_ = data[pos++];
        literal_remaining_ = token_ >> 4;
        if (literal_remaining_ == 15) {
          state_ = State::kLiteralLen;
        } else {
          if (produced_ + literal_remaining_ > raw_size_) {
            return Fail(Status::Corruption("lz: output overflow in literals"));
          }
          state_ = State::kLiterals;
        }
        break;
      }
      case State::kLiteralLen: {
        if (pos >= data.size()) return Status::OK();
        const uint8_t byte = data[pos++];
        literal_remaining_ += byte;
        if (byte != 255) {
          if (produced_ + literal_remaining_ > raw_size_) {
            return Fail(Status::Corruption("lz: output overflow in literals"));
          }
          state_ = State::kLiterals;
        }
        break;
      }
      case State::kLiterals: {
        if (literal_remaining_ > 0) {
          const size_t step =
              std::min(literal_remaining_, data.size() - pos);
          if (step == 0) return Status::OK();
          const size_t before = window_.size();
          window_.insert(window_.end(), data.begin() + pos,
                         data.begin() + pos + step);
          pos += step;
          produced_ += step;
          literal_remaining_ -= step;
          EmitAndTrim(before, out);
        }
        if (literal_remaining_ == 0) {
          // A final token carries only literals: once raw_size is reached
          // there is no match half to parse.
          state_ = produced_ == raw_size_ ? State::kDone : State::kOffset;
          offset_ = 0;
          offset_bytes_ = 0;
        }
        break;
      }
      case State::kOffset: {
        if (pos >= data.size()) return Status::OK();
        offset_ |= static_cast<size_t>(data[pos++]) << (8 * offset_bytes_);
        if (++offset_bytes_ < 2) break;
        if (offset_ == 0) {
          return Fail(Status::Corruption("lz: invalid match offset 0"));
        }
        // The retained window spans min(produced, kMaxOffset) bytes, so
        // this is the `offset > produced` check — and the hard guarantee
        // that no window read reaches evicted bytes.
        if (offset_ > window_.size()) {
          return Fail(Status::Corruption(
              "lz: match offset ", offset_,
              " reaches before the retained window (", window_.size(),
              " bytes)"));
        }
        match_code_ = token_ & 0x0f;
        if (match_code_ == 15) {
          state_ = State::kMatchLen;
        } else {
          MMM_RETURN_NOT_OK(ExecuteMatch(out));
        }
        break;
      }
      case State::kMatchLen: {
        if (pos >= data.size()) return Status::OK();
        const uint8_t byte = data[pos++];
        match_code_ += byte;
        if (byte != 255) MMM_RETURN_NOT_OK(ExecuteMatch(out));
        break;
      }
    }
  }
}

Status LzDecompressor::Finish() {
  if (!error_.ok()) return error_;
  if (state_ != State::kDone) {
    return Fail(Status::Corruption("lz: truncated stream after ", produced_,
                                   " of ", raw_size_, " bytes"));
  }
  return Status::OK();
}

Status BlobDecompressor::Fail(Status status) {
  error_ = status;
  return error_;
}

size_t BlobDecompressor::peak_buffered_bytes() const {
  size_t peak = peak_header_;
  if (lz_.has_value()) peak = std::max(peak, lz_->peak_buffered_bytes());
  peak = std::max(peak, shuffled_.size());
  return peak;
}

Status BlobDecompressor::Feed(std::span<const uint8_t> data,
                              std::vector<uint8_t>* out) {
  if (!error_.ok()) return error_;
  std::span<const uint8_t> payload = data;
  if (mode_ == Mode::kHeader) {
    header_.insert(header_.end(), data.begin(), data.end());
    peak_header_ = std::max(peak_header_, header_.size());
    if (header_.size() < kBlobFrameSniffBytes) return Status::OK();
    if (!IsFramedBlob(header_)) {
      // Raw legacy blob: everything seen so far is payload.
      mode_ = Mode::kPassthrough;
      payload = header_;
    } else {
      const uint8_t method_byte = header_[4];
      if (method_byte > static_cast<uint8_t>(Compression::kShuffleLz)) {
        return Fail(
            Status::Corruption("unknown compression method ", method_byte));
      }
      // Varint raw size, possibly still incomplete.
      uint64_t value = 0;
      int shift = 0;
      size_t idx = 5;
      while (true) {
        if (idx >= header_.size()) return Status::OK();  // need more bytes
        if (shift >= 64) {
          return Fail(Status::Corruption("blob header varint overflows"));
        }
        const uint8_t byte = header_[idx++];
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        shift += 7;
        if ((byte & 0x80) == 0) break;
      }
      raw_size_ = value;
      switch (static_cast<Compression>(method_byte)) {
        case Compression::kNone:
          mode_ = Mode::kStoredNone;
          break;
        case Compression::kLz:
          mode_ = Mode::kStoredLz;
          lz_.emplace(value);
          break;
        case Compression::kShuffleLz:
          mode_ = Mode::kStoredShuffleLz;
          lz_.emplace(value);
          break;
      }
      payload = std::span<const uint8_t>(header_).subspan(idx);
    }
  }
  Status status = Status::OK();
  switch (mode_) {
    case Mode::kHeader:
      return Status::Internal("unreachable");
    case Mode::kPassthrough:
      emitted_ += payload.size();
      out->insert(out->end(), payload.begin(), payload.end());
      break;
    case Mode::kStoredNone:
      emitted_ += payload.size();
      if (emitted_ > *raw_size_) {
        status = Status::Corruption("stored blob size mismatch");
        break;
      }
      out->insert(out->end(), payload.begin(), payload.end());
      break;
    case Mode::kStoredLz:
      status = lz_->Feed(payload, out);
      break;
    case Mode::kStoredShuffleLz:
      status = lz_->Feed(payload, &shuffled_);
      break;
  }
  if (!header_.empty()) {
    header_.clear();
    header_.shrink_to_fit();
  }
  if (!status.ok()) return Fail(status);
  return Status::OK();
}

Status BlobDecompressor::Finish(std::vector<uint8_t>* out) {
  if (!error_.ok()) return error_;
  switch (mode_) {
    case Mode::kHeader:
      // Fewer than 5 bytes total, or a framed header cut off mid-varint.
      if (IsFramedBlob(header_)) {
        return Fail(Status::Corruption("truncated blob header"));
      }
      out->insert(out->end(), header_.begin(), header_.end());
      return Status::OK();
    case Mode::kPassthrough:
      return Status::OK();
    case Mode::kStoredNone:
      if (emitted_ != *raw_size_) {
        return Fail(Status::Corruption("stored blob size mismatch"));
      }
      return Status::OK();
    case Mode::kStoredLz: {
      Status status = lz_->Finish();
      if (!status.ok()) return Fail(status);
      return Status::OK();
    }
    case Mode::kStoredShuffleLz: {
      Status status = lz_->Finish();
      if (!status.ok()) return Fail(status);
      std::vector<uint8_t> raw = UnshuffleBytes(shuffled_, 4);
      out->insert(out->end(), raw.begin(), raw.end());
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

std::vector<uint8_t> ShuffleBytes(std::span<const uint8_t> input, size_t stride) {
  if (stride <= 1) return {input.begin(), input.end()};
  const size_t groups = input.size() / stride;
  std::vector<uint8_t> out;
  out.reserve(input.size());
  for (size_t plane = 0; plane < stride; ++plane) {
    for (size_t g = 0; g < groups; ++g) {
      out.push_back(input[g * stride + plane]);
    }
  }
  out.insert(out.end(), input.begin() + groups * stride, input.end());
  return out;
}

std::vector<uint8_t> UnshuffleBytes(std::span<const uint8_t> input,
                                    size_t stride) {
  if (stride <= 1) return {input.begin(), input.end()};
  const size_t groups = input.size() / stride;
  std::vector<uint8_t> out(input.size());
  for (size_t plane = 0; plane < stride; ++plane) {
    for (size_t g = 0; g < groups; ++g) {
      out[g * stride + plane] = input[plane * groups + g];
    }
  }
  for (size_t i = groups * stride; i < input.size(); ++i) out[i] = input[i];
  return out;
}

std::vector<uint8_t> CompressBlob(Compression method,
                                  std::span<const uint8_t> input) {
  BinaryWriter header;
  header.WriteBytes(std::span<const uint8_t>(kMagic, 4));
  header.WriteUint8(static_cast<uint8_t>(method));
  header.WriteVarint(input.size());
  std::vector<uint8_t> out = header.TakeBuffer();

  switch (method) {
    case Compression::kNone:
      out.insert(out.end(), input.begin(), input.end());
      break;
    case Compression::kLz: {
      std::vector<uint8_t> payload = LzCompress(input);
      out.insert(out.end(), payload.begin(), payload.end());
      break;
    }
    case Compression::kShuffleLz: {
      std::vector<uint8_t> shuffled = ShuffleBytes(input, 4);
      std::vector<uint8_t> payload = LzCompress(shuffled);
      out.insert(out.end(), payload.begin(), payload.end());
      break;
    }
  }
  return out;
}

Result<std::vector<uint8_t>> DecompressBlob(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  BlobDecompressor decompressor;
  MMM_RETURN_NOT_OK(decompressor.Feed(input, &out));
  MMM_RETURN_NOT_OK(decompressor.Finish(&out));
  return out;
}

}  // namespace mmm
