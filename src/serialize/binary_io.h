#ifndef MMM_SERIALIZE_BINARY_IO_H_
#define MMM_SERIALIZE_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mmm {

/// \brief Append-only little-endian binary encoder.
///
/// The writer produces the on-disk format used by all model-management
/// approaches: fixed-width primitives are written little-endian, lengths are
/// LEB128 varints, and float spans are written as raw IEEE-754 bytes (this is
/// what makes Baseline's "concatenate all parameters into one blob" cheap).
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteUint8(uint8_t value) { buffer_.push_back(value); }
  void WriteUint16(uint16_t value) { WriteLittleEndian(value); }
  void WriteUint32(uint32_t value) { WriteLittleEndian(value); }
  void WriteUint64(uint64_t value) { WriteLittleEndian(value); }
  void WriteInt32(int32_t value) { WriteLittleEndian(static_cast<uint32_t>(value)); }
  void WriteInt64(int64_t value) { WriteLittleEndian(static_cast<uint64_t>(value)); }

  void WriteFloat(float value) {
    uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    WriteUint32(bits);
  }
  void WriteDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    WriteUint64(bits);
  }

  /// Unsigned LEB128.
  void WriteVarint(uint64_t value);

  /// Varint length followed by raw bytes.
  void WriteString(std::string_view value);

  /// Raw bytes, no length prefix.
  void WriteBytes(std::span<const uint8_t> bytes);

  /// Raw IEEE-754 bytes of `values`, no length prefix. Assumes a
  /// little-endian host (checked once at startup in the library).
  void WriteFloatSpan(std::span<const float> values);

  /// Varint count followed by raw float bytes.
  void WriteFloatVector(std::span<const float> values);

  /// Allocates room for `bytes` bytes in total, so an encoder that knows
  /// its output size writes into one allocation instead of a chain of
  /// doubling reallocations.
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  void WriteLittleEndian(T value) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buffer_.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  std::vector<uint8_t> buffer_;
};

/// Appends the raw float32 values in `bytes` (bytes.size() / 4 of them, at
/// any alignment) to `*out` with one copy, and no zero-fill before it as
/// resize-then-memcpy would write.
void AppendFloatBytes(std::span<const uint8_t> bytes, std::vector<float>* out);

/// The raw float32 values in `bytes`, built in one pass (AppendFloatBytes).
std::vector<float> FloatsFromBytes(std::span<const uint8_t> bytes);

/// \brief Bounds-checked reader for BinaryWriter output.
///
/// All accessors return Result so that corrupted or truncated artifacts
/// surface as Status::Corruption instead of undefined behaviour.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadUint8();
  Result<uint16_t> ReadUint16();
  Result<uint32_t> ReadUint32();
  Result<uint64_t> ReadUint64();
  Result<int32_t> ReadInt32();
  Result<int64_t> ReadInt64();
  Result<float> ReadFloat();
  Result<double> ReadDouble();
  Result<uint64_t> ReadVarint();
  Result<std::string> ReadString();

  /// Reads `count` raw floats into a new vector, built in one pass
  /// (FloatsFromBytes).
  Result<std::vector<float>> ReadFloats(size_t count);

  /// Reads a varint count followed by that many floats.
  Result<std::vector<float>> ReadFloatVector();

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - offset_; }
  size_t offset() const { return offset_; }
  bool AtEnd() const { return offset_ == data_.size(); }

  /// Skips `count` bytes.
  Status Skip(size_t count);

 private:
  template <typename T>
  Result<T> ReadLittleEndian() {
    if (remaining() < sizeof(T)) {
      return Status::Corruption("binary reader: truncated input at offset ",
                                offset_);
    }
    T value = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(data_[offset_ + i]) << (8 * i);
    }
    offset_ += sizeof(T);
    return value;
  }

  std::span<const uint8_t> data_;
  size_t offset_ = 0;
};

}  // namespace mmm

#endif  // MMM_SERIALIZE_BINARY_IO_H_
