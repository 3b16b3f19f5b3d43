#include "serialize/binary_io.h"

namespace mmm {

void BinaryWriter::WriteVarint(uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  buffer_.push_back(static_cast<uint8_t>(value));
}

void BinaryWriter::WriteString(std::string_view value) {
  WriteVarint(value.size());
  const auto* bytes = reinterpret_cast<const uint8_t*>(value.data());
  buffer_.insert(buffer_.end(), bytes, bytes + value.size());
}

void BinaryWriter::WriteBytes(std::span<const uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void BinaryWriter::WriteFloatSpan(std::span<const float> values) {
  static_assert(sizeof(float) == 4, "IEEE-754 binary32 floats required");
  const auto* bytes = reinterpret_cast<const uint8_t*>(values.data());
  buffer_.insert(buffer_.end(), bytes, bytes + values.size() * sizeof(float));
}

void BinaryWriter::WriteFloatVector(std::span<const float> values) {
  WriteVarint(values.size());
  WriteFloatSpan(values);
}

Result<uint8_t> BinaryReader::ReadUint8() { return ReadLittleEndian<uint8_t>(); }
Result<uint16_t> BinaryReader::ReadUint16() { return ReadLittleEndian<uint16_t>(); }
Result<uint32_t> BinaryReader::ReadUint32() { return ReadLittleEndian<uint32_t>(); }
Result<uint64_t> BinaryReader::ReadUint64() { return ReadLittleEndian<uint64_t>(); }

Result<int32_t> BinaryReader::ReadInt32() {
  MMM_ASSIGN_OR_RETURN(uint32_t bits, ReadUint32());
  return static_cast<int32_t>(bits);
}

Result<int64_t> BinaryReader::ReadInt64() {
  MMM_ASSIGN_OR_RETURN(uint64_t bits, ReadUint64());
  return static_cast<int64_t>(bits);
}

Result<float> BinaryReader::ReadFloat() {
  MMM_ASSIGN_OR_RETURN(uint32_t bits, ReadUint32());
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<double> BinaryReader::ReadDouble() {
  MMM_ASSIGN_OR_RETURN(uint64_t bits, ReadUint64());
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<uint64_t> BinaryReader::ReadVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (offset_ >= data_.size()) {
      return Status::Corruption("binary reader: truncated varint at offset ",
                                offset_);
    }
    uint8_t byte = data_[offset_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0)) {
      return Status::Corruption("binary reader: varint overflow at offset ",
                                offset_);
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

Result<std::string> BinaryReader::ReadString() {
  MMM_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
  if (remaining() < length) {
    return Status::Corruption("binary reader: truncated string of length ", length,
                              " at offset ", offset_);
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + offset_), length);
  offset_ += length;
  return out;
}

Result<std::vector<float>> BinaryReader::ReadFloats(size_t count) {
  if (remaining() / sizeof(float) < count) {
    return Status::Corruption("binary reader: truncated float span of ", count,
                              " floats at offset ", offset_);
  }
  const size_t bytes = count * sizeof(float);
  std::vector<float> values = FloatsFromBytes(data_.subspan(offset_, bytes));
  offset_ += bytes;
  return values;
}

Result<std::vector<float>> BinaryReader::ReadFloatVector() {
  MMM_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
  return ReadFloats(count);
}

void AppendFloatBytes(std::span<const uint8_t> bytes, std::vector<float>* out) {
  // A range insert of a trivially copyable type is one memmove, which reads
  // the bytes at any alignment; no value is loaded through `first`.
  const auto* first = reinterpret_cast<const float*>(bytes.data());
  out->insert(out->end(), first, first + bytes.size() / sizeof(float));
}

std::vector<float> FloatsFromBytes(std::span<const uint8_t> bytes) {
  std::vector<float> out;
  out.reserve(bytes.size() / sizeof(float));
  AppendFloatBytes(bytes, &out);
  return out;
}

Status BinaryReader::Skip(size_t count) {
  if (remaining() < count) {
    return Status::Corruption("binary reader: cannot skip ", count,
                              " bytes at offset ", offset_);
  }
  offset_ += count;
  return Status::OK();
}

}  // namespace mmm
