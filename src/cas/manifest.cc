#include "cas/manifest.h"

#include <cstring>

#include "common/strings.h"
#include "serialize/binary_io.h"
#include "serialize/crc32.h"
#include "serialize/json.h"

namespace mmm {

namespace {
constexpr size_t kDigestBytes = 32;
}  // namespace

std::string ChunkBlobName(const std::string& hash_hex) {
  return kCasChunkPrefix + hash_hex;
}

bool IsChunkBlobName(std::string_view name) {
  return name.starts_with(kCasChunkPrefix);
}

std::string ChunkHexOfBlobName(std::string_view name) {
  return std::string(name.substr(sizeof(kCasChunkPrefix) - 1));
}

void WriteDigest(const std::string& hash_hex, BinaryWriter* out) {
  std::vector<uint8_t> digest;
  HexDecode(hash_hex, &digest);
  digest.resize(kDigestBytes);
  out->WriteBytes(digest);
}

bool IsManifestPayload(std::span<const uint8_t> data) {
  return data.size() >= kCasManifestMagicSize &&
         (std::memcmp(data.data(), kCasManifestMagic, kCasManifestMagicSize) ==
              0 ||
          std::memcmp(data.data(), kCasManifestV1Magic,
                      kCasManifestMagicSize) == 0);
}

std::vector<uint8_t> EncodeManifest(const CasManifest& manifest) {
  BinaryWriter out;
  out.Reserve(kCasManifestMagicSize + 2 * 10 + 8 +
              manifest.chunks.size() * (kDigestBytes + 5));
  out.WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(kCasManifestMagic),
      kCasManifestMagicSize));
  out.WriteVarint(manifest.raw_size);
  out.WriteUint32(manifest.raw_crc);
  out.WriteVarint(manifest.chunks.size());
  for (const CasChunkRef& chunk : manifest.chunks) {
    WriteDigest(chunk.hash_hex, &out);
    out.WriteVarint(chunk.length);
  }
  out.WriteUint32(Crc32::Compute(out.buffer()));
  return out.TakeBuffer();
}

namespace {

Result<CasManifest> DecodeManifestV1(std::string_view body) {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok()) {
    return parsed.status().WithContext("cas manifest body");
  }
  const JsonValue record = std::move(parsed).ValueOrDie();
  CasManifest manifest;
  MMM_ASSIGN_OR_RETURN(int64_t raw_size, record.GetInt64("raw_size"));
  MMM_ASSIGN_OR_RETURN(int64_t raw_crc, record.GetInt64("raw_crc"));
  manifest.raw_size = static_cast<uint64_t>(raw_size);
  manifest.raw_crc = static_cast<uint32_t>(raw_crc);
  MMM_ASSIGN_OR_RETURN(const JsonValue* chunks, record.Get("chunks"));
  if (!chunks->is_array()) {
    return Status::Corruption("cas manifest 'chunks' is not an array");
  }
  for (const JsonValue& entry : chunks->array_items()) {
    if (!entry.is_array() || entry.ArraySize() != 2) {
      return Status::Corruption("cas manifest chunk entry malformed");
    }
    CasChunkRef ref;
    MMM_ASSIGN_OR_RETURN(const JsonValue* hash, entry.At(0));
    MMM_ASSIGN_OR_RETURN(ref.hash_hex, hash->AsString());
    MMM_ASSIGN_OR_RETURN(const JsonValue* length, entry.At(1));
    MMM_ASSIGN_OR_RETURN(int64_t chunk_length, length->AsInt64());
    ref.length = static_cast<uint64_t>(chunk_length);
    if (ref.hash_hex.size() != 64) {
      return Status::Corruption("cas manifest chunk hash '", ref.hash_hex,
                                "' is not a sha-256 hex digest");
    }
    manifest.chunks.push_back(std::move(ref));
  }
  return manifest;
}

Result<CasManifest> DecodeManifestV2(std::span<const uint8_t> data) {
  // The trailing CRC covers everything before it, so the whole payload's
  // CRC is the residue exactly when the two agree.
  if (data.size() < kCasManifestMagicSize + 4 ||
      Crc32::Compute(data) != Crc32::kResidue) {
    return Status::Corruption("cas manifest fails its crc");
  }
  const std::span<const uint8_t> body = data.subspan(
      kCasManifestMagicSize, data.size() - kCasManifestMagicSize - 4);
  BinaryReader reader(body);
  CasManifest manifest;
  MMM_ASSIGN_OR_RETURN(manifest.raw_size, reader.ReadVarint());
  MMM_ASSIGN_OR_RETURN(manifest.raw_crc, reader.ReadUint32());
  MMM_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  // Each entry takes at least a digest and a one-byte length.
  if (count > reader.remaining() / (kDigestBytes + 1)) {
    return Status::Corruption("cas manifest claims ", count,
                              " chunks, more than its ", reader.remaining(),
                              " bytes hold");
  }
  manifest.chunks.resize(count);
  for (CasChunkRef& ref : manifest.chunks) {
    const size_t at = reader.offset();
    MMM_RETURN_NOT_OK(reader.Skip(kDigestBytes));
    ref.hash_hex = HexEncode(body.subspan(at, kDigestBytes));
    MMM_ASSIGN_OR_RETURN(ref.length, reader.ReadVarint());
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("cas manifest has ", reader.remaining(),
                              " trailing bytes");
  }
  return manifest;
}

}  // namespace

Result<CasManifest> DecodeManifest(std::span<const uint8_t> data) {
  if (!IsManifestPayload(data)) {
    return Status::Corruption("cas manifest magic mismatch");
  }
  if (std::memcmp(data.data(), kCasManifestMagic, kCasManifestMagicSize) ==
      0) {
    return DecodeManifestV2(data);
  }
  return DecodeManifestV1(std::string_view(
      reinterpret_cast<const char*>(data.data()) + kCasManifestMagicSize,
      data.size() - kCasManifestMagicSize));
}

}  // namespace mmm
