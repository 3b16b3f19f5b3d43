#ifndef MMM_CAS_MANIFEST_H_
#define MMM_CAS_MANIFEST_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace mmm {

/// The retired per-chunk-file layout stored each chunk as its own blob,
/// `cas-<64 hex chars of the chunk's SHA-256>`. Chunks now live in pack
/// blobs (cas/pack.h); `CasStore::Open` packs the chunk files of an older
/// store and deletes them, and nothing else reads or writes this
/// namespace. Only src/cas/ may delete blobs in it — enforced by the mmmsa
/// `chunk-delete` rule.
inline constexpr char kCasChunkPrefix[] = "cas-";

/// First 8 bytes of every manifest payload. Raw artifact blobs all start
/// with their own codec magic (see core/blob_formats.h), so a reader can
/// tell a manifest from a verbatim payload by sniffing bytes it already
/// fetched — mixed stores (some blobs chunked, some not) stay readable.
inline constexpr char kCasManifestMagic[] = "MMCASM1\n";
inline constexpr size_t kCasManifestMagicSize = 8;

/// \brief One chunk reference inside a manifest.
struct CasChunkRef {
  std::string hash_hex;  ///< lowercase SHA-256 of the chunk bytes
  uint64_t length = 0;   ///< chunk size in bytes
};

/// \brief A chunked blob's manifest: what to fetch and how to check it.
struct CasManifest {
  uint64_t raw_size = 0;  ///< size of the reassembled payload
  uint32_t raw_crc = 0;   ///< CRC32 of the reassembled payload
  std::vector<CasChunkRef> chunks;
};

/// Legacy file-store blob name of a chunk (see kCasChunkPrefix).
std::string ChunkBlobName(const std::string& hash_hex);

/// True if `name` is in the chunk namespace.
bool IsChunkBlobName(std::string_view name);

/// The hex digest of a chunk blob name (inverse of ChunkBlobName); the name
/// must satisfy IsChunkBlobName.
std::string ChunkHexOfBlobName(std::string_view name);

/// True if `data` begins with the manifest magic.
bool IsManifestPayload(std::span<const uint8_t> data);

/// Serializes a manifest: magic + one-line JSON
/// `{"raw_size":N,"raw_crc":C,"chunks":[["<hex>",len],...]}`.
std::vector<uint8_t> EncodeManifest(const CasManifest& manifest);

/// Parses a manifest payload; fails with Corruption on bad magic/JSON.
Result<CasManifest> DecodeManifest(std::span<const uint8_t> data);

}  // namespace mmm

#endif  // MMM_CAS_MANIFEST_H_
