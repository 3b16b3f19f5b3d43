#include "cas/blob_io.h"

#include <algorithm>
#include <map>

#include "serialize/compress.h"
#include "serialize/crc32.h"

namespace mmm {

namespace {

using ChunkFn = std::function<Status(std::span<const uint8_t>)>;

Status CheckChunkSize(const std::string& name, const CasChunkRef& ref,
                      uint64_t size) {
  if (size == ref.length) return Status::OK();
  return Status::Corruption("blob '", name, "' chunk ", ref.hash_hex, " has ",
                            size, " bytes, manifest records ", ref.length);
}

/// Reads one chunk a manifest names with a single store Get (one
/// Env::ReadFile) and checks its size against the manifest.
Result<std::vector<uint8_t>> ReadChunk(FileStore* store,
                                       const std::string& name,
                                       const CasChunkRef& ref) {
  auto chunk = store->Get(ChunkBlobName(ref.hash_hex));
  if (!chunk.ok()) {
    return chunk.status().WithContext("blob '", name, "' chunk ",
                                      ref.hash_hex);
  }
  MMM_RETURN_NOT_OK(CheckChunkSize(name, ref, chunk.ValueOrDie().size()));
  return chunk;
}

/// Hands the chunks of `manifest` to `on_chunk` in manifest order and
/// verifies the reassembled size and CRC against it. Each distinct chunk
/// is read from the store once; a chunk that repeats later in the manifest
/// is retained until its last use, so peak buffering is bounded by the
/// duplicated chunks, not the blob.
Status ReassembleChunks(FileStore* store, const std::string& name,
                        const CasManifest& manifest, const ChunkFn& on_chunk) {
  std::map<std::string, size_t> uses;
  for (const CasChunkRef& ref : manifest.chunks) ++uses[ref.hash_hex];
  std::map<std::string, std::vector<uint8_t>> retained;

  uint64_t total = 0;
  uint32_t crc = 0;
  for (const CasChunkRef& ref : manifest.chunks) {
    const size_t remaining_uses = --uses[ref.hash_hex];
    auto it = retained.find(ref.hash_hex);
    std::vector<uint8_t> fetched;
    std::span<const uint8_t> bytes;
    if (it != retained.end()) {
      MMM_RETURN_NOT_OK(CheckChunkSize(name, ref, it->second.size()));
      bytes = it->second;
    } else {
      MMM_ASSIGN_OR_RETURN(fetched, ReadChunk(store, name, ref));
      bytes = fetched;
    }
    total += bytes.size();
    crc = Crc32::Extend(crc, bytes);
    MMM_RETURN_NOT_OK(on_chunk(bytes));
    if (it == retained.end() && remaining_uses > 0) {
      retained.emplace(ref.hash_hex, std::move(fetched));
    } else if (it != retained.end() && remaining_uses == 0) {
      retained.erase(it);
    }
  }
  if (total != manifest.raw_size) {
    return Status::Corruption("blob '", name, "' reassembled to ", total,
                              " bytes, manifest records ", manifest.raw_size);
  }
  if (crc != manifest.raw_crc) {
    return Status::Corruption("blob '", name,
                              "' fails its manifest crc after reassembly");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> Reassemble(FileStore* store,
                                        const std::string& name,
                                        const CasManifest& manifest) {
  std::vector<uint8_t> out;
  out.reserve(manifest.raw_size);
  MMM_RETURN_NOT_OK(ReassembleChunks(
      store, name, manifest, [&out](std::span<const uint8_t> chunk) {
        out.insert(out.end(), chunk.begin(), chunk.end());
        return Status::OK();
      }));
  return out;
}

Result<CasManifest> FetchManifest(FileStore* store, const std::string& name) {
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, store->Get(name));
  auto manifest = DecodeManifest(data);
  if (!manifest.ok()) {
    return manifest.status().WithContext("blob '", name, "'");
  }
  return manifest;
}

}  // namespace

Result<std::vector<uint8_t>> CasReadBlob(FileStore* store,
                                         const std::string& name) {
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, store->Get(name));
  if (!IsManifestPayload(data)) return data;
  auto manifest = DecodeManifest(data);
  if (!manifest.ok()) {
    return manifest.status().WithContext("blob '", name, "'");
  }
  return Reassemble(store, name, manifest.ValueOrDie());
}

Result<std::string> CasReadBlobString(FileStore* store,
                                      const std::string& name) {
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, CasReadBlob(store, name));
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

Result<uint64_t> CasBlobSize(FileStore* store, const CasStore* cas,
                             const std::string& name) {
  if (cas == nullptr || !cas->IsManifest(name)) return store->Size(name);
  MMM_ASSIGN_OR_RETURN(CasManifest manifest, FetchManifest(store, name));
  return manifest.raw_size;
}

Result<std::vector<uint8_t>> CasReadBlobRange(FileStore* store,
                                              const CasStore* cas,
                                              const std::string& name,
                                              uint64_t offset,
                                              uint64_t length) {
  if (cas == nullptr || !cas->IsManifest(name)) {
    return store->GetRange(name, offset, length);
  }
  MMM_ASSIGN_OR_RETURN(CasManifest manifest, FetchManifest(store, name));
  // Overflow-safe form of `offset + length > raw_size` (matches the
  // Env::ReadFileRange contract verbatim blobs get from the store).
  if (offset > manifest.raw_size || length > manifest.raw_size - offset) {
    return Status::OutOfRange("blob '", name, "' range [", offset, ", +",
                              length, ") exceeds logical size ",
                              manifest.raw_size);
  }
  std::vector<uint8_t> out;
  out.reserve(length);
  uint64_t chunk_start = 0;
  const uint64_t end = offset + length;
  for (const CasChunkRef& ref : manifest.chunks) {
    const uint64_t chunk_end = chunk_start + ref.length;
    if (chunk_end > offset && chunk_start < end) {
      const uint64_t local_offset =
          offset > chunk_start ? offset - chunk_start : 0;
      const uint64_t local_end =
          end < chunk_end ? end - chunk_start : ref.length;
      MMM_ASSIGN_OR_RETURN(
          std::vector<uint8_t> piece,
          store->GetRange(ChunkBlobName(ref.hash_hex), local_offset,
                          local_end - local_offset));
      out.insert(out.end(), piece.begin(), piece.end());
    }
    chunk_start = chunk_end;
    if (chunk_start >= end) break;
  }
  if (out.size() != length) {
    return Status::Corruption("blob '", name, "' ranged read produced ",
                              out.size(), " bytes, wanted ", length);
  }
  return out;
}

Status CasStreamBlob(FileStore* store, const std::string& name,
                     uint64_t window_bytes,
                     const std::function<Status(uint64_t)>& on_open,
                     const std::function<Status(std::span<const uint8_t>)>&
                         on_window) {
  MMM_ASSIGN_OR_RETURN(StreamFile stream,
                       store->OpenStream(name, window_bytes));
  // Sniff the manifest magic from the head of the stream (a window smaller
  // than the magic just pulls another one — tiny blobs cannot be
  // manifests, but the sniff must not depend on the window size).
  std::vector<uint8_t> head;
  while (head.size() < kCasManifestMagicSize && !stream.done()) {
    MMM_ASSIGN_OR_RETURN(std::span<const uint8_t> window, stream.Next());
    head.insert(head.end(), window.begin(), window.end());
  }

  if (!IsManifestPayload(head)) {
    // Verbatim blob: the stored bytes are the payload.
    if (on_open != nullptr) MMM_RETURN_NOT_OK(on_open(stream.size()));
    if (!head.empty()) {
      MMM_RETURN_NOT_OK(on_window(head));
    }
    while (!stream.done()) {
      MMM_ASSIGN_OR_RETURN(std::span<const uint8_t> window, stream.Next());
      MMM_RETURN_NOT_OK(on_window(window));
    }
    return Status::OK();
  }

  // Manifest: materialize it (small next to the payload), then stream the
  // chunks it names.
  while (!stream.done()) {
    MMM_ASSIGN_OR_RETURN(std::span<const uint8_t> window, stream.Next());
    head.insert(head.end(), window.begin(), window.end());
  }
  auto decoded = DecodeManifest(head);
  if (!decoded.ok()) {
    return decoded.status().WithContext("blob '", name, "'");
  }
  const CasManifest manifest = std::move(decoded).ValueOrDie();
  head.clear();
  head.shrink_to_fit();
  if (on_open != nullptr) MMM_RETURN_NOT_OK(on_open(manifest.raw_size));

  // Chunks are read whole (at most CasOptions::max_chunk_bytes) and handed
  // on in windows of at most `window_bytes`, like any other stream.
  const uint64_t window =
      window_bytes == 0 ? kDefaultStreamWindowBytes : window_bytes;
  return ReassembleChunks(
      store, name, manifest, [&](std::span<const uint8_t> chunk) -> Status {
        for (uint64_t at = 0; at < chunk.size(); at += window) {
          const uint64_t take = std::min<uint64_t>(window, chunk.size() - at);
          MMM_RETURN_NOT_OK(on_window(chunk.subspan(at, take)));
        }
        return Status::OK();
      });
}

Result<std::vector<uint8_t>> CasReadBlobDecompressed(FileStore* store,
                                                     const std::string& name,
                                                     uint64_t window_bytes) {
  std::vector<uint8_t> out;
  BlobDecompressor decompressor;
  MMM_RETURN_NOT_OK(CasStreamBlob(
      store, name, window_bytes, nullptr,
      [&](std::span<const uint8_t> window) {
        return decompressor.Feed(window, &out);
      }));
  MMM_RETURN_NOT_OK(decompressor.Finish(&out));
  return out;
}

}  // namespace mmm
