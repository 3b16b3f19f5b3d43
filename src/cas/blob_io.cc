#include "cas/blob_io.h"

#include <algorithm>
#include <map>

#include "serialize/compress.h"
#include "serialize/crc32.h"

namespace mmm {

namespace {

using ChunkFn = std::function<Status(std::span<const uint8_t>)>;

/// Hands the chunks `refs` names (a manifest's whole list, or the run of it
/// a ranged read needs) to `on_chunk` in order. The chunks are resolved to
/// pack locations in one index lookup, which pins their packs against a
/// concurrent repack until the read ends, and read by ReadPackedChunks
/// (its read plan is in cas/pack.h), each checked against its manifest
/// length and pack-index CRC before it is handed on. A chunk that repeats
/// later in the list is read once and retained until its last use. A
/// failed `on_chunk` is returned unchanged; read errors name the blob.
Status StreamChunks(FileStore* store, CasStore* cas, const std::string& name,
                    std::span<const CasChunkRef> refs,
                    const ChunkFn& on_chunk) {
  if (cas == nullptr) {
    return Status::Corruption("blob '", name,
                              "' is chunked, but the store has no cas index");
  }
  std::vector<ChunkLocation> where;
  auto pins = cas->ResolveChunks(refs, &where);
  if (!pins.ok()) return pins.status().WithContext("blob '", name, "'");

  // Only each chunk's first use is read.
  std::map<std::string, size_t> uses;
  std::vector<size_t> first_use;
  std::vector<CasChunkRef> reads;
  std::vector<ChunkLocation> read_where;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (uses[refs[i].hash_hex]++ != 0) continue;
    first_use.push_back(i);
    reads.push_back(refs[i]);
    read_where.push_back(where[i]);
  }
  std::map<std::string, std::vector<uint8_t>> retained;
  size_t next = 0;  // the next entry of `refs` to hand on
  Status handed;
  auto hand_on = [&](std::span<const uint8_t> chunk) {
    const std::string& hex = refs[next++].hash_hex;
    handed = on_chunk(chunk);
    if (--uses[hex] == 0) {
      retained.erase(hex);
    } else if (retained.count(hex) == 0) {
      retained.emplace(hex, std::vector<uint8_t>(chunk.begin(), chunk.end()));
    }
    return handed;
  };
  auto replay_until = [&](size_t end) {
    while (next < end) {
      MMM_RETURN_NOT_OK(hand_on(retained.at(refs[next].hash_hex)));
    }
    return Status::OK();
  };
  Status read = ReadPackedChunks(
      store, cas->options().max_chunk_bytes, reads, read_where,
      [&](size_t k, std::span<const uint8_t> chunk) {
        MMM_RETURN_NOT_OK(replay_until(first_use[k]));
        return hand_on(chunk);
      });
  if (!read.ok()) {
    // A failed on_chunk comes back unchanged; read errors name the blob.
    return handed.ok() ? read.WithContext("blob '", name, "'") : handed;
  }
  return replay_until(refs.size());
}

/// StreamChunks over a whole manifest, verifying the reassembled size and
/// CRC against it.
Status ReassembleChunks(FileStore* store, CasStore* cas,
                        const std::string& name, const CasManifest& manifest,
                        const ChunkFn& on_chunk) {
  uint64_t total = 0;
  uint32_t crc = 0;
  MMM_RETURN_NOT_OK(StreamChunks(
      store, cas, name, manifest.chunks,
      [&](std::span<const uint8_t> chunk) {
        total += chunk.size();
        crc = Crc32::Extend(crc, chunk);
        return on_chunk(chunk);
      }));
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

Result<CasManifest> DecodeManifestOf(const std::string& name,
                                     std::span<const uint8_t> data) {
  auto manifest = DecodeManifest(data);
  if (!manifest.ok()) {
    return manifest.status().WithContext("blob '", name, "'");
  }
  return manifest;
}

}  // namespace

Result<std::vector<uint8_t>> CasReadBlob(FileStore* store, CasStore* cas,
                                         const std::string& name) {
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, store->Get(name));
  if (!IsManifestPayload(data)) return data;
  MMM_ASSIGN_OR_RETURN(CasManifest manifest, DecodeManifestOf(name, data));
  std::vector<uint8_t> out;
  out.reserve(manifest.raw_size);
  MMM_RETURN_NOT_OK(ReassembleChunks(
      store, cas, name, manifest, [&out](std::span<const uint8_t> chunk) {
        out.insert(out.end(), chunk.begin(), chunk.end());
        return Status::OK();
      }));
  return out;
}

Result<std::string> CasReadBlobString(FileStore* store, CasStore* cas,
                                      const std::string& name) {
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                       CasReadBlob(store, cas, name));
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

Result<uint64_t> CasBlobSize(FileStore* store, CasStore* cas,
                             const std::string& name) {
  if (cas == nullptr || !cas->IsManifest(name)) return store->Size(name);
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, store->Get(name));
  MMM_ASSIGN_OR_RETURN(CasManifest manifest, DecodeManifestOf(name, data));
  return manifest.raw_size;
}

Result<std::vector<uint8_t>> CasReadBlobRange(FileStore* store, CasStore* cas,
                                              const std::string& name,
                                              uint64_t offset,
                                              uint64_t length) {
  if (cas == nullptr || !cas->IsManifest(name)) {
    return store->GetRange(name, offset, length);
  }
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, store->Get(name));
  MMM_ASSIGN_OR_RETURN(CasManifest manifest, DecodeManifestOf(name, data));
  // Overflow-safe form of `offset + length > raw_size` (matches the
  // Env::ReadFileRange contract verbatim blobs get from the store).
  if (offset > manifest.raw_size || length > manifest.raw_size - offset) {
    return Status::OutOfRange("blob '", name, "' range [", offset, ", +",
                              length, ") exceeds logical size ",
                              manifest.raw_size);
  }
  // The run of chunks overlapping the range, and where the first starts.
  const uint64_t end = offset + length;
  size_t first = 0;
  uint64_t first_start = 0;
  while (first < manifest.chunks.size() &&
         first_start + manifest.chunks[first].length <= offset) {
    first_start += manifest.chunks[first].length;
    ++first;
  }
  size_t last = first;
  for (uint64_t at = first_start; last < manifest.chunks.size() && at < end;) {
    at += manifest.chunks[last++].length;
  }
  std::vector<uint8_t> out;
  out.reserve(length);
  uint64_t chunk_start = first_start;
  MMM_RETURN_NOT_OK(StreamChunks(
      store, cas, name,
      std::span<const CasChunkRef>(manifest.chunks).subspan(first,
                                                            last - first),
      [&](std::span<const uint8_t> chunk) {
        const uint64_t chunk_end = chunk_start + chunk.size();
        const uint64_t from = std::max(offset, chunk_start) - chunk_start;
        const uint64_t to = std::min(end, chunk_end) - chunk_start;
        if (from < to) {
          out.insert(out.end(), chunk.begin() + from, chunk.begin() + to);
        }
        chunk_start = chunk_end;
        return Status::OK();
      }));
  if (out.size() != length) {
    return Status::Corruption("blob '", name, "' ranged read produced ",
                              out.size(), " bytes, wanted ", length);
  }
  return out;
}

Status CasStreamBlob(FileStore* store, CasStore* cas, const std::string& name,
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
  MMM_ASSIGN_OR_RETURN(const CasManifest manifest,
                       DecodeManifestOf(name, head));
  head.clear();
  head.shrink_to_fit();
  if (on_open != nullptr) MMM_RETURN_NOT_OK(on_open(manifest.raw_size));

  // Chunks (at most CasOptions::max_chunk_bytes each) are handed on in
  // windows of at most `window_bytes`, like any other stream.
  const uint64_t window =
      window_bytes == 0 ? kDefaultStreamWindowBytes : window_bytes;
  return ReassembleChunks(
      store, cas, name, manifest,
      [&](std::span<const uint8_t> chunk) -> Status {
        for (uint64_t at = 0; at < chunk.size(); at += window) {
          const uint64_t take = std::min<uint64_t>(window, chunk.size() - at);
          MMM_RETURN_NOT_OK(on_window(chunk.subspan(at, take)));
        }
        return Status::OK();
      });
}

Result<std::vector<uint8_t>> CasReadBlobDecompressed(FileStore* store,
                                                     CasStore* cas,
                                                     const std::string& name,
                                                     uint64_t window_bytes) {
  std::vector<uint8_t> out;
  BlobDecompressor decompressor;
  MMM_RETURN_NOT_OK(CasStreamBlob(
      store, cas, name, window_bytes, nullptr,
      [&](std::span<const uint8_t> window) {
        return decompressor.Feed(window, &out);
      }));
  MMM_RETURN_NOT_OK(decompressor.Finish(&out));
  return out;
}

}  // namespace mmm
