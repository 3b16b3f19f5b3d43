#ifndef MMM_CAS_BLOB_IO_H_
#define MMM_CAS_BLOB_IO_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cas/cas_store.h"
#include "common/result.h"
#include "storage/file_store.h"

namespace mmm {

/// \file
/// CAS-aware blob reads — the only read entry points the approaches use
/// (core/set_codec.cc, core/update.cc, ...). With CAS off (`cas` null, no
/// manifests in the store) these are exact pass-throughs: one store op,
/// identical bytes, identical modeled cost, so the seed cost accounting is
/// untouched. A chunked blob is read as its manifest plus the chunks it
/// names, fetched through ranged streams over the packs that hold them
/// (the read plan is described at StreamChunks in blob_io.cc, DESIGN.md
/// §10), and reassembled bit-exactly: each chunk is checked against its
/// manifest length and its pack-index CRC before it is handed on, and the
/// whole payload against the manifest's size and CRC.
///
/// Full reads sniff the manifest magic on bytes they already fetched, so
/// they stay correct on mixed stores (some blobs chunked, some verbatim).
/// Ranged reads and sizes need to know up front whether the name is a
/// manifest — they consult `cas` (null means "treat every blob as
/// verbatim"). Reading a chunked blob needs `cas` for the chunks'
/// locations; without it the read fails with Corruption.

/// Reads a whole blob's logical payload into a string, through
/// CasStreamBlob.
Result<std::string> CasReadBlobString(FileStore* store, CasStore* cas,
                                      const std::string& name);

/// Logical (reassembled) size of a blob. One Size op for verbatim blobs;
/// for manifests, reads the manifest and returns its recorded raw size.
Result<uint64_t> CasBlobSize(FileStore* store, CasStore* cas,
                             const std::string& name);

/// Reads `[offset, offset + length)` of a blob's logical payload. Verbatim
/// blobs use one ranged store read; manifests fetch only the chunks that
/// overlap the range (preserving selective model recovery — the point of
/// ranged reads in ReadModelsFromSnapshot).
Result<std::vector<uint8_t>> CasReadBlobRange(FileStore* store, CasStore* cas,
                                              const std::string& name,
                                              uint64_t offset,
                                              uint64_t length);

/// What CasStreamBlob knows of a blob before its first window.
struct CasStreamInfo {
  uint64_t size = 0;  ///< the logical payload's size
  /// A chunked blob's CRC-32 over its whole payload, from the manifest. The
  /// stream returns OK only if the payload has this CRC (combined from the
  /// chunk CRCs it checked, not recomputed), so a caller may rely on it in
  /// place of a pass of its own. nullopt for a verbatim blob, whose bytes
  /// the stream does not check.
  std::optional<uint32_t> crc;
};

/// \brief Streams a blob's logical payload window-by-window (DESIGN.md
/// §12) without ever materializing it: `on_open(info)` fires once (after
/// the manifest, if any, is decoded; may be null), then `on_window`
/// receives the payload bytes in order. A verbatim blob is one
/// OpenStream. A manifest's chunks are read through one forward cursor per
/// pack, each buffering at most one window of CasOptions::max_chunk_bytes;
/// a chunk that repeats later in the manifest is retained until its last
/// use. Chunks are handed on in windows of at most `window_bytes`, and no
/// chunk is handed on before its CRC checks out.
///
/// A non-OK status from either callback aborts the stream and is returned
/// unchanged, so callers can propagate their own decode errors.
Status CasStreamBlob(FileStore* store, CasStore* cas, const std::string& name,
                     uint64_t window_bytes,
                     const std::function<Status(const CasStreamInfo&)>& on_open,
                     const std::function<Status(std::span<const uint8_t>)>&
                         on_window);

/// Reads a stored blob whole and decompresses it, for read paths that need
/// the whole decoded payload at once (diff, hash-table and state-dict
/// blobs, small next to param snapshots). A verbatim blob is one
/// FileStore::Get, decompressed only if it is framed (DecompressBlob); a
/// manifest's chunks stream through BlobDecompressor, so its stored bytes
/// are never held whole. Either way the modeled charge is the one a stream
/// of the blob would have: one op plus the stored bytes.
Result<std::vector<uint8_t>> CasReadBlobDecompressed(FileStore* store,
                                                     CasStore* cas,
                                                     const std::string& name);

}  // namespace mmm

#endif  // MMM_CAS_BLOB_IO_H_
