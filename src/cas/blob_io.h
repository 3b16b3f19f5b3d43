#ifndef MMM_CAS_BLOB_IO_H_
#define MMM_CAS_BLOB_IO_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cas/cas_store.h"
#include "common/result.h"
#include "storage/file_store.h"

namespace mmm {

/// \file
/// CAS-aware blob reads — the only read entry points the approaches use
/// (core/set_codec.cc, core/update.cc, ...). With CAS off these are exact
/// pass-throughs: one store op, identical bytes, identical modeled cost, so
/// the seed cost accounting is untouched. With a chunked blob they fetch
/// the manifest plus its chunks and reassemble bit-exactly (size and CRC32
/// verified against the manifest).
///
/// Full reads sniff the manifest magic on bytes they already fetched, so
/// they stay correct on mixed stores even without a CasStore (e.g. a store
/// written with CAS reopened by an older reader). Ranged reads and sizes
/// need to know up front whether the name is a manifest — they consult
/// `cas` (nullable; null means "treat every blob as verbatim").

/// Reads a blob, reassembling from chunks when it is a manifest.
Result<std::vector<uint8_t>> CasReadBlob(FileStore* store,
                                         const std::string& name);

/// String flavor of CasReadBlob.
Result<std::string> CasReadBlobString(FileStore* store,
                                      const std::string& name);

/// Logical (reassembled) size of a blob. One Size op for verbatim blobs;
/// for manifests, reads the manifest and returns its recorded raw size.
Result<uint64_t> CasBlobSize(FileStore* store, const CasStore* cas,
                             const std::string& name);

/// Reads `[offset, offset + length)` of a blob's logical payload. Verbatim
/// blobs use one ranged store read; manifests fetch only the chunks that
/// overlap the range (preserving selective model recovery — the point of
/// ranged reads in ReadModelsFromSnapshot).
Result<std::vector<uint8_t>> CasReadBlobRange(FileStore* store,
                                              const CasStore* cas,
                                              const std::string& name,
                                              uint64_t offset,
                                              uint64_t length);

/// \brief Streams a blob's logical payload window-by-window (DESIGN.md
/// §12) without ever materializing it: `on_open(logical_size)` fires once
/// (after the manifest, if any, is decoded; may be null), then `on_window`
/// receives the payload bytes in order. The concatenated windows are
/// bit-identical to CasReadBlob's result, and the store accounting is too:
/// verbatim blobs are one OpenStream; manifests read each *distinct* chunk
/// once, whole, with one Get (repeated chunks are replayed from a retained
/// copy — only chunks that repeat later in the manifest are retained, so
/// peak buffering is bounded by the duplicated chunks, not the blob) and
/// hand it on in windows of at most `window_bytes`. CasReadBlob reassembles
/// through the same loop. Size and CRC are verified against the manifest
/// as the windows flow through.
///
/// A non-OK status from either callback aborts the stream and is returned
/// unchanged, so callers can propagate their own decode errors.
Status CasStreamBlob(FileStore* store, const std::string& name,
                     uint64_t window_bytes,
                     const std::function<Status(uint64_t)>& on_open,
                     const std::function<Status(std::span<const uint8_t>)>&
                         on_window);

/// Streams a stored blob through BlobDecompressor into a full decompressed
/// buffer: same bytes as DecompressBlob(CasReadBlob(...)), but the stored-
/// side intermediate never exists. For read paths that still need the
/// whole decoded payload at once (diff and hash-table blobs — small next
/// to param snapshots).
Result<std::vector<uint8_t>> CasReadBlobDecompressed(FileStore* store,
                                                     const std::string& name,
                                                     uint64_t window_bytes);

}  // namespace mmm

#endif  // MMM_CAS_BLOB_IO_H_
