#ifndef MMM_STORAGE_STORE_BATCH_H_
#define MMM_STORAGE_STORE_BATCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serialize/compress.h"
#include "serialize/json.h"
#include "storage/blob_sink.h"
#include "storage/cas_iface.h"
#include "storage/document_store.h"
#include "storage/executor.h"
#include "storage/file_store.h"
#include "storage/journal.h"

namespace mmm {

/// \brief Knobs of the batched write pipeline.
struct StorePipelineOptions {
  /// Number of parallel write lanes. 1 (the default) reproduces the paper's
  /// serialized cost model bit-exactly: ops execute inline in staging order
  /// and the modeled latency is the serial sum of per-op costs.
  size_t lanes = 1;
  /// Modeled cost of handing one file-store op to a parallel lane
  /// (scheduling plus connection hand-off). Only charged when the batch
  /// actually overlaps (lanes > 1) — a serial pipeline dispatches nothing.
  uint64_t dispatch_nanos_per_op = 0;
};

/// Streams a blob's payload into a sink at commit time, on a worker lane
/// when the pipeline has more than one. This is where CPU-heavy save work
/// (state-dict encoding, diff encoding) runs. The bytes go straight on to
/// the store (or to the CAS chunker), so a writer never holds its whole
/// blob unless it builds one.
using BlobWriter = std::function<Status(BlobSink*)>;

/// \brief An op-batch over the file and document stores.
///
/// Callers stage blob writes, document inserts, and deferred blob writers,
/// then Commit() once. Every blob goes through one sink chain (DESIGN.md
/// §12): its writer (or its ready bytes), an optional compressor stage
/// (which holds the whole blob: shuffle-lz transposes it), then a
/// FileStore write stream, or, with CAS, the session's chunking sink. With
/// more than one lane, independent blobs stream in parallel; document
/// inserts always run serially on the committing thread, in staging order,
/// modeling the single metadata-store connection, after every blob.
///
/// Latency accounting models overlapped I/O lanes: file op `i` (staging
/// order) is assigned to lane `i % lanes`, each lane's cost is the sum of
/// its ops' modeled costs, and the batch charges
/// `max(lane costs) + dispatch_nanos_per_op * file_ops` to the simulated
/// clock. A streamed blob is one op of its full size, however many windows
/// it took. With one lane the max over a single lane is the serial sum and
/// no dispatch cost applies, so lane=1 is bit-identical to issuing every op
/// directly against the stores. Store statistics (`write_ops`,
/// `bytes_written`) are collected per op and merged once per commit, so
/// counters stay exact for any lane count.
///
/// Error handling: Commit returns the first failing blob in *staging*
/// order among the blobs that ran, and skips the document phase if any
/// failed. Blob writes that already completed are not rolled back in
/// process (matching the pre-pipeline behavior of a failed multi-write
/// save); with a journal attached, the next open's journal replay rolls
/// them back — or rolls the commit forward — so the stores converge to
/// all-or-nothing (see storage/journal.h). Committing clears the batch
/// either way.
///
/// With a journal, Commit brackets the batch in a commit protocol: a
/// `begin` record naming every blob it may write, the blob streams, a
/// `commit` record with the CRC of each blob that landed (folded as its
/// bytes passed), the document inserts, and a `finish` mark. Blob writes
/// are numbered by (blob, window) in staging order through a
/// WriteOrderGroup, so fault-injection sweeps hit identical crash points at
/// any lane count.
///
/// Deferred writers may capture references to caller state (e.g. the
/// ModelSet being saved); that state must stay alive and unmodified until
/// Commit returns. A batch is single-owner: stage and commit from one
/// thread.
class StoreBatch {
 public:
  /// \param executor worker pool; nullptr means serial (one lane).
  /// \param journal commit journal; nullptr commits without crash atomicity.
  /// \param cas content-addressed store; nullptr stores payloads verbatim.
  ///   When set, Commit streams every blob, in staging order on the
  ///   committing thread, through a CAS session, which appends new chunks
  ///   to the commit's pack and turns the blob into a manifest or keeps it
  ///   verbatim (see storage/cas_iface.h). The pack is written whole
  ///   before any of those, so no manifest lands before its chunks.
  StoreBatch(FileStore* file_store, DocumentStore* doc_store,
             Executor* executor = nullptr, StorePipelineOptions options = {},
             CommitJournal* journal = nullptr, CasWriter* cas = nullptr);

  /// Stages a blob write of ready bytes.
  void PutBlob(std::string name, std::vector<uint8_t> data);
  /// Stages a blob write of a string payload.
  void PutBlobString(std::string name, std::string_view data);
  /// Stages a blob write whose payload `writer` streams at commit time,
  /// compressed with `compression` on the way to the store.
  void PutBlobDeferred(std::string name, BlobWriter writer,
                       Compression compression = Compression::kNone);
  /// Stages a document insert. The document is captured by value at staging
  /// time; inserts execute in staging order.
  void InsertDocument(std::string collection, JsonValue doc);
  /// Stages a document replace: the existing document with the same `_id`
  /// (if any) is removed and the new body inserted, atomically with the rest
  /// of the commit when a journal is attached (rollback keeps the old
  /// document; roll-forward upserts the new one). Used by the chain
  /// compactor to rewrite set metadata in place.
  void ReplaceDocument(std::string collection, JsonValue doc);
  /// Stages a blob retirement: the named blob is deleted only after the
  /// commit is durable (post-commit-mark, and re-issued by journal replay if
  /// interrupted), never on rollback. Used to hand superseded delta blobs to
  /// GC atomically with the metadata rewrite that orphans them.
  void DeleteBlob(std::string name);

  /// Labels the journal entry of this commit with the set being saved and
  /// the approach saving it (for repair reports and fsck). Optional; only
  /// meaningful when a journal is attached.
  void AnnotateCommit(std::string set_id, std::string approach);

  size_t staged_ops() const { return ops_.size(); }

  /// Executes every staged op as described above and clears the batch.
  /// Dropping the returned Status would silently lose a failed save, so the
  /// call site must consume it ([[nodiscard]] on Status enforces this).
  [[nodiscard]] Status Commit();

 private:
  enum class OpKind { kBlobWrite, kDocInsert, kDocReplace, kBlobDelete };

  struct StagedOp {
    OpKind kind;
    std::string name;  ///< blob name (kBlobWrite/kBlobDelete) or collection
    std::vector<uint8_t> data;
    BlobWriter writer;  ///< non-null: streams the payload at commit time
    Compression compression = Compression::kNone;
    JsonValue doc;
  };

  /// Writes, declares (with a journal) and applies everything staged.
  Status CommitOps(size_t lanes, CasWriteSession* session);
  /// Streams `op`'s payload through its compressor stage into `sink`.
  static Status Produce(StagedOp& op, BlobSink* sink);
  /// Streams `op` to its own file-store write stream and closes it.
  Result<BlobWriteStream> StreamBlob(StagedOp& op, bool detached);
  /// Streams every staged blob to its own file-store write stream: in
  /// staging order for one lane, fanned out under a WriteOrderGroup for
  /// more. Fills `landed` in staging order; returns the first failure in
  /// staging order.
  /// `written`, if not null, is a blob streamed before the fan-out (a CAS
  /// commit's pack): file op 0 in the lane accounting.
  Status WriteBlobs(const std::vector<size_t>& blob_ops, size_t lanes,
                    const BlobWriteStream* written,
                    std::vector<CommitJournal::LandedBlob>* landed);
  /// Streams every staged blob through `session` into its pack, writes the
  /// pack whole, then the manifests and verbatim blobs the session returns.
  Status WriteBlobsThroughCas(const std::vector<size_t>& blob_ops,
                              size_t lanes, CasWriteSession* session,
                              std::vector<CommitJournal::LandedBlob>* landed);
  /// Executes one staged kDocInsert/kDocReplace against the document store.
  Status ApplyDocOp(const StagedOp& op);

  FileStore* file_store_;
  DocumentStore* doc_store_;
  Executor* executor_;
  StorePipelineOptions options_;
  CommitJournal* journal_;
  CasWriter* cas_;
  std::string set_id_;
  std::string approach_;
  std::vector<StagedOp> ops_;
};

}  // namespace mmm

#endif  // MMM_STORAGE_STORE_BATCH_H_
