#include "storage/store_batch.h"

#include <algorithm>


namespace mmm {

StoreBatch::StoreBatch(FileStore* file_store, DocumentStore* doc_store,
                       Executor* executor, StorePipelineOptions options,
                       CommitJournal* journal, CasWriter* cas)
    : file_store_(file_store),
      doc_store_(doc_store),
      executor_(executor),
      options_(options),
      journal_(journal),
      cas_(cas) {}

void StoreBatch::PutBlob(std::string name, std::vector<uint8_t> data) {
  ops_.push_back(StagedOp{OpKind::kBlobWrite, std::move(name), std::move(data),
                          nullptr, Compression::kNone, JsonValue()});
}

void StoreBatch::PutBlobString(std::string name, std::string_view data) {
  PutBlob(std::move(name),
          std::vector<uint8_t>(reinterpret_cast<const uint8_t*>(data.data()),
                               reinterpret_cast<const uint8_t*>(data.data()) +
                                   data.size()));
}

void StoreBatch::PutBlobDeferred(std::string name, BlobWriter writer,
                                 Compression compression) {
  ops_.push_back(StagedOp{OpKind::kBlobWrite, std::move(name), {},
                          std::move(writer), compression, JsonValue()});
}

void StoreBatch::InsertDocument(std::string collection, JsonValue doc) {
  ops_.push_back(StagedOp{OpKind::kDocInsert, std::move(collection), {},
                          nullptr, Compression::kNone, std::move(doc)});
}

void StoreBatch::ReplaceDocument(std::string collection, JsonValue doc) {
  ops_.push_back(StagedOp{OpKind::kDocReplace, std::move(collection), {},
                          nullptr, Compression::kNone, std::move(doc)});
}

void StoreBatch::DeleteBlob(std::string name) {
  ops_.push_back(StagedOp{OpKind::kBlobDelete, std::move(name), {}, nullptr,
                          Compression::kNone, JsonValue()});
}

Status StoreBatch::ApplyDocOp(const StagedOp& op) {
  if (op.kind == OpKind::kDocReplace) {
    MMM_ASSIGN_OR_RETURN(std::string id, op.doc.GetString("_id"));
    if (doc_store_->Get(op.name, id).ok()) {
      MMM_RETURN_NOT_OK(doc_store_->Remove(op.name, id));
    }
  }
  return doc_store_->Insert(op.name, op.doc);
}

void StoreBatch::AnnotateCommit(std::string set_id, std::string approach) {
  set_id_ = std::move(set_id);
  approach_ = std::move(approach);
}

Status StoreBatch::Commit() {
  const size_t lanes = executor_ != nullptr ? executor_->lanes() : 1;
  std::unique_ptr<CasWriteSession> session;
  if (cas_ != nullptr) session = cas_->BeginSession();
  Status status = CommitOps(lanes, session.get());
  if (session != nullptr) {
    if (status.ok()) {
      // The commit is durable: fold the refcount deltas in and sweep
      // chunks the retirements zeroed.
      status = session->Applied();
    } else {
      session->Aborted();
    }
  }
  ops_.clear();
  return status;
}

Status StoreBatch::CommitOps(size_t lanes, CasWriteSession* session) {
  std::vector<size_t> blob_ops;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kBlobWrite) blob_ops.push_back(i);
    if (ops_[i].kind == OpKind::kBlobDelete && session != nullptr) {
      MMM_RETURN_NOT_OK(session->TrackDelete(ops_[i].name));
    }
  }

  // Declare every intended side effect before causing any. Blobs are named
  // only: their CRCs are folded as they stream and go in the commit mark.
  uint64_t txn = 0;
  if (journal_ != nullptr) {
    std::vector<CommitJournal::BlobIntent> blob_intents;
    if (session != nullptr) blob_intents.push_back({session->pack_name()});
    for (size_t index : blob_ops) blob_intents.push_back({ops_[index].name});
    std::vector<CommitJournal::DocIntent> doc_intents;
    std::vector<std::string> delete_intents;
    for (const StagedOp& op : ops_) {
      if (op.kind == OpKind::kDocInsert) {
        doc_intents.push_back({op.name, op.doc, /*replace=*/false});
      } else if (op.kind == OpKind::kDocReplace) {
        doc_intents.push_back({op.name, op.doc, /*replace=*/true});
      } else if (op.kind == OpKind::kBlobDelete) {
        delete_intents.push_back(op.name);
      }
    }
    MMM_ASSIGN_OR_RETURN(txn, journal_->Begin(set_id_, approach_,
                                              std::move(blob_intents),
                                              std::move(doc_intents),
                                              std::move(delete_intents)));
  }

  // Blob streams. On failure the entry stays uncommitted and the next open
  // rolls back whatever landed; no in-process cleanup, so a crash anywhere
  // in here exercises exactly the recovery path.
  std::vector<CommitJournal::LandedBlob> landed;
  MMM_RETURN_NOT_OK(session != nullptr
                        ? WriteBlobsThroughCas(blob_ops, lanes, session,
                                               &landed)
                        : WriteBlobs(blob_ops, lanes, nullptr, &landed));

  // The atomicity point: from here on, recovery rolls forward.
  if (journal_ != nullptr) {
    MMM_RETURN_NOT_OK(journal_->MarkCommitted(txn, std::move(landed)));
  }

  // Document inserts and replaces, serial in staging order (one
  // metadata-store connection). Idempotently completed by replay if
  // interrupted (replaces upsert; see journal.h).
  for (StagedOp& op : ops_) {
    if (op.kind != OpKind::kDocInsert && op.kind != OpKind::kDocReplace) {
      continue;
    }
    MMM_RETURN_NOT_OK(ApplyDocOp(op));
  }

  // Retire superseded blobs, now that no live document references them.
  // Replay re-issues these after the commit mark, so a crash anywhere in
  // here still converges to all deletes applied.
  for (StagedOp& op : ops_) {
    if (op.kind != OpKind::kBlobDelete) continue;
    MMM_RETURN_NOT_OK(file_store_->Delete(op.name));
  }

  // Retire the entry. If this last append fails the save reports an error,
  // but the store already holds the full commit (replay verifies and
  // re-finishes it) — the "acknowledgement lost" outcome.
  return journal_ != nullptr ? journal_->MarkFinished(txn) : Status::OK();
}

namespace {

/// The optional compressor stage. It holds the whole blob: shuffle-lz
/// transposes byte planes across all of it, and LzCompress is one-shot.
class CompressingSink : public BlobSink {
 public:
  CompressingSink(Compression method, BlobSink* next)
      : method_(method), next_(next) {}

  Status Append(std::span<const uint8_t> bytes) override {
    raw_.insert(raw_.end(), bytes.begin(), bytes.end());
    return Status::OK();
  }

  /// Compresses what was appended and hands the frame on.
  Status Finish() {
    const std::vector<uint8_t> frame = CompressBlob(method_, raw_);
    raw_ = {};
    return next_->Append(frame);
  }

 private:
  Compression method_;
  BlobSink* next_;
  std::vector<uint8_t> raw_;
};

}  // namespace

Status StoreBatch::Produce(StagedOp& op, BlobSink* sink) {
  if (op.compression == Compression::kNone) {
    return op.writer != nullptr ? op.writer(sink) : sink->Append(op.data);
  }
  CompressingSink compressor(op.compression, sink);
  MMM_RETURN_NOT_OK(op.writer != nullptr ? op.writer(&compressor)
                                         : compressor.Append(op.data));
  return compressor.Finish();
}

Result<BlobWriteStream> StoreBatch::StreamBlob(StagedOp& op, bool detached) {
  MMM_ASSIGN_OR_RETURN(BlobWriteStream stream,
                       file_store_->OpenWriteStream(op.name, detached));
  MMM_RETURN_NOT_OK(Produce(op, &stream));
  MMM_RETURN_NOT_OK(stream.Close());
  return stream;
}

Status StoreBatch::WriteBlobs(const std::vector<size_t>& blob_ops,
                              size_t lanes, const BlobWriteStream* written,
                              std::vector<CommitJournal::LandedBlob>* landed) {
  if (lanes <= 1) {
    // One lane: each blob streams inline in staging order through a stream
    // that charges the simulated clock at close, like Put: the serial sum,
    // i.e. the paper's original cost model, bit-exactly. Writes arrive in
    // staging order, so no tagging is needed for the fault-injection
    // numbering to match the parallel path's.
    for (size_t index : blob_ops) {
      MMM_ASSIGN_OR_RETURN(BlobWriteStream stream,
                           StreamBlob(ops_[index], /*detached=*/false));
      landed->push_back({stream.name(), stream.crc()});
    }
    return Status::OK();
  }

  // A blob written before the fan-out (a CAS commit's pack) is file op 0.
  const size_t first = written != nullptr ? 1 : 0;
  const size_t ops = first + blob_ops.size();
  std::vector<Status> statuses(blob_ops.size());
  std::vector<uint32_t> crcs(blob_ops.size(), 0);
  std::vector<uint64_t> costs(ops, 0);
  std::vector<StoreStats> deltas(ops);
  if (written != nullptr) {
    costs[0] = written->cost_nanos();
    deltas[0] = written->stats();
  }
  WriteOrderGroup group(blob_ops.size());
  executor_->ParallelFor(blob_ops.size(), [&](size_t i) {
    // Tagged so fault-injection numbers this blob's windows by its staging
    // index even though lanes race (see WriteOrderGroup in storage/env.h).
    ScopedWriteOrderTag tag(&group, i);
    Result<BlobWriteStream> stream =
        StreamBlob(ops_[blob_ops[i]], /*detached=*/true);
    if (!stream.ok()) {
      statuses[i] = stream.status();
      return;
    }
    crcs[i] = stream->crc();
    costs[first + i] = stream->cost_nanos();
    deltas[first + i] = stream->stats();
  });

  // Merge the per-op counters once and charge the overlapped latency:
  // max across lanes plus the per-op dispatch cost.
  StoreStats merged;
  std::vector<uint64_t> lane_nanos(lanes, 0);
  for (size_t i = 0; i < ops; ++i) {
    merged = merged + deltas[i];
    lane_nanos[i % lanes] += costs[i];
  }
  uint64_t charge =
      *std::max_element(lane_nanos.begin(), lane_nanos.end()) +
      options_.dispatch_nanos_per_op * static_cast<uint64_t>(ops);
  file_store_->MergeBatch(merged, charge);

  for (size_t i = 0; i < blob_ops.size(); ++i) {
    MMM_RETURN_NOT_OK(statuses[i]);
    landed->push_back({ops_[blob_ops[i]].name, crcs[i]});
  }
  return Status::OK();
}

Status StoreBatch::WriteBlobsThroughCas(
    const std::vector<size_t>& blob_ops, size_t lanes,
    CasWriteSession* session, std::vector<CommitJournal::LandedBlob>* landed) {
  // The chunker sees the blobs one after another, in staging order, so the
  // pack's bytes do not depend on the lane count.
  MMM_ASSIGN_OR_RETURN(BlobWriteStream pack,
                       file_store_->OpenWriteStream(session->pack_name(),
                                                    /*detached=*/lanes > 1));
  for (size_t index : blob_ops) {
    StagedOp& op = ops_[index];
    MMM_ASSIGN_OR_RETURN(std::unique_ptr<CasBlobSink> sink,
                         session->OpenBlob(op.name, &pack));
    MMM_RETURN_NOT_OK(Produce(op, sink.get()));
    // What the session returns (a manifest, or the payload itself) is
    // stored verbatim.
    MMM_ASSIGN_OR_RETURN(op.data, sink->Finish());
    op.writer = nullptr;
    op.compression = Compression::kNone;
  }
  MMM_ASSIGN_OR_RETURN(bool has_pack, session->FinishPack());
  if (!has_pack) return WriteBlobs(blob_ops, lanes, nullptr, landed);
  MMM_RETURN_NOT_OK(pack.Close());
  landed->push_back({pack.name(), pack.crc()});
  return WriteBlobs(blob_ops, lanes, &pack, landed);
}

}  // namespace mmm
