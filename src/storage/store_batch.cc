#include "storage/store_batch.h"

#include <algorithm>

#include "serialize/crc32.h"

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
                          nullptr, JsonValue()});
}

void StoreBatch::PutBlobString(std::string name, std::string_view data) {
  PutBlob(std::move(name),
          std::vector<uint8_t>(reinterpret_cast<const uint8_t*>(data.data()),
                               reinterpret_cast<const uint8_t*>(data.data()) +
                                   data.size()));
}

void StoreBatch::PutBlobDeferred(std::string name, BlobProducer producer) {
  ops_.push_back(StagedOp{OpKind::kBlobWrite, std::move(name), {},
                          std::move(producer), JsonValue()});
}

void StoreBatch::InsertDocument(std::string collection, JsonValue doc) {
  ops_.push_back(StagedOp{OpKind::kDocInsert, std::move(collection), {},
                          nullptr, std::move(doc)});
}

void StoreBatch::ReplaceDocument(std::string collection, JsonValue doc) {
  ops_.push_back(StagedOp{OpKind::kDocReplace, std::move(collection), {},
                          nullptr, std::move(doc)});
}

void StoreBatch::DeleteBlob(std::string name) {
  ops_.push_back(
      StagedOp{OpKind::kBlobDelete, std::move(name), {}, nullptr, JsonValue()});
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
  std::unique_ptr<CasWriteSession> cas_session;
  if (cas_ != nullptr) {
    Status transformed = ApplyCasTransform(&cas_session);
    if (!transformed.ok()) {
      if (cas_session != nullptr) cas_session->Aborted();
      ops_.clear();
      return transformed;
    }
  }
  Status status;
  if (journal_ != nullptr) {
    status = CommitJournaled(lanes);
  } else {
    status = lanes > 1 ? CommitParallel() : CommitSerial();
  }
  if (cas_session != nullptr) {
    if (status.ok()) {
      // The commit is durable: fold the refcount deltas in, sweep chunks
      // the retirements zeroed, persist the index checkpoint.
      status = cas_session->Applied();
    } else {
      cas_session->Aborted();
    }
  }
  ops_.clear();
  return status;
}

Status StoreBatch::ApplyCasTransform(
    std::unique_ptr<CasWriteSession>* session) {
  *session = cas_->BeginSession();
  for (StagedOp& op : ops_) {
    if (op.kind == OpKind::kBlobWrite) {
      // Producers run inline here: the chunker needs the payload bytes
      // before the lanes start. The writes themselves still fan out across
      // lanes.
      if (op.producer != nullptr) {
        MMM_ASSIGN_OR_RETURN(op.data, op.producer());
        op.producer = nullptr;
      }
      MMM_RETURN_NOT_OK((*session)->TransformWrite(op.name, &op.data));
    } else if (op.kind == OpKind::kBlobDelete) {
      MMM_RETURN_NOT_OK((*session)->TrackDelete(op.name));
    }
  }
  CasWriteSession::BlobWrite pack;
  if ((*session)->TakePack(&pack)) {
    ops_.insert(ops_.begin(),
                StagedOp{OpKind::kBlobWrite, std::move(pack.name),
                         std::move(pack.data), nullptr, JsonValue()});
  }
  return Status::OK();
}

Status StoreBatch::CommitSerial() {
  // One lane: ops run inline in staging order through the stores' plain
  // entry points, which charge the simulated clock per op — the serial sum,
  // i.e. the paper's original cost model, bit-exactly.
  for (StagedOp& op : ops_) {
    switch (op.kind) {
      case OpKind::kBlobWrite: {
        if (op.producer != nullptr) {
          MMM_ASSIGN_OR_RETURN(op.data, op.producer());
        }
        MMM_RETURN_NOT_OK(file_store_->Put(op.name, op.data));
        break;
      }
      case OpKind::kDocInsert:
      case OpKind::kDocReplace:
        MMM_RETURN_NOT_OK(ApplyDocOp(op));
        break;
      case OpKind::kBlobDelete:
        MMM_RETURN_NOT_OK(file_store_->Delete(op.name));
        break;
    }
  }
  return Status::OK();
}

Status StoreBatch::CommitParallel() {
  const size_t lanes = executor_->lanes();

  // File ops in staging order; each is one parallel work item.
  std::vector<size_t> blob_ops;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kBlobWrite) blob_ops.push_back(i);
  }

  std::vector<Status> statuses(blob_ops.size());
  std::vector<uint64_t> costs(blob_ops.size(), 0);
  std::vector<StoreStats> deltas(blob_ops.size());
  WriteOrderGroup group(blob_ops.size());
  executor_->ParallelFor(blob_ops.size(), [&](size_t i) {
    StagedOp& op = ops_[blob_ops[i]];
    if (op.producer != nullptr) {
      Result<std::vector<uint8_t>> produced = op.producer();
      if (!produced.ok()) {
        statuses[i] = std::move(produced).status();
        return;
      }
      op.data = std::move(produced).ValueOrDie();
    }
    // Tagged so fault-injection numbers this write by its staging index
    // even though lanes race (see WriteOrderGroup in storage/env.h).
    ScopedWriteOrderTag tag(&group, i);
    statuses[i] =
        file_store_->PutDetached(op.name, op.data, &deltas[i], &costs[i]);
  });

  // Merge the per-op counters once and charge the overlapped latency:
  // max across lanes plus the per-op dispatch cost.
  StoreStats merged;
  std::vector<uint64_t> lane_nanos(lanes, 0);
  for (size_t i = 0; i < blob_ops.size(); ++i) {
    merged = merged + deltas[i];
    lane_nanos[i % lanes] += costs[i];
  }
  uint64_t charge =
      *std::max_element(lane_nanos.begin(), lane_nanos.end()) +
      options_.dispatch_nanos_per_op * static_cast<uint64_t>(blob_ops.size());
  file_store_->MergeBatch(merged, charge);

  // First failure in staging order aborts the batch before the document
  // phase.
  for (const Status& status : statuses) {
    MMM_RETURN_NOT_OK(status);
  }

  // Document inserts model a single serialized metadata-store connection.
  for (StagedOp& op : ops_) {
    if (op.kind != OpKind::kDocInsert && op.kind != OpKind::kDocReplace) {
      continue;
    }
    MMM_RETURN_NOT_OK(ApplyDocOp(op));
  }
  // Blob retirements run last so a failure above leaves them untouched.
  for (StagedOp& op : ops_) {
    if (op.kind != OpKind::kBlobDelete) continue;
    MMM_RETURN_NOT_OK(file_store_->Delete(op.name));
  }
  return Status::OK();
}

Status StoreBatch::WriteBlobs(const std::vector<size_t>& blob_ops,
                              size_t lanes) {
  if (lanes <= 1) {
    // Serial writes arrive in staging order, so no tagging is needed for
    // the fault-injection numbering to match the parallel path's.
    for (size_t index : blob_ops) {
      StagedOp& op = ops_[index];
      MMM_RETURN_NOT_OK(file_store_->Put(op.name, op.data));
    }
    return Status::OK();
  }

  std::vector<Status> statuses(blob_ops.size());
  std::vector<uint64_t> costs(blob_ops.size(), 0);
  std::vector<StoreStats> deltas(blob_ops.size());
  WriteOrderGroup group(blob_ops.size());
  executor_->ParallelFor(blob_ops.size(), [&](size_t i) {
    StagedOp& op = ops_[blob_ops[i]];
    ScopedWriteOrderTag tag(&group, i);
    statuses[i] =
        file_store_->PutDetached(op.name, op.data, &deltas[i], &costs[i]);
  });

  StoreStats merged;
  std::vector<uint64_t> lane_nanos(lanes, 0);
  for (size_t i = 0; i < blob_ops.size(); ++i) {
    merged = merged + deltas[i];
    lane_nanos[i % lanes] += costs[i];
  }
  uint64_t charge =
      *std::max_element(lane_nanos.begin(), lane_nanos.end()) +
      options_.dispatch_nanos_per_op * static_cast<uint64_t>(blob_ops.size());
  file_store_->MergeBatch(merged, charge);

  for (const Status& status : statuses) {
    MMM_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

Status StoreBatch::CommitJournaled(size_t lanes) {
  // Phase 1 — produce every blob payload up front. A failed encode aborts
  // before anything (journal included) is touched, and the begin record can
  // declare the exact CRC of every payload about to be written.
  std::vector<size_t> blob_ops;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kBlobWrite) blob_ops.push_back(i);
  }
  std::vector<Status> produced(blob_ops.size());
  auto produce = [&](size_t i) {
    StagedOp& op = ops_[blob_ops[i]];
    if (op.producer == nullptr) return;
    Result<std::vector<uint8_t>> result = op.producer();
    if (!result.ok()) {
      produced[i] = std::move(result).status();
      return;
    }
    op.data = std::move(result).ValueOrDie();
    op.producer = nullptr;
  };
  if (lanes > 1) {
    executor_->ParallelFor(blob_ops.size(), produce);
  } else {
    for (size_t i = 0; i < blob_ops.size(); ++i) produce(i);
  }
  for (const Status& status : produced) {
    MMM_RETURN_NOT_OK(status);
  }

  // Phase 2 — declare every intended side effect before causing any.
  std::vector<CommitJournal::BlobIntent> blob_intents;
  blob_intents.reserve(blob_ops.size());
  for (size_t index : blob_ops) {
    blob_intents.push_back(
        {ops_[index].name, Crc32::Compute(ops_[index].data)});
  }
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
  MMM_ASSIGN_OR_RETURN(uint64_t txn,
                       journal_->Begin(set_id_, approach_,
                                       std::move(blob_intents),
                                       std::move(doc_intents),
                                       std::move(delete_intents)));

  // Phase 3 — blob writes. On failure the entry stays uncommitted and the
  // next open rolls back whatever landed; no in-process cleanup, so a crash
  // anywhere in here exercises exactly the recovery path.
  MMM_RETURN_NOT_OK(WriteBlobs(blob_ops, lanes));

  // Phase 4 — the atomicity point: from here on, recovery rolls forward.
  MMM_RETURN_NOT_OK(journal_->MarkCommitted(txn));

  // Phase 5 — document inserts and replaces, serial in staging order (one
  // metadata-store connection). Idempotently completed by replay if
  // interrupted (replaces upsert; see journal.h).
  for (StagedOp& op : ops_) {
    if (op.kind != OpKind::kDocInsert && op.kind != OpKind::kDocReplace) {
      continue;
    }
    MMM_RETURN_NOT_OK(ApplyDocOp(op));
  }

  // Phase 5b — retire superseded blobs, now that no live document references
  // them. Replay re-issues these after the commit mark, so a crash anywhere
  // in here still converges to all deletes applied.
  for (StagedOp& op : ops_) {
    if (op.kind != OpKind::kBlobDelete) continue;
    MMM_RETURN_NOT_OK(file_store_->Delete(op.name));
  }

  // Phase 6 — retire the entry. If this last append fails the save reports
  // an error, but the store already holds the full commit (replay verifies
  // and re-finishes it) — the "acknowledgement lost" outcome.
  return journal_->MarkFinished(txn);
}

}  // namespace mmm
