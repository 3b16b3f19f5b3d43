#include "storage/journal.h"

#include <algorithm>

#include "serialize/crc32.h"

namespace mmm {

namespace {

Result<CommitJournal::LandedBlob> ParseLandedBlob(const JsonValue& blob) {
  CommitJournal::LandedBlob landed;
  MMM_ASSIGN_OR_RETURN(landed.name, blob.GetString("name"));
  MMM_ASSIGN_OR_RETURN(int64_t crc, blob.GetInt64("crc"));
  landed.crc = static_cast<uint32_t>(crc);
  return landed;
}

}  // namespace

Status CommitJournal::Open() {
  MutexLock lock(mu_);
  entries_.clear();
  next_txn_ = 1;
  MMM_ASSIGN_OR_RETURN(bool exists, env_->FileExists(path_));
  if (!exists) return Status::OK();
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, env_->ReadFile(path_));
  std::string_view text(reinterpret_cast<const char*>(raw.data()), raw.size());
  size_t start = 0;
  size_t line_no = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    bool torn_tail = end == std::string_view::npos;
    if (torn_tail) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    auto parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      if (torn_tail) {
        // A crash mid-append leaves one incomplete record at the end of the
        // log. It was never acknowledged, so whatever it would have recorded
        // never took effect — drop it.
        break;
      }
      return parsed.status().WithContext("commit journal line ", line_no);
    }
    JsonValue record = std::move(parsed).ValueOrDie();
    MMM_ASSIGN_OR_RETURN(int64_t txn_signed, record.GetInt64("txn"));
    uint64_t txn = static_cast<uint64_t>(txn_signed);
    next_txn_ = std::max(next_txn_, txn + 1);
    MMM_ASSIGN_OR_RETURN(std::string state, record.GetString("state"));
    if (state == "begin") {
      Entry entry;
      entry.txn = txn;
      entry.set_id = record.GetStringOr("set_id", "");
      entry.approach = record.GetStringOr("approach", "");
      MMM_ASSIGN_OR_RETURN(const JsonValue* blobs, record.Get("blobs"));
      for (const JsonValue& blob : blobs->array_items()) {
        BlobIntent intent;
        MMM_ASSIGN_OR_RETURN(intent.name, blob.GetString("name"));
        if (blob.Has("crc")) {
          // An older log: the CRC of a blob about to be written.
          MMM_ASSIGN_OR_RETURN(LandedBlob landed, ParseLandedBlob(blob));
          entry.landed.push_back(std::move(landed));
        }
        if (blob.Has("cas")) {
          MMM_ASSIGN_OR_RETURN(intent.cas_chunk, blob.GetBool("cas"));
        }
        entry.blobs.push_back(std::move(intent));
      }
      MMM_ASSIGN_OR_RETURN(const JsonValue* docs, record.Get("docs"));
      for (const JsonValue& doc : docs->array_items()) {
        DocIntent intent;
        MMM_ASSIGN_OR_RETURN(intent.collection, doc.GetString("collection"));
        MMM_ASSIGN_OR_RETURN(const JsonValue* body, doc.Get("doc"));
        intent.doc = *body;
        if (doc.Has("replace")) {
          MMM_ASSIGN_OR_RETURN(intent.replace, doc.GetBool("replace"));
        }
        entry.docs.push_back(std::move(intent));
      }
      if (record.Has("deletes")) {
        MMM_ASSIGN_OR_RETURN(const JsonValue* deletes, record.Get("deletes"));
        for (const JsonValue& name : deletes->array_items()) {
          MMM_ASSIGN_OR_RETURN(std::string blob_name, name.AsString());
          entry.deletes.push_back(std::move(blob_name));
        }
      }
      entries_.push_back(std::move(entry));
    } else if (state == "commit") {
      Entry* entry = FindEntry(txn);
      if (entry == nullptr) {
        return Status::Corruption("commit journal line ", line_no,
                                  ": commit mark for unknown txn ", txn);
      }
      entry->committed = true;
      if (record.Has("blobs")) {
        MMM_ASSIGN_OR_RETURN(const JsonValue* blobs, record.Get("blobs"));
        entry->landed.clear();
        for (const JsonValue& blob : blobs->array_items()) {
          MMM_ASSIGN_OR_RETURN(LandedBlob landed, ParseLandedBlob(blob));
          entry->landed.push_back(std::move(landed));
        }
      }
    } else if (state == "finish") {
      std::erase_if(entries_, [txn](const Entry& e) { return e.txn == txn; });
    } else {
      return Status::Corruption("commit journal line ", line_no,
                                ": unknown state '", state, "'");
    }
  }
  return Status::OK();
}

Result<RepairReport> CommitJournal::Replay(FileStore* file_store,
                                           DocumentStore* doc_store) {
  MutexLock lock(mu_);
  RepairReport report;
  for (const Entry& entry : entries_) {
    ++report.entries_scanned;
    if (!entry.committed) {
      // The commit mark never made it: the save failed. Undo whatever subset
      // of its declared side effects landed. Blob deletes are idempotent;
      // documents cannot normally exist yet (inserts start only after the
      // commit mark) but are removed defensively — except replace intents,
      // whose pre-existing document is the live version and must survive.
      // Retirement deletes (entry.deletes) never ran and never will.
      // Legacy chunk-file intents are skipped: the chunk may be shared
      // with a committed manifest, and if not, the CAS migration right
      // after this replay reclaims it (see BlobIntent::cas_chunk).
      for (const BlobIntent& blob : entry.blobs) {
        if (blob.cas_chunk) continue;
        auto exists = file_store->Exists(blob.name);
        if (exists.ok() && exists.ValueOrDie()) {
          MMM_RETURN_NOT_OK(file_store->Delete(blob.name));
          ++report.blobs_deleted;
        }
      }
      for (const DocIntent& doc : entry.docs) {
        if (doc.replace) continue;
        auto id = doc.doc.GetString("_id");
        if (!id.ok()) continue;
        if (doc_store->Get(doc.collection, id.ValueOrDie()).ok()) {
          MMM_RETURN_NOT_OK(doc_store->Remove(doc.collection, id.ValueOrDie()));
          ++report.docs_removed;
        }
      }
      ++report.rolled_back;
      continue;
    }
    // Committed: every blob that landed is durable; roll the entry forward
    // by inserting whichever declared documents are still missing.
    for (const LandedBlob& blob : entry.landed) {
      auto data = file_store->Get(blob.name);
      if (!data.ok()) {
        report.problems.push_back("committed txn " + std::to_string(entry.txn) +
                                  " (set " + entry.set_id + "): blob '" +
                                  blob.name + "' is missing");
        continue;
      }
      if (Crc32::Compute(data.ValueOrDie()) != blob.crc) {
        report.problems.push_back("committed txn " + std::to_string(entry.txn) +
                                  " (set " + entry.set_id + "): blob '" +
                                  blob.name + "' fails its journaled crc");
      }
    }
    for (const DocIntent& doc : entry.docs) {
      MMM_ASSIGN_OR_RETURN(std::string id, doc.doc.GetString("_id"));
      auto existing = doc_store->Get(doc.collection, id);
      if (existing.ok()) {
        // Replace intents upsert: an identical body means the replace
        // already landed; a different body is the old version, still
        // awaiting the rewrite. Plain inserts are simply already done.
        if (!doc.replace || existing.ValueOrDie() == doc.doc) continue;
        MMM_RETURN_NOT_OK(doc_store->Remove(doc.collection, id));
        ++report.docs_removed;
      }
      MMM_RETURN_NOT_OK(doc_store->Insert(doc.collection, doc.doc));
      ++report.docs_inserted;
    }
    for (const std::string& name : entry.deletes) {
      auto exists = file_store->Exists(name);
      if (exists.ok() && exists.ValueOrDie()) {
        MMM_RETURN_NOT_OK(file_store->Delete(name));
        ++report.blobs_deleted;
      }
    }
    ++report.completed;
  }
  entries_.clear();
  next_txn_ = 1;
  MMM_ASSIGN_OR_RETURN(bool exists, env_->FileExists(path_));
  if (exists) {
    MMM_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path_));
    if (size > 0) {
      MMM_RETURN_NOT_OK(env_->WriteFile(path_, {}));
    }
  }
  return report;
}

Result<uint64_t> CommitJournal::Begin(const std::string& set_id,
                                      const std::string& approach,
                                      std::vector<BlobIntent> blobs,
                                      std::vector<DocIntent> docs,
                                      std::vector<std::string> deletes) {
  MutexLock lock(mu_);
  Entry entry;
  entry.txn = next_txn_++;
  entry.set_id = set_id;
  entry.approach = approach;
  entry.blobs = std::move(blobs);
  entry.docs = std::move(docs);
  entry.deletes = std::move(deletes);
  MMM_RETURN_NOT_OK(AppendRecord(BeginRecord(entry)));
  entries_.push_back(std::move(entry));
  return entries_.back().txn;
}

Status CommitJournal::MarkCommitted(uint64_t txn,
                                    std::vector<LandedBlob> landed) {
  MutexLock lock(mu_);
  Entry* entry = FindEntry(txn);
  if (entry == nullptr) {
    return Status::InvalidArgument("commit journal has no pending txn ", txn);
  }
  entry->landed = std::move(landed);
  Status appended = AppendRecord(CommitRecord(*entry));
  if (!appended.ok()) {
    entry->landed.clear();
    return appended;
  }
  entry->committed = true;
  return Status::OK();
}

Status CommitJournal::MarkFinished(uint64_t txn) {
  MutexLock lock(mu_);
  if (FindEntry(txn) == nullptr) {
    return Status::InvalidArgument("commit journal has no pending txn ", txn);
  }
  // Every record of a finished entry is dead, so the log is rewritten to
  // hold only the records of the entries still pending, in place of a
  // finish record. Without this only Replay() at open shrinks it, and an
  // entry a failed save left pending would keep the log growing. A crash
  // before the rewrite lands leaves this entry committed-but-unfinished in
  // the old log, which replay completes idempotently. That takes a rewrite
  // that lands whole or not at all, as Env's crash model has it; a torn
  // one on a real filesystem could drop a pending entry (ROADMAP item 1).
  std::string text;
  for (const Entry& entry : entries_) {
    if (entry.txn == txn) continue;
    text += Line(BeginRecord(entry));
    if (entry.committed) text += Line(CommitRecord(entry));
  }
  MMM_RETURN_NOT_OK(env_->WriteFile(
      path_, std::span<const uint8_t>(
                 reinterpret_cast<const uint8_t*>(text.data()), text.size())));
  std::erase_if(entries_, [txn](const Entry& e) { return e.txn == txn; });
  return Status::OK();
}

std::vector<std::string> CommitJournal::PendingBlobs() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const Entry& entry : entries_) {
    for (const BlobIntent& blob : entry.blobs) names.push_back(blob.name);
  }
  return names;
}

size_t CommitJournal::pending_entries() const {
  MutexLock lock(mu_);
  return entries_.size();
}

JsonValue CommitJournal::BeginRecord(const Entry& entry) {
  JsonValue record = JsonValue::Object();
  record.Set("txn", entry.txn);
  record.Set("state", "begin");
  record.Set("set_id", entry.set_id);
  record.Set("approach", entry.approach);
  JsonValue blob_array = JsonValue::Array();
  for (const BlobIntent& blob : entry.blobs) {
    JsonValue intent = JsonValue::Object();
    intent.Set("name", blob.name);
    if (blob.cas_chunk) intent.Set("cas", true);
    blob_array.Append(std::move(intent));
  }
  record.Set("blobs", std::move(blob_array));
  JsonValue doc_array = JsonValue::Array();
  for (const DocIntent& doc : entry.docs) {
    JsonValue intent = JsonValue::Object();
    intent.Set("collection", doc.collection);
    intent.Set("doc", doc.doc);
    if (doc.replace) intent.Set("replace", true);
    doc_array.Append(std::move(intent));
  }
  record.Set("docs", std::move(doc_array));
  if (!entry.deletes.empty()) {
    JsonValue delete_array = JsonValue::Array();
    for (const std::string& name : entry.deletes) delete_array.Append(name);
    record.Set("deletes", std::move(delete_array));
  }
  return record;
}

JsonValue CommitJournal::CommitRecord(const Entry& entry) {
  JsonValue record = JsonValue::Object();
  record.Set("txn", entry.txn);
  record.Set("state", "commit");
  JsonValue blob_array = JsonValue::Array();
  for (const LandedBlob& blob : entry.landed) {
    JsonValue landed = JsonValue::Object();
    landed.Set("name", blob.name);
    landed.Set("crc", static_cast<int64_t>(blob.crc));
    blob_array.Append(std::move(landed));
  }
  record.Set("blobs", std::move(blob_array));
  return record;
}

std::string CommitJournal::Line(const JsonValue& record) {
  std::string line = record.Dump();
  line.push_back('\n');
  return line;
}

Status CommitJournal::AppendRecord(const JsonValue& record) {
  std::string line = Line(record);
  return env_->AppendToFile(
      path_, std::span<const uint8_t>(
                 reinterpret_cast<const uint8_t*>(line.data()), line.size()));
}

CommitJournal::Entry* CommitJournal::FindEntry(uint64_t txn) {
  for (Entry& entry : entries_) {
    if (entry.txn == txn) return &entry;
  }
  return nullptr;
}

}  // namespace mmm
