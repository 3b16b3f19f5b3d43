#include "storage/document_store.h"

namespace mmm {

DocumentStore::DocumentStore(Env* env, std::string wal_path,
                             StoreLatencyModel latency, SimulatedClock* sim_clock)
    : env_(env),
      wal_path_(std::move(wal_path)),
      latency_(latency),
      sim_clock_(sim_clock) {}

void DocumentStore::Charge(uint64_t bytes) const {
  if (sim_clock_ != nullptr) sim_clock_->Advance(latency_.CostNanos(bytes));
}

Status DocumentStore::Open() {
  WriterMutexLock lock(mu_);
  MMM_ASSIGN_OR_RETURN(bool exists, env_->FileExists(wal_path_));
  if (!exists) return Status::OK();
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, env_->ReadFile(wal_path_));
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
        // A crash mid-append leaves one incomplete record at the very end
        // of the log; everything before it is intact, so recovery simply
        // drops the torn tail (it was never acknowledged as written).
        break;
      }
      return parsed.status().WithContext("document store WAL line ", line_no);
    }
    JsonValue record = std::move(parsed).ValueOrDie();
    MMM_ASSIGN_OR_RETURN(std::string collection, record.GetString("collection"));
    if (record.Has("tombstone")) {
      MMM_ASSIGN_OR_RETURN(std::string id, record.GetString("tombstone"));
      auto coll_it = id_index_.find(collection);
      if (coll_it != id_index_.end()) {
        auto doc_it = coll_it->second.find(id);
        if (doc_it != coll_it->second.end()) {
          RemoveAt(collection, doc_it->second);
        }
      }
      continue;
    }
    MMM_ASSIGN_OR_RETURN(const JsonValue* doc, record.Get("doc"));
    MMM_ASSIGN_OR_RETURN(std::string id, doc->GetString("_id"));
    auto& docs = collections_[collection];
    id_index_[collection][id] = docs.size();
    docs.push_back({*doc, doc->Dump().size()});
  }
  return Status::OK();
}

Status DocumentStore::Insert(const std::string& collection, const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("document must be a json object");
  }
  auto id_result = doc.GetString("_id");
  if (!id_result.ok()) {
    return Status::InvalidArgument("document must have a string _id member");
  }
  const std::string id = id_result.ValueOrDie();
  JsonValue record = JsonValue::Object();
  record.Set("collection", collection);
  record.Set("doc", doc);
  std::string line = record.Dump();
  line.push_back('\n');
  const uint64_t doc_bytes = doc.Dump().size();

  {
    WriterMutexLock lock(mu_);
    auto& index = id_index_[collection];
    if (index.contains(id)) {
      return Status::AlreadyExists("document '", id,
                                   "' already in collection '", collection,
                                   "'");
    }
    MMM_RETURN_NOT_OK(env_->AppendToFile(
        wal_path_,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(line.data()),
                                 line.size())));
    auto& docs = collections_[collection];
    index[id] = docs.size();
    docs.push_back({doc, doc_bytes});
  }

  stats_.AddWrite(line.size());
  Charge(line.size());
  return Status::OK();
}

void DocumentStore::RemoveAt(const std::string& collection, size_t position) {
  auto& docs = collections_[collection];
  auto& index = id_index_[collection];
  // Erase and re-index the documents that shifted left.
  std::string removed_id = docs[position].doc.GetString("_id").ValueOrDie();
  docs.erase(docs.begin() + static_cast<ptrdiff_t>(position));
  index.erase(removed_id);
  for (auto& [id, pos] : index) {
    if (pos > position) --pos;
  }
}

Status DocumentStore::Remove(const std::string& collection,
                             const std::string& id) {
  JsonValue record = JsonValue::Object();
  record.Set("collection", collection);
  record.Set("tombstone", id);
  std::string line = record.Dump();
  line.push_back('\n');

  {
    WriterMutexLock lock(mu_);
    auto coll_it = id_index_.find(collection);
    if (coll_it == id_index_.end() || !coll_it->second.contains(id)) {
      return Status::NotFound("no document '", id, "' in collection '",
                              collection, "'");
    }
    MMM_RETURN_NOT_OK(env_->AppendToFile(
        wal_path_,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(line.data()),
                                 line.size())));
    RemoveAt(collection, coll_it->second.at(id));
  }

  stats_.AddWrite(line.size());
  Charge(line.size());
  return Status::OK();
}

Status DocumentStore::Compact() {
  WriterMutexLock lock(mu_);
  std::string rewritten;
  for (const auto& [collection, docs] : collections_) {
    for (const StoredDocument& stored : docs) {
      JsonValue record = JsonValue::Object();
      record.Set("collection", collection);
      record.Set("doc", stored.doc);
      rewritten += record.Dump();
      rewritten.push_back('\n');
    }
  }
  return env_->WriteFile(
      wal_path_, std::span<const uint8_t>(
                     reinterpret_cast<const uint8_t*>(rewritten.data()),
                     rewritten.size()));
}

Result<uint64_t> DocumentStore::WalBytes() const {
  MMM_ASSIGN_OR_RETURN(bool exists, env_->FileExists(wal_path_));
  if (!exists) return uint64_t{0};
  return env_->FileSize(wal_path_);
}

Result<JsonValue> DocumentStore::Get(const std::string& collection,
                                     const std::string& id) const {
  StoredDocument found;
  {
    ReaderMutexLock lock(mu_);
    auto coll_it = id_index_.find(collection);
    if (coll_it == id_index_.end()) {
      return Status::NotFound("no collection '", collection, "'");
    }
    auto doc_it = coll_it->second.find(id);
    if (doc_it == coll_it->second.end()) {
      return Status::NotFound("no document '", id, "' in collection '",
                              collection, "'");
    }
    found = collections_.at(collection)[doc_it->second];
  }
  stats_.AddRead(found.bytes);
  Charge(found.bytes);
  return std::move(found.doc);
}

Result<std::vector<JsonValue>> DocumentStore::Find(const std::string& collection,
                                                   const std::string& field,
                                                   const JsonValue& value) const {
  std::vector<JsonValue> matches;
  uint64_t bytes = 0;
  {
    ReaderMutexLock lock(mu_);
    auto coll_it = collections_.find(collection);
    if (coll_it == collections_.end()) {
      return Status::NotFound("no collection '", collection, "'");
    }
    for (const StoredDocument& stored : coll_it->second) {
      auto member = stored.doc.Get(field);
      if (member.ok() && *member.ValueOrDie() == value) {
        matches.push_back(stored.doc);
        bytes += stored.bytes;
      }
    }
  }
  stats_.AddRead(bytes);
  Charge(bytes);
  return matches;
}

Result<std::vector<JsonValue>> DocumentStore::All(
    const std::string& collection) const {
  std::vector<JsonValue> docs;
  uint64_t bytes = 0;
  {
    ReaderMutexLock lock(mu_);
    auto coll_it = collections_.find(collection);
    if (coll_it == collections_.end()) {
      return Status::NotFound("no collection '", collection, "'");
    }
    docs.reserve(coll_it->second.size());
    for (const StoredDocument& stored : coll_it->second) {
      docs.push_back(stored.doc);
      bytes += stored.bytes;
    }
  }
  stats_.AddRead(bytes);
  Charge(bytes);
  return docs;
}

size_t DocumentStore::Count(const std::string& collection) const {
  ReaderMutexLock lock(mu_);
  auto coll_it = collections_.find(collection);
  return coll_it == collections_.end() ? 0 : coll_it->second.size();
}

std::vector<std::string> DocumentStore::Collections() const {
  ReaderMutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, _] : collections_) names.push_back(name);
  return names;
}

}  // namespace mmm
