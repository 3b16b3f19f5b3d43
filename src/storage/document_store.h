#ifndef MMM_STORAGE_DOCUMENT_STORE_H_
#define MMM_STORAGE_DOCUMENT_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serialize/json.h"
#include "storage/env.h"
#include "storage/latency_model.h"
#include "storage/store_stats.h"

namespace mmm {

/// \brief Embedded persistent JSON document store (the "metadata store").
///
/// Plays the role MongoDB plays in MMlib's architecture: approaches insert
/// per-model or per-set metadata documents into named collections and query
/// them back by id or by field equality. Documents are persisted through an
/// append-only JSON-lines write-ahead log and re-loaded on Open(), so a store
/// instance can be closed and reopened without losing data.
///
/// Every Insert/Get/Find charges the configured latency model once — this is
/// what makes MMlib-base's "one insert per model" pattern visibly expensive,
/// exactly as in the paper's evaluation.
///
/// Thread-safe: queries share one reader/writer lock and mutations take it
/// exclusively, so a save may commit beside concurrent recoveries. The lock
/// is held across the WAL append, which keeps log order equal to the order
/// in which the in-memory state changed.
class DocumentStore {
 public:
  DocumentStore(Env* env, std::string wal_path, StoreLatencyModel latency = {},
                SimulatedClock* sim_clock = nullptr);

  /// Loads any existing WAL.
  Status Open();

  /// Inserts a document. `doc` must be an object with a string "_id" member
  /// that is unique within the collection.
  Status Insert(const std::string& collection, const JsonValue& doc);

  /// Removes a document by id. Durable via a tombstone record in the WAL
  /// (the log stays append-only). NotFound if absent.
  Status Remove(const std::string& collection, const std::string& id);

  /// Rewrites the WAL from the live state, dropping tombstones and the
  /// records they shadow. Long-running stores call this periodically to
  /// bound log growth after deletions.
  Status Compact();

  /// Current size of the WAL file in bytes (0 if it does not exist yet).
  Result<uint64_t> WalBytes() const;

  /// Fetches a document by id.
  Result<JsonValue> Get(const std::string& collection, const std::string& id) const;

  /// Returns all documents whose `field` member equals `value` (string
  /// comparison), in insertion order.
  Result<std::vector<JsonValue>> Find(const std::string& collection,
                                      const std::string& field,
                                      const JsonValue& value) const;

  /// Returns all documents of a collection in insertion order.
  Result<std::vector<JsonValue>> All(const std::string& collection) const;

  /// Number of documents in a collection (0 if the collection is unknown).
  size_t Count(const std::string& collection) const;

  /// Snapshot of the operation counters. Accounting is atomic, so the
  /// snapshot is race-free even while other threads query the store.
  StoreStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  /// Names of all collections, sorted.
  std::vector<std::string> Collections() const;

 private:
  void Charge(uint64_t bytes) const;
  void RemoveAt(const std::string& collection, size_t position)
      MMM_REQUIRES(mu_);

  Env* env_;
  std::string wal_path_;
  StoreLatencyModel latency_;
  SimulatedClock* sim_clock_;
  mutable AtomicStoreStats stats_;
  // Callers may hold the CAS, journal or executor locks (110-130); the
  // store calls into the Env, whose locks (140/150) nest inside this one.
  mutable SharedMutex mu_ MMM_LOCK_RANK(135);
  /// A document and the size of its Dump(), which every query charges.
  struct StoredDocument {
    JsonValue doc;
    uint64_t bytes = 0;
  };
  // collection -> ordered documents; ids index into the vector.
  std::map<std::string, std::vector<StoredDocument>> collections_
      MMM_GUARDED_BY(mu_);
  std::map<std::string, std::map<std::string, size_t>> id_index_
      MMM_GUARDED_BY(mu_);
};

}  // namespace mmm

#endif  // MMM_STORAGE_DOCUMENT_STORE_H_
