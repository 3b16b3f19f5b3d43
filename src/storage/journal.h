#ifndef MMM_STORAGE_JOURNAL_H_
#define MMM_STORAGE_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serialize/json.h"
#include "storage/document_store.h"
#include "storage/env.h"
#include "storage/file_store.h"

namespace mmm {

/// \brief Outcome of replaying the commit journal at open time.
struct RepairReport {
  /// Unfinished journal entries found (each is a save interrupted mid-commit).
  size_t entries_scanned = 0;
  /// Entries that never reached their commit mark: artifacts rolled back.
  size_t rolled_back = 0;
  /// Committed entries whose document inserts were completed idempotently.
  size_t completed = 0;
  size_t blobs_deleted = 0;
  size_t docs_removed = 0;
  size_t docs_inserted = 0;
  /// Inconsistencies replay could not repair (empty = store healthy).
  std::vector<std::string> problems;

  bool clean() const { return problems.empty(); }
  bool repaired_anything() const { return rolled_back > 0 || completed > 0; }
};

/// \brief Write-ahead intent log that makes StoreBatch commits atomic.
///
/// Every journaled commit appends two records to a JSON-lines log (one
/// object per line, like the document store's WAL):
///
///   {"txn":N,"state":"begin","set_id":...,"approach":...,
///    "blobs":[{"name":...}],"docs":[{"collection":...,"doc":...}],
///    "deletes":[...]}
///   {"txn":N,"state":"commit","blobs":[{"name":...,"crc":...}]}
///
/// The `begin` record declares every side effect of the commit before any of
/// them happens: the names of every blob the commit may write (a CAS
/// commit's pack name is reserved up front and may stay unused), the
/// metadata documents about to be inserted (or, with `"replace":true`,
/// overwritten in place), and the blobs the commit retires once it is
/// durable (`deletes`, written only when non-empty — used by the chain
/// compactor to hand superseded delta blobs to GC atomically with the
/// metadata rewrite). Blobs are streamed, so their CRCs are known only once
/// written: `commit` lists each blob that landed with the CRC32 folded as
/// its bytes passed to the store. `commit` is the atomicity point — it is
/// appended after all blob writes succeed and before the first document
/// insert. Once the entry is fully applied, including the retirement
/// deletes, MarkFinished rewrites the log to hold only the `begin`/`commit`
/// records of the entries still pending. The log thus stays bounded by the
/// pending entries (the commits in flight plus any a failed save left
/// behind) rather than growing with every commit for the life of the
/// process.
///
/// Logs written by older versions carry each blob's CRC in `begin`
/// (`{"name":...,"crc":...}`) and a `commit` record without blobs; every
/// declared blob then counts as landed with that CRC. They may also hold
/// `{"txn":N,"state":"finish"}` records; Open drops the entry they name.
///
/// Replay() turns a crash at any point into rollback-or-commit:
///  - entries without a `commit` mark are rolled back (declared blobs
///    deleted, by name, any listed insert documents defensively removed;
///    replace intents keep their old live document and retirement deletes
///    never run) — the save never happened;
///  - pending entries with `commit` are completed by idempotently inserting
///    (or upserting, for replace intents) the listed documents, after
///    verifying the blobs that landed exist with their recorded CRCs, and
///    by re-issuing the retirement deletes — the save fully happened.
///
/// A torn final line (crash mid-append) is dropped, exactly like the document
/// store's WAL: the record was never acknowledged, so the entry it would have
/// started never began. Journal appends go straight through Env and charge
/// nothing to the stores' statistics or the simulated clock — the journal is
/// infrastructure, not part of the modeled storage cost.
///
/// Thread safety: Begin/MarkCommitted/MarkFinished serialize on an internal
/// mutex (batches commit one at a time, but from any thread). Open/Replay are
/// single-threaded open-time operations.
class CommitJournal {
 public:
  /// One blob the commit may write. `cas_chunk` (serialized as
  /// `"cas":true`) marks a blob rollback must
  /// NOT delete because other commits may share it. Only journals of the
  /// retired per-chunk-file CAS layout carry it — each of its `cas-<hex>`
  /// chunk files could back manifests an earlier commit made durable — and
  /// replay still honours it for those. CAS pack blobs are unique to their
  /// commit, so they are journaled as ordinary blobs (see cas/pack.h).
  struct BlobIntent {
    std::string name;
    bool cas_chunk = false;
  };
  /// One blob the commit wrote, with the CRC32 of its stored bytes.
  struct LandedBlob {
    std::string name;
    uint32_t crc = 0;
  };
  /// One document the commit is about to insert. When `replace` is set the
  /// commit overwrites an existing document under the same `_id` (remove +
  /// insert after the commit mark): rollback must then leave the old
  /// document alone — it is still the live version — and roll-forward
  /// upserts the new body idempotently.
  struct DocIntent {
    std::string collection;
    JsonValue doc;
    bool replace = false;
  };

  CommitJournal(Env* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  /// Loads any existing journal file; unfinished entries become pending and
  /// wait for Replay(). Tolerates a torn trailing record.
  Status Open();

  /// Repairs the stores as described above, then truncates the journal.
  /// Call once after Open(), after the stores themselves are open.
  Result<RepairReport> Replay(FileStore* file_store, DocumentStore* doc_store);

  /// Appends the `begin` record and returns the transaction id. `deletes`
  /// names blobs the commit retires after its documents are durable; they
  /// are executed only on the committed path (in the commit itself or by
  /// roll-forward), never on rollback.
  Result<uint64_t> Begin(const std::string& set_id, const std::string& approach,
                         std::vector<BlobIntent> blobs,
                         std::vector<DocIntent> docs,
                         std::vector<std::string> deletes = {});
  /// Appends the `commit` record: the blobs in `landed`, each a declared
  /// one, are durable with those CRCs, and the commit wrote no other blob.
  Status MarkCommitted(uint64_t txn, std::vector<LandedBlob> landed = {});
  /// All document inserts are durable: drops the entry and rewrites the log
  /// with the records of the entries still pending (empty if none).
  Status MarkFinished(uint64_t txn);

  /// Blob names claimed by unfinished entries. GC must treat these as live:
  /// they belong to an in-flight or crashed commit whose fate the next
  /// Replay() decides.
  std::vector<std::string> PendingBlobs() const;

  /// Number of unfinished entries.
  size_t pending_entries() const;

  const std::string& path() const { return path_; }

 private:
  struct Entry {
    uint64_t txn = 0;
    std::string set_id;
    std::string approach;
    std::vector<BlobIntent> blobs;
    /// Set by the commit mark (or, in older logs, by `begin`).
    std::vector<LandedBlob> landed;
    std::vector<DocIntent> docs;
    std::vector<std::string> deletes;
    bool committed = false;
  };

  static JsonValue BeginRecord(const Entry& entry);
  static JsonValue CommitRecord(const Entry& entry);
  /// One record as a log line: its JSON plus the newline.
  static std::string Line(const JsonValue& record);
  /// Serializes one record to the log through the Env. Touches no journal
  /// state, but runs under mu_ so records land in txn order.
  Status AppendRecord(const JsonValue& record);
  Entry* FindEntry(uint64_t txn) MMM_REQUIRES(mu_);

  Env* env_;
  std::string path_;
  mutable Mutex mu_ MMM_LOCK_RANK(120);
  uint64_t next_txn_ MMM_GUARDED_BY(mu_) = 1;
  /// Unfinished entries in begin order; finished entries are dropped.
  std::vector<Entry> entries_ MMM_GUARDED_BY(mu_);
};

}  // namespace mmm

#endif  // MMM_STORAGE_JOURNAL_H_
