#ifndef MMM_CAS_CAS_STORE_H_
#define MMM_CAS_CAS_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cas/chunker.h"
#include "cas/manifest.h"
#include "cas/pack.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/cas_iface.h"
#include "storage/env.h"
#include "storage/file_store.h"
#include "storage/journal.h"

namespace mmm {

/// \brief The content-addressed chunk store's index (DESIGN.md §10).
///
/// Layered between the approaches and FileStore: save paths hand their blob
/// payloads to a per-commit CasWriteSession (see storage/cas_iface.h) which
/// splits eligible ones into content-defined chunks and stores a small
/// manifest under the original blob name. The chunks no earlier commit
/// stored go, back to back, into one immutable pack blob per commit
/// (`pack-<id>`, cas/pack.h), whose trailing index lists each chunk's
/// hash, length and CRC. Reads reassemble bit-exactly through ranged
/// streams over the few packs a manifest needs (cas/blob_io.h). This index
/// tracks, across *all* sets, how many live manifest references each chunk
/// has and where its bytes are, so GC is a decrement-then-sweep instead of
/// a store-wide liveness scan.
///
/// Chunk locations: a chunk lives at the copy of the first commit that
/// made it durable; a copy another session wrote concurrently is dead
/// bytes. When a pack's live chunk bytes drop below half of its chunk
/// bytes (kRepackLiveFraction), the sweep copies its live chunks into a new
/// pack and deletes it; a pack with no live chunk is deleted outright.
///
/// Durability model: the store itself is the root of trust. Pack and
/// manifest writes ride inside journaled StoreBatch commits; a pack is
/// unique to its commit, so rollback deletes it, and a rolled-back pack is
/// never referenced. Repack writes its pack through its own journaled
/// commit. Open() rebuilds the index from the live manifests and the packs'
/// indexes after journal replay (where two packs hold a chunk, the newer
/// pack's copy wins, which rolls an interrupted repack forward), deletes
/// packs holding no referenced chunk, and packs the `cas-<hex>` chunk
/// files of an older store into one pack (see kCasChunkPrefix). The
/// checkpoint file (`cas.index`, written through Env like the journal,
/// charging nothing to the modeled store costs) is an audited cache: fsck
/// recomputes the index from the store and flags any divergence from
/// memory or checkpoint.
///
/// Invariants (audited by fsck / `mmmctl cas-stats`):
///  - every chunk a live manifest references has a location in a pack, its
///    length matches the manifest entry, and its bytes hash to its name;
///  - refcount(chunk) == number of references from live manifests
///    (duplicates within one manifest count individually);
///  - after any sweep, no zero-refcount chunk stays indexed and no pack
///    without a live chunk survives, unless a reader still streams from it.
///
/// Thread safety: all public methods are safe to call concurrently. Chunks
/// referenced by in-flight write sessions are pinned so a concurrent sweep
/// cannot drop a chunk a committing batch just deduplicated against; packs
/// a reader resolved are pinned so a concurrent repack moves their chunks
/// but leaves the pack in place until the last such reader is done.
class CasStore : public CasWriter {
 public:
  /// A pack is repacked once less than this share of its chunk bytes is
  /// live. Fixed, not an option: at one half, after every sweep each
  /// pack's dead bytes are at most its live bytes, and a repack copies at
  /// most half of each pack it reads.
  static constexpr double kRepackLiveFraction = 0.5;

  /// Outcome of one sweep.
  struct SweepReport {
    uint64_t chunks_swept = 0;
    uint64_t bytes_swept = 0;
    /// Pack blobs deleted (dead, repacked, or untracked).
    uint64_t packs_deleted = 0;
    /// Packs whose live chunks were copied into a new pack.
    uint64_t packs_repacked = 0;
  };

  /// Aggregate statistics for `mmmctl cas-stats` and bench/tab_dedup.
  struct Stats {
    uint64_t unique_chunks = 0;
    /// Bytes of the distinct live chunks (each chunk once).
    uint64_t chunk_bytes = 0;
    uint64_t manifests = 0;
    /// Logical bytes the manifests represent (pre-dedup payload sizes).
    uint64_t manifest_raw_bytes = 0;
    /// Total manifest->chunk references (>= unique_chunks).
    uint64_t total_refs = 0;
    /// refcount -> number of chunks with that refcount.
    std::map<uint64_t, uint64_t> refcount_histogram;
    /// Tracked pack blobs and their physical bytes (chunks plus index).
    uint64_t packs = 0;
    uint64_t pack_bytes = 0;
    /// Chunk bytes in tracked packs that no live chunk occupies: copies
    /// superseded or no longer referenced, reclaimed by repack.
    uint64_t dead_bytes = 0;
    /// Pack or legacy chunk blobs in the store the index does not track
    /// (0 outside the window between a crash and the next open).
    uint64_t orphan_packs = 0;

    /// Logical bytes per physical chunk byte (1.0 = no dedup).
    double dedup_ratio() const {
      return chunk_bytes == 0
                 ? 1.0
                 : static_cast<double>(manifest_raw_bytes) /
                       static_cast<double>(chunk_bytes);
    }
    /// Live share of the packs' chunk bytes (1.0 with no packs).
    double live_fraction() const {
      const uint64_t total = chunk_bytes + dead_bytes;
      return total == 0 ? 1.0
                        : static_cast<double>(chunk_bytes) /
                              static_cast<double>(total);
    }
  };

  /// \brief Holds a reader's pins on the packs it resolved (see
  /// ResolveChunks); releasing the last pin on a pack a repack emptied
  /// deletes that pack.
  class PackPins {
   public:
    PackPins() = default;
    PackPins(PackPins&& other) noexcept;
    PackPins& operator=(PackPins&& other) = delete;
    PackPins(const PackPins&) = delete;
    PackPins& operator=(const PackPins&) = delete;
    ~PackPins() { Release(); }

   private:
    friend class CasStore;
    void Release();
    CasStore* cas_ = nullptr;
    std::vector<uint64_t> packs_;
  };

  /// Opens the index over `store`: validates `options`, rebuilds refcounts
  /// and chunk locations from the live manifests and pack indexes (reading
  /// through `env` directly — open-time infrastructure, like journal
  /// replay), packs the chunk files of an older store (one journaled
  /// commit through `journal`, which may be null), deletes packs no
  /// manifest references, and persists the checkpoint to `index_path`.
  /// Call after CommitJournal::Replay so the scan sees only consistent
  /// commits.
  static Result<std::unique_ptr<CasStore>> Open(Env* env, FileStore* store,
                                                CommitJournal* journal,
                                                std::string index_path,
                                                CasOptions options);

  const CasOptions& options() const { return options_; }
  const std::string& index_path() const { return index_path_; }

  /// \name Read-side queries (cas/blob_io.h, GC, fleet oracles).
  /// @{
  bool IsManifest(const std::string& name) const;
  /// Chunk references of a tracked manifest; nullopt for untracked names.
  std::optional<std::vector<CasChunkRef>> ManifestChunks(
      const std::string& name) const;
  /// chunk hash -> refcount, for the fleet refcount oracle.
  std::map<std::string, uint64_t> ChunkRefsSnapshot() const;
  /// chunk hash -> location, for the fleet pack oracle.
  std::map<std::string, ChunkLocation> ChunkLocationsSnapshot() const;
  /// Blob names of all tracked manifests, sorted.
  std::vector<std::string> ManifestNames() const;
  /// True for a pack blob the index tracks or a session is writing: the
  /// pack namespace's liveness rule for FindOrphanBlobs.
  bool TracksPack(const std::string& blob_name) const;
  /// Fills `locations[i]` with the location of `refs[i]` and pins every
  /// pack involved until the returned pins are released, so a concurrent
  /// repack cannot delete a pack the reader is about to stream from.
  /// NotFound names a chunk the index does not track.
  Result<PackPins> ResolveChunks(std::span<const CasChunkRef> refs,
                                 std::vector<ChunkLocation>* locations);
  /// Test-only: `hook` runs inside every ResolveChunks after the pins are
  /// taken and the lock is released — between a recovery's location lookup
  /// and its first pack read.
  void SetResolveHookForTesting(std::function<void()> hook);
  /// @}

  /// Computes Stats; scans the store (through Env, uncharged) for orphans.
  Result<Stats> ComputeStats() const;

  /// \name GC integration (core/gc.cc).
  /// @{
  /// Records the refcount decrements of deleting manifest `name`. The
  /// caller still deletes the blob itself; chunks that reach zero are
  /// dropped by the next SweepZeroRefChunks(). No-op for non-manifests.
  void OnManifestDeleted(const std::string& name);
  /// Drops every unpinned zero-refcount chunk from the index, deletes the
  /// packs left without a live chunk, repacks those below
  /// kRepackLiveFraction (pack reads and writes go through FileStore —
  /// this is real, modeled GC work), and persists the checkpoint.
  Result<SweepReport> SweepZeroRefChunks();
  /// Deletes pack blobs present in the store that the index does not track
  /// and no session is writing — leftovers of an aborted in-process commit
  /// (a crashed process' leftovers are reclaimed by the next Open) — and
  /// any stray legacy chunk file. Backs `SweepOrphanBlobs`; scans through
  /// Env, deletes through FileStore.
  Result<SweepReport> SweepUntrackedPacks();
  /// @}

  /// fsck: recomputes the index from the store, re-hashes every live chunk
  /// from its pack range, and appends any divergence (memory vs store vs
  /// checkpoint, missing/corrupt chunks, unreadable or unreferenced packs)
  /// to `problems`. Read-only; never repairs.
  Status Audit(std::vector<std::string>* problems) const;

  /// CasWriter: one session per StoreBatch commit.
  std::unique_ptr<CasWriteSession> BeginSession() override;

 private:
  friend class CasBatchSession;

  struct ChunkState {
    uint64_t refs = 0;
    ChunkLocation where;  ///< where.length is the chunk's size
  };
  struct ManifestState {
    uint64_t raw_size = 0;
    std::vector<CasChunkRef> chunks;
  };
  struct PackState {
    uint64_t file_bytes = 0;  ///< the whole blob
    uint64_t data_bytes = 0;  ///< its chunks, live or dead
    uint64_t live_bytes = 0;  ///< chunks whose location is this pack
  };
  /// Index recomputed from the store's live manifests and pack indexes.
  struct Rebuilt {
    std::map<std::string, ChunkState> chunks;
    std::map<std::string, ManifestState> manifests;
    std::map<uint64_t, PackState> packs;
    std::map<uint64_t, std::vector<PackEntry>> pack_entries;
    /// Legacy `cas-<hex>` chunk files, name -> size.
    std::map<std::string, uint64_t> legacy_chunks;
    uint64_t max_pack_id = 0;
    std::vector<std::string> problems;
  };

  CasStore(Env* env, FileStore* store, CommitJournal* journal,
           std::string index_path, CasOptions options)
      : env_(env),
        store_(store),
        journal_(journal),
        index_path_(std::move(index_path)),
        options_(options) {}

  /// Scans the store through Env and recomputes the whole index.
  Result<Rebuilt> ScanStore() const;
  /// Packs the legacy chunk files `scan` found that live manifests still
  /// reference into one pack and deletes every legacy file, in one
  /// journaled commit; updates `scan` to match.
  Status MigrateLegacyChunks(Rebuilt* scan);
  /// Copies the live chunks of packs below kRepackLiveFraction into one
  /// new pack and retires the old ones.
  Status Repack(SweepReport* report);

  /// Drops a chunk from the index, releasing its bytes in its pack.
  void DropChunkLocked(std::map<std::string, ChunkState>::iterator it)
      MMM_REQUIRES(mu_);
  /// Drops every unpinned zero-refcount chunk.
  void DropZeroRefChunksLocked(SweepReport* report) MMM_REQUIRES(mu_);
  /// Deletes `id` if no live chunk, reader or session still needs it.
  Status DeletePackIfDeadLocked(uint64_t id, SweepReport* report)
      MMM_REQUIRES(mu_);
  Status DeleteDeadPacksLocked(SweepReport* report) MMM_REQUIRES(mu_);
  void UnpinPacks(const std::vector<uint64_t>& packs);
  Status PersistIndexLocked() MMM_REQUIRES(mu_);

  Env* env_;
  FileStore* store_;
  CommitJournal* journal_;
  std::string index_path_;
  CasOptions options_;

  /// Serializes repacks; taken before mu_.
  Mutex repack_mu_ MMM_LOCK_RANK(105);
  mutable Mutex mu_ MMM_LOCK_RANK(110);
  std::map<std::string, ChunkState> chunks_ MMM_GUARDED_BY(mu_);
  std::map<std::string, ManifestState> manifests_ MMM_GUARDED_BY(mu_);
  std::map<uint64_t, PackState> packs_ MMM_GUARDED_BY(mu_);
  uint64_t next_pack_id_ MMM_GUARDED_BY(mu_) = 1;
  /// Packs of in-flight write sessions and repacks, not yet indexed.
  std::set<uint64_t> writing_packs_ MMM_GUARDED_BY(mu_);
  /// Chunks referenced by in-flight write sessions (dedup decisions that
  /// are not yet durable): a sweep must not drop them even at refs == 0.
  std::map<std::string, uint64_t> pins_ MMM_GUARDED_BY(mu_);
  /// pack id -> readers (and repacks) streaming from it.
  std::map<uint64_t, uint64_t> reader_pins_ MMM_GUARDED_BY(mu_);
  std::function<void()> resolve_hook_ MMM_GUARDED_BY(mu_);
};

}  // namespace mmm

#endif  // MMM_CAS_CAS_STORE_H_
