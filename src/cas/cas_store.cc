#include "cas/cas_store.h"

#include <algorithm>
#include <optional>
#include <set>

#include "serialize/crc32.h"
#include "serialize/sha256.h"
#include "storage/store_batch.h"

namespace mmm {
namespace {

/// The whole content of the marker file `CasStore::Open` writes.
constexpr uint8_t kMarker[] = {'M', 'M', 'C', 'A', 'S', '1', '\n'};

}  // namespace

class CasChunkingSink;

/// \brief Per-commit write session (see storage/cas_iface.h for the
/// protocol). Collects refcount deltas and streams the commit's new chunks
/// into its pack, and applies the deltas atomically under the store's lock
/// once the commit is durable.
class CasBatchSession : public CasWriteSession {
 public:
  explicit CasBatchSession(CasStore* store) : store_(store) {
    MutexLock lock(store_->mu_);
    pack_id_ = store_->next_pack_id_++;
    store_->writing_packs_.insert(pack_id_);
    pack_name_ = PackBlobName(pack_id_);
  }
  ~CasBatchSession() override {
    if (!closed_) Aborted();
  }

  const std::string& pack_name() const override { return pack_name_; }

  Result<std::unique_ptr<CasBlobSink>> OpenBlob(const std::string& name,
                                                BlobSink* pack) override;

  Status TrackDelete(const std::string& name) override {
    MutexLock lock(store_->mu_);
    RecordRetireLocked(name);
    return Status::OK();
  }

  Result<bool> FinishPack() override {
    MutexLock pack_lock(pack_mu_);
    if (!pack_.has_value() || pack_->empty()) return false;
    MMM_RETURN_NOT_OK(pack_->Finish());
    pack_used_ = true;
    return true;
  }

  Status Applied() override {
    closed_ = true;
    MutexLock pack_lock(pack_mu_);
    MutexLock lock(store_->mu_);
    // Retired manifests first: a chunk both retired and re-referenced nets
    // out under the same lock, so it never becomes sweepable in between.
    for (const std::string& name : retired_) {
      auto it = store_->manifests_.find(name);
      if (it == store_->manifests_.end()) continue;
      for (const CasChunkRef& ref : it->second.chunks) {
        auto chunk = store_->chunks_.find(ref.hash_hex);
        if (chunk != store_->chunks_.end() && chunk->second.refs > 0) {
          --chunk->second.refs;
        }
      }
      store_->manifests_.erase(it);
    }
    store_->writing_packs_.erase(pack_id_);
    if (pack_used_) {
      uint64_t data_bytes = 0;
      for (const PackEntry& entry : pack_->entries()) data_bytes += entry.length;
      store_->packs_[pack_id_] = {pack_->size(), data_bytes, 0};
    } else if (store_->next_pack_id_ == pack_id_ + 1) {
      // The reserved name went unused and the commit is finished, so no
      // journal entry names it any more: the next commit may take it.
      store_->next_pack_id_ = pack_id_;
    }
    Status status;
    for (const auto& [hex, count] : increments_) {
      auto [it, inserted] = store_->chunks_.try_emplace(hex);
      if (inserted) {
        // Not indexed when this session saw it, so this session packed it.
        // A chunk another session committed first keeps that first copy;
        // this pack's copy is then dead bytes.
        auto staged = staged_.find(hex);
        if (staged == staged_.end() || !pack_used_) {
          status = Status::Internal("cas chunk ", hex,
                                    " is neither indexed nor in the pack");
          continue;
        }
        const PackEntry& entry = pack_->entries()[staged->second];
        it->second.where = {pack_id_, entry.offset, entry.length, entry.crc};
        store_->packs_[pack_id_].live_bytes += entry.length;
      }
      it->second.refs += count;
    }
    for (auto& [name, state] : written_manifests_) {
      store_->manifests_[name] = std::move(state);
    }
    UnpinAllLocked();
    // Decrement-then-sweep: chunks the retirements zeroed go now, unless an
    // overlapping session still pins them, and so do packs left without a
    // live chunk (this commit's own, if another session beat it to every
    // chunk).
    CasStore::SweepReport ignored;
    store_->DropZeroRefChunksLocked(&ignored);
    MMM_RETURN_NOT_OK(store_->DeleteDeadPacksLocked(&ignored));
    return status;
  }

  void Aborted() override {
    closed_ = true;
    MutexLock lock(store_->mu_);
    UnpinAllLocked();
    // A pack that already landed is rolled back by journal replay or
    // reclaimed by the untracked-pack sweep. Its name stays taken: a
    // pending journal entry may still name it.
    store_->writing_packs_.erase(pack_id_);
    increments_.clear();
    written_manifests_.clear();
    retired_.clear();
  }

 private:
  friend class CasChunkingSink;

  /// Takes the chunks of one window of a blob: counts a reference to each,
  /// pins it, and appends to the pack each chunk neither the store nor this
  /// session holds yet. The store's lock is held once per window, only to
  /// decide which chunks are new; the appends, which reach the Env, run
  /// after it is released, so readers resolving chunks never wait on a
  /// pack write. pack_mu_ is held across both, so the pack's order is the
  /// order in which staged_ numbered its entries.
  Status AddChunks(std::span<const uint8_t> bytes,
                   std::span<const ChunkSpan> spans,
                   std::span<const std::string> hexes,
                   std::span<const uint32_t> crcs) {
    MutexLock pack_lock(pack_mu_);
    std::vector<size_t> fresh;
    {
      MutexLock lock(store_->mu_);
      for (size_t c = 0; c < spans.size(); ++c) {
        const std::string& hex = hexes[c];
        increments_[hex] += 1;
        PinLocked(hex);
        if (store_->chunks_.count(hex) == 0 && staged_.count(hex) == 0) {
          staged_[hex] = pack_->entries().size() + fresh.size();
          fresh.push_back(c);
        }
      }
    }
    for (size_t c : fresh) {
      MMM_RETURN_NOT_OK(pack_->Add(
          hexes[c], bytes.subspan(spans[c].offset, spans[c].length), crcs[c]));
    }
    return Status::OK();
  }

  /// Ends blob `name`: stored verbatim (no manifest), or as `manifest`.
  void EndBlob(const std::string& name, const CasManifest* manifest) {
    MutexLock lock(store_->mu_);
    // Overwriting a previously chunked blob retires the old version's refs.
    RecordRetireLocked(name);
    if (manifest != nullptr) {
      written_manifests_[name] =
          CasStore::ManifestState{manifest->raw_size, manifest->chunks};
    }
  }

  void RecordRetireLocked(const std::string& name)
      MMM_REQUIRES(store_->mu_) {
    if (store_->manifests_.count(name) != 0) retired_.insert(name);
  }
  void PinLocked(const std::string& hex) MMM_REQUIRES(store_->mu_) {
    if (pinned_.insert(hex).second) ++store_->pins_[hex];
  }
  void UnpinAllLocked() MMM_REQUIRES(store_->mu_) {
    for (const std::string& hex : pinned_) {
      auto it = store_->pins_.find(hex);
      if (it == store_->pins_.end()) continue;
      if (--it->second == 0) store_->pins_.erase(it);
    }
    pinned_.clear();
  }

  CasStore* store_;
  bool closed_ = false;
  uint64_t pack_id_ = 0;
  std::string pack_name_;
  /// Orders this session's pack appends; taken before the store's lock.
  Mutex pack_mu_ MMM_LOCK_RANK(108);
  /// This commit's new chunks, streamed to the batch's pack sink.
  std::optional<PackWriter> pack_ MMM_GUARDED_BY(pack_mu_);
  bool pack_used_ = false;
  /// chunk hex -> reference count this commit adds.
  std::map<std::string, uint64_t> increments_;
  /// chunk hex -> its entry in pack_.
  std::map<std::string, size_t> staged_ MMM_GUARDED_BY(pack_mu_);
  /// Chunks this session pinned against concurrent sweeps.
  std::set<std::string> pinned_;
  /// Manifest names this commit overwrites or deletes.
  std::set<std::string> retired_;
  std::map<std::string, CasStore::ManifestState> written_manifests_;
};

/// \brief One blob of a CAS session. Holds the payload's head until it
/// reaches `min_blob_bytes` (a smaller blob stays verbatim), then cuts
/// chunks as bytes arrive and hands the session one window of whole chunks
/// at a time, so it buffers about kWriteWindowBytes plus one chunk.
class CasChunkingSink : public CasBlobSink {
 public:
  CasChunkingSink(CasBatchSession* session, std::string name)
      : session_(session),
        name_(std::move(name)),
        options_(session->store_->options()),
        chunker_(options_) {}

  Status Append(std::span<const uint8_t> bytes) override {
    if (!chunking_) {
      pending_.insert(pending_.end(), bytes.begin(), bytes.end());
      if (pending_.size() < options_.min_blob_bytes) return Status::OK();
      return StartChunking();
    }
    return Cut(bytes);
  }

  Result<std::vector<uint8_t>> Finish() override {
    // Small payloads stay verbatim — unless they happen to start with the
    // manifest magic, which a raw payload must never do (the read path
    // would misparse it), so those are chunked regardless of size.
    if (!chunking_) {
      if (!IsManifestPayload(pending_)) {
        session_->EndBlob(name_, nullptr);
        return std::move(pending_);
      }
      MMM_RETURN_NOT_OK(StartChunking());
    }
    if (chunk_start_ < pending_.size()) {
      spans_.push_back({chunk_start_, pending_.size() - chunk_start_});
      chunk_start_ = pending_.size();
    }
    MMM_RETURN_NOT_OK(Flush());
    session_->EndBlob(name_, &manifest_);
    return EncodeManifest(manifest_);
  }

 private:
  /// Re-scans the held head as the first bytes of the chunked stream.
  Status StartChunking() {
    chunking_ = true;
    std::vector<uint8_t> head = std::move(pending_);
    pending_.clear();
    return Cut(head);
  }

  Status Cut(std::span<const uint8_t> bytes) {
    while (!bytes.empty()) {
      bool cut = false;
      const size_t taken = chunker_.Scan(bytes, &cut);
      pending_.insert(pending_.end(), bytes.begin(), bytes.begin() + taken);
      bytes = bytes.subspan(taken);
      manifest_.raw_size += taken;
      if (!cut) continue;
      spans_.push_back({chunk_start_, pending_.size() - chunk_start_});
      chunk_start_ = pending_.size();
      if (chunk_start_ >= kWriteWindowBytes) MMM_RETURN_NOT_OK(Flush());
    }
    return Status::OK();
  }

  /// Hands the whole chunks held to the session and keeps the open one.
  Status Flush() {
    // Hash before locking: the digests need no shared state, and GC,
    // audits and other sessions would otherwise wait out the SHA-256.
    // Each chunk's CRC is taken once: the pack index records it, and the
    // payload's CRC is combined from them.
    hexes_.clear();
    crcs_.clear();
    for (const ChunkSpan& span : spans_) {
      const std::span<const uint8_t> chunk(pending_.data() + span.offset,
                                           span.length);
      hexes_.push_back(Sha256::Hash(chunk).ToHex());
      crcs_.push_back(Crc32::Compute(chunk));
      manifest_.raw_crc =
          Crc32::Combine(manifest_.raw_crc, crcs_.back(), span.length);
      manifest_.chunks.push_back({hexes_.back(), span.length});
    }
    MMM_RETURN_NOT_OK(session_->AddChunks(pending_, spans_, hexes_, crcs_));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(chunk_start_));
    chunk_start_ = 0;
    spans_.clear();
    return Status::OK();
  }

  CasBatchSession* session_;
  std::string name_;
  const CasOptions& options_;
  GearChunker chunker_;
  bool chunking_ = false;
  /// The head, then the whole chunks not yet handed on and the open one.
  std::vector<uint8_t> pending_;
  /// Whole chunks in pending_, and where the open one starts.
  std::vector<ChunkSpan> spans_;
  size_t chunk_start_ = 0;
  std::vector<std::string> hexes_;
  std::vector<uint32_t> crcs_;
  CasManifest manifest_;
};

Result<std::unique_ptr<CasBlobSink>> CasBatchSession::OpenBlob(
    const std::string& name, BlobSink* pack) {
  if (IsPackBlobName(name) || IsChunkBlobName(name)) {
    return Status::Internal("cas session asked to chunk blob '", name, "'");
  }
  {
    MutexLock pack_lock(pack_mu_);
    if (!pack_.has_value()) pack_.emplace(pack);
  }
  return std::unique_ptr<CasBlobSink>(
      std::make_unique<CasChunkingSink>(this, name));
}

CasStore::PackPins::PackPins(PackPins&& other) noexcept
    : cas_(other.cas_), packs_(std::move(other.packs_)) {
  other.cas_ = nullptr;
  other.packs_.clear();
}

void CasStore::PackPins::Release() {
  if (cas_ != nullptr) cas_->UnpinPacks(packs_);
  cas_ = nullptr;
  packs_.clear();
}

Result<std::unique_ptr<CasStore>> CasStore::Open(Env* env, FileStore* store,
                                                 CommitJournal* journal,
                                                 std::string marker_path,
                                                 CasOptions options) {
  MMM_RETURN_NOT_OK(options.Validate());
  // Marked before anything is chunked. Only the marker's presence is ever
  // read, so one written by an older store (a JSON checkpoint, or torn)
  // stays as it is.
  MMM_ASSIGN_OR_RETURN(bool marked, env->FileExists(marker_path));
  if (!marked) MMM_RETURN_NOT_OK(env->WriteFile(marker_path, kMarker));
  auto cas = std::unique_ptr<CasStore>(
      new CasStore(env, store, journal, std::move(marker_path), options));
  MMM_ASSIGN_OR_RETURN(Rebuilt scan, cas->ScanStore());
  // Skipped when the scan saw undecodable manifests or packs: their
  // references are unknown, so deleting anything could orphan a
  // recoverable blob; fsck reports the corruption instead.
  const bool scan_clean = scan.problems.empty();
  if (scan_clean && !scan.legacy_chunks.empty()) {
    MMM_RETURN_NOT_OK(cas->MigrateLegacyChunks(&scan));
  }
  MutexLock lock(cas->mu_);
  cas->chunks_ = std::move(scan.chunks);
  cas->manifests_ = std::move(scan.manifests);
  cas->packs_ = std::move(scan.packs);
  cas->next_pack_id_ = scan.max_pack_id + 1;
  // Reclaim packs no live manifest's chunks occupy — leftovers of a crash
  // between a decrement and its sweep, or the sources of a repack the
  // crash interrupted after its commit.
  if (scan_clean) {
    SweepReport ignored;
    MMM_RETURN_NOT_OK(cas->DeleteDeadPacksLocked(&ignored));
  }
  return cas;
}

Result<CasStore::Rebuilt> CasStore::ScanStore() const {
  Rebuilt out;
  MMM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       env_->ListDir(store_->root()));
  for (const std::string& name : names) {
    const std::string path = store_->root() + "/" + name;
    if (IsPackBlobName(name)) {
      const uint64_t id = PackIdOfBlobName(name);
      if (id == 0) {
        out.problems.push_back("pack blob '" + name + "' has no valid id");
        continue;
      }
      auto entries = ReadPackIndex(env_, path);
      if (!entries.ok()) {
        out.problems.push_back("pack '" + name +
                               "': " + entries.status().ToString());
        continue;
      }
      MMM_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path));
      PackState& pack = out.packs[id];
      pack.file_bytes = size;
      for (const PackEntry& entry : entries.ValueOrDie()) {
        pack.data_bytes += entry.length;
      }
      out.pack_entries[id] = std::move(entries).ValueOrDie();
      out.max_pack_id = std::max(out.max_pack_id, id);
      continue;
    }
    if (IsChunkBlobName(name)) {
      MMM_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path));
      out.legacy_chunks[name] = size;
      continue;
    }
    // Sniff the manifest magic with one small ranged read; only manifests
    // (small) are read whole, never a verbatim multi-megabyte payload.
    MMM_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path));
    if (size < kCasManifestMagicSize) continue;
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> head,
                         env_->ReadFileRange(path, 0, kCasManifestMagicSize));
    if (!IsManifestPayload(head)) continue;
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, env_->ReadFile(path));
    auto manifest = DecodeManifest(data);
    if (!manifest.ok()) {
      out.problems.push_back("manifest '" + name +
                             "': " + manifest.status().ToString());
      continue;
    }
    ManifestState state;
    state.raw_size = manifest.ValueOrDie().raw_size;
    state.chunks = std::move(manifest.ValueOrDie().chunks);
    for (const CasChunkRef& ref : state.chunks) {
      ChunkState& chunk = out.chunks[ref.hash_hex];
      chunk.refs += 1;
      chunk.where.length = ref.length;
    }
    out.manifests[name] = std::move(state);
  }
  // Locate each referenced chunk; where packs overlap, the newest pack's
  // copy wins (ids grow with every pack written, so a repack's output
  // supersedes the packs it copied from).
  for (const auto& [id, entries] : out.pack_entries) {
    for (const PackEntry& entry : entries) {
      auto chunk = out.chunks.find(entry.hash_hex);
      if (chunk == out.chunks.end()) continue;
      ChunkLocation& where = chunk->second.where;
      if (where.pack != 0) out.packs[where.pack].live_bytes -= where.length;
      where = {id, entry.offset, entry.length, entry.crc};
      out.packs[id].live_bytes += entry.length;
    }
  }
  return out;
}

Status CasStore::MigrateLegacyChunks(Rebuilt* scan) {
  const uint64_t id = scan->max_pack_id + 1;
  StoreBatch batch(store_, /*doc_store=*/nullptr, /*executor=*/nullptr, {},
                   journal_);
  batch.AnnotateCommit("", "cas-migrate");
  // The chunk files live manifests still reference, checked against their
  // names before the pack is declared.
  std::vector<std::string> keep;
  for (const auto& [name, size] : scan->legacy_chunks) {
    const std::string hex = ChunkHexOfBlobName(name);
    auto chunk = scan->chunks.find(hex);
    if (chunk != scan->chunks.end() && chunk->second.where.pack == 0) {
      MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                           env_->ReadFile(store_->root() + "/" + name));
      const std::string actual =
          Sha256::Hash(std::span<const uint8_t>(bytes)).ToHex();
      if (actual != hex) {
        // Keep a damaged chunk file where it is for fsck to report.
        scan->problems.push_back("legacy chunk '" + name +
                                 "' content hashes to " + actual);
        continue;
      }
      keep.push_back(name);
    }
    batch.DeleteBlob(name);
  }
  std::vector<PackEntry> entries;
  uint64_t file_bytes = 0;
  if (!keep.empty()) {
    batch.PutBlobDeferred(PackBlobName(id), [&](BlobSink* sink) -> Status {
      PackWriter pack(sink);
      for (const std::string& name : keep) {
        MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                             env_->ReadFile(store_->root() + "/" + name));
        MMM_RETURN_NOT_OK(pack.Add(ChunkHexOfBlobName(name), bytes,
                                   Crc32::Compute(bytes)));
      }
      MMM_RETURN_NOT_OK(pack.Finish());
      entries = pack.entries();
      file_bytes = pack.size();
      return Status::OK();
    });
  }
  MMM_RETURN_NOT_OK(batch.Commit());

  if (!entries.empty()) {
    PackState& pack = scan->packs[id];
    pack.file_bytes = file_bytes;
    for (const PackEntry& entry : entries) {
      pack.data_bytes += entry.length;
      pack.live_bytes += entry.length;
      scan->chunks[entry.hash_hex].where = {id, entry.offset, entry.length,
                                            entry.crc};
    }
    scan->pack_entries[id] = std::move(entries);
    scan->max_pack_id = id;
  }
  scan->legacy_chunks.clear();
  return Status::OK();
}

bool CasStore::IsManifest(const std::string& name) const {
  MutexLock lock(mu_);
  return manifests_.count(name) != 0;
}

std::optional<std::vector<CasChunkRef>> CasStore::ManifestChunks(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = manifests_.find(name);
  if (it == manifests_.end()) return std::nullopt;
  return it->second.chunks;
}

std::map<std::string, uint64_t> CasStore::ChunkRefsSnapshot() const {
  MutexLock lock(mu_);
  std::map<std::string, uint64_t> refs;
  for (const auto& [hex, state] : chunks_) refs[hex] = state.refs;
  return refs;
}

std::map<std::string, ChunkLocation> CasStore::ChunkLocationsSnapshot() const {
  MutexLock lock(mu_);
  std::map<std::string, ChunkLocation> locations;
  for (const auto& [hex, state] : chunks_) locations[hex] = state.where;
  return locations;
}

std::vector<std::string> CasStore::ManifestNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(manifests_.size());
  for (const auto& [name, state] : manifests_) names.push_back(name);
  return names;
}

bool CasStore::TracksPack(const std::string& blob_name) const {
  const uint64_t id = PackIdOfBlobName(blob_name);
  MutexLock lock(mu_);
  return packs_.count(id) != 0 || writing_packs_.count(id) != 0;
}

Result<CasStore::PackPins> CasStore::ResolveChunks(
    std::span<const CasChunkRef> refs,
    std::vector<ChunkLocation>* locations) {
  PackPins pins;
  std::function<void()> hook;
  {
    MutexLock lock(mu_);
    locations->clear();
    locations->reserve(refs.size());
    std::set<uint64_t> packs;
    for (const CasChunkRef& ref : refs) {
      auto it = chunks_.find(ref.hash_hex);
      if (it == chunks_.end()) {
        return Status::NotFound("chunk ", ref.hash_hex,
                                " is not in the cas index");
      }
      locations->push_back(it->second.where);
      if (it->second.where.pack != 0) packs.insert(it->second.where.pack);
    }
    pins.cas_ = this;
    for (uint64_t id : packs) {
      ++reader_pins_[id];
      pins.packs_.push_back(id);
    }
    hook = resolve_hook_;
  }
  if (hook != nullptr) hook();
  return pins;
}

void CasStore::SetResolveHookForTesting(std::function<void()> hook) {
  MutexLock lock(mu_);
  resolve_hook_ = std::move(hook);
}

void CasStore::UnpinPacks(const std::vector<uint64_t>& packs) {
  MutexLock lock(mu_);
  for (uint64_t id : packs) {
    auto it = reader_pins_.find(id);
    if (it == reader_pins_.end()) continue;
    if (--it->second == 0) reader_pins_.erase(it);
  }
  // The last reader out of a pack a repack emptied deletes it. Deletes
  // charge no modeled cost; a failure leaves the pack for the next sweep.
  SweepReport ignored;
  for (uint64_t id : packs) {
    if (!DeletePackIfDeadLocked(id, &ignored).ok()) break;
  }
}

Result<CasStore::Stats> CasStore::ComputeStats() const {
  Stats stats;
  MMM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       env_->ListDir(store_->root()));
  MutexLock lock(mu_);
  stats.unique_chunks = chunks_.size();
  for (const auto& [hex, state] : chunks_) {
    stats.chunk_bytes += state.where.length;
    stats.total_refs += state.refs;
    ++stats.refcount_histogram[state.refs];
  }
  stats.manifests = manifests_.size();
  for (const auto& [name, state] : manifests_) {
    stats.manifest_raw_bytes += state.raw_size;
  }
  stats.packs = packs_.size();
  for (const auto& [id, pack] : packs_) {
    stats.pack_bytes += pack.file_bytes;
    stats.dead_bytes += pack.data_bytes - pack.live_bytes;
  }
  for (const std::string& name : names) {
    const uint64_t id = PackIdOfBlobName(name);
    if (IsChunkBlobName(name) ||
        (IsPackBlobName(name) && packs_.count(id) == 0 &&
         writing_packs_.count(id) == 0)) {
      ++stats.orphan_packs;
    }
  }
  return stats;
}

void CasStore::OnManifestDeleted(const std::string& name) {
  MutexLock lock(mu_);
  auto it = manifests_.find(name);
  if (it == manifests_.end()) return;
  for (const CasChunkRef& ref : it->second.chunks) {
    auto chunk = chunks_.find(ref.hash_hex);
    if (chunk != chunks_.end() && chunk->second.refs > 0) {
      --chunk->second.refs;
    }
  }
  manifests_.erase(it);
}

void CasStore::DropChunkLocked(
    std::map<std::string, ChunkState>::iterator it) {
  const ChunkLocation& where = it->second.where;
  auto pack = packs_.find(where.pack);
  if (pack != packs_.end()) pack->second.live_bytes -= where.length;
  chunks_.erase(it);
}

void CasStore::DropZeroRefChunksLocked(SweepReport* report) {
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.refs == 0 && pins_.count(it->first) == 0) {
      ++report->chunks_swept;
      report->bytes_swept += it->second.where.length;
      DropChunkLocked(it++);
    } else {
      ++it;
    }
  }
}

Status CasStore::DeletePackIfDeadLocked(uint64_t id, SweepReport* report) {
  auto pack = packs_.find(id);
  if (pack == packs_.end() || pack->second.live_bytes != 0 ||
      reader_pins_.count(id) != 0 || writing_packs_.count(id) != 0) {
    return Status::OK();
  }
  Status deleted = store_->Delete(PackBlobName(id));
  if (!deleted.ok() && !deleted.IsNotFound()) return deleted;
  packs_.erase(pack);
  ++report->packs_deleted;
  return Status::OK();
}

Status CasStore::DeleteDeadPacksLocked(SweepReport* report) {
  std::vector<uint64_t> dead;
  for (const auto& [id, pack] : packs_) {
    if (pack.live_bytes == 0) dead.push_back(id);
  }
  for (uint64_t id : dead) {
    MMM_RETURN_NOT_OK(DeletePackIfDeadLocked(id, report));
  }
  return Status::OK();
}

Result<CasStore::SweepReport> CasStore::SweepZeroRefChunks() {
  SweepReport report;
  {
    MutexLock lock(mu_);
    DropZeroRefChunksLocked(&report);
    MMM_RETURN_NOT_OK(DeleteDeadPacksLocked(&report));
  }
  MMM_RETURN_NOT_OK(Repack(&report));
  return report;
}

Status CasStore::Repack(SweepReport* report) {
  MutexLock repack_lock(repack_mu_);
  std::vector<uint64_t> sources;
  // The live chunks of the sources, in pack and offset order.
  std::vector<std::pair<ChunkLocation, CasChunkRef>> live;
  {
    MutexLock lock(mu_);
    for (const auto& [id, pack] : packs_) {
      if (pack.live_bytes > 0 &&
          static_cast<double>(pack.live_bytes) <
              kRepackLiveFraction * static_cast<double>(pack.data_bytes)) {
        sources.push_back(id);
      }
    }
    if (sources.empty()) return Status::OK();
    const std::set<uint64_t> from(sources.begin(), sources.end());
    for (const auto& [hex, chunk] : chunks_) {
      if (from.count(chunk.where.pack) != 0) {
        live.push_back({chunk.where, {hex, chunk.where.length}});
      }
    }
    // Pinned like a reader's, so a concurrent commit that empties a source
    // cannot delete it while the copy below streams from it.
    for (uint64_t id : sources) ++reader_pins_[id];
  }
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.first.pack != b.first.pack ? a.first.pack < b.first.pack
                                        : a.first.offset < b.first.offset;
  });
  std::vector<ChunkLocation> from;
  std::vector<CasChunkRef> refs;
  for (auto& [where, ref] : live) {
    from.push_back(where);
    refs.push_back(std::move(ref));
  }

  // Write the new pack in its own journaled commit, copying through the
  // recovery read path, so the same plan and checks apply and each chunk
  // keeps the CRC it was checked against.
  uint64_t id = 0;
  {
    MutexLock lock(mu_);
    id = next_pack_id_++;
    writing_packs_.insert(id);
  }
  std::vector<PackEntry> entries;
  uint64_t file_bytes = 0;
  StoreBatch batch(store_, /*doc_store=*/nullptr, /*executor=*/nullptr, {},
                   journal_);
  batch.AnnotateCommit("", "cas-repack");
  batch.PutBlobDeferred(PackBlobName(id), [&](BlobSink* sink) -> Status {
    PackWriter pack(sink);
    MMM_RETURN_NOT_OK(ReadPackedChunks(
        store_, options_.max_chunk_bytes, refs, from,
        [&](size_t i, std::span<const uint8_t> bytes) {
          return pack.Add(refs[i].hash_hex, bytes, from[i].crc);
        }));
    MMM_RETURN_NOT_OK(pack.Finish());
    entries = pack.entries();
    file_bytes = pack.size();
    return Status::OK();
  });
  Status status = batch.Commit();

  MutexLock lock(mu_);
  writing_packs_.erase(id);
  for (uint64_t source : sources) {
    auto pin = reader_pins_.find(source);
    if (pin != reader_pins_.end() && --pin->second == 0) {
      reader_pins_.erase(pin);
    }
  }
  // A failed copy or commit leaves every location where it was; a pack
  // that landed anyway is rolled back by replay or swept as untracked.
  if (!status.ok()) return status.WithContext("repack");
  uint64_t data_bytes = 0;
  for (const PackEntry& entry : entries) data_bytes += entry.length;
  packs_[id] = {file_bytes, data_bytes, 0};
  for (size_t i = 0; i < refs.size(); ++i) {
    // Relocate only chunks still indexed at the copied location; one
    // dropped meanwhile leaves dead bytes in the new pack.
    auto it = chunks_.find(refs[i].hash_hex);
    if (it == chunks_.end() || it->second.where.pack != from[i].pack ||
        it->second.where.offset != from[i].offset) {
      continue;
    }
    packs_[from[i].pack].live_bytes -= from[i].length;
    it->second.where = {id, entries[i].offset, entries[i].length,
                        entries[i].crc};
    packs_[id].live_bytes += entries[i].length;
  }
  report->packs_repacked += sources.size();
  return DeleteDeadPacksLocked(report);
}

Result<CasStore::SweepReport> CasStore::SweepUntrackedPacks() {
  MMM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       env_->ListDir(store_->root()));
  MutexLock lock(mu_);
  SweepReport report;
  for (const std::string& name : names) {
    const uint64_t id = PackIdOfBlobName(name);
    const bool untracked_pack = IsPackBlobName(name) &&
                                packs_.count(id) == 0 &&
                                writing_packs_.count(id) == 0;
    if (!untracked_pack && !IsChunkBlobName(name)) continue;
    MMM_ASSIGN_OR_RETURN(uint64_t size,
                         env_->FileSize(store_->root() + "/" + name));
    MMM_RETURN_NOT_OK(store_->Delete(name));
    ++report.packs_deleted;
    report.bytes_swept += size;
  }
  return report;
}

Status CasStore::Audit(std::vector<std::string>* problems) const {
  MMM_ASSIGN_OR_RETURN(Rebuilt scan, ScanStore());
  for (const std::string& problem : scan.problems) {
    problems->push_back(problem);
  }
  // Without its marker, a reopen that does not ask for CAS leaves it off,
  // and CAS-blind GC would delete manifests without their chunks.
  MMM_ASSIGN_OR_RETURN(bool marked, env_->FileExists(marker_path_));
  if (!marked && (!scan.packs.empty() || !scan.manifests.empty() ||
                  !scan.legacy_chunks.empty())) {
    problems->push_back("cas marker '" + marker_path_ +
                        "' is missing, so a reopen would leave CAS off");
  }
  // Every referenced chunk must sit in a pack with the manifest's length.
  for (const auto& [name, manifest] : scan.manifests) {
    for (const CasChunkRef& ref : manifest.chunks) {
      const ChunkLocation& where = scan.chunks.at(ref.hash_hex).where;
      if (where.pack == 0) {
        problems->push_back("manifest '" + name +
                            "' references chunk " + ref.hash_hex +
                            " that no pack holds");
      } else if (where.length != ref.length) {
        problems->push_back("manifest '" + name + "' chunk " + ref.hash_hex +
                            " has " + std::to_string(where.length) +
                            " bytes in '" + PackBlobName(where.pack) +
                            "', manifest records " +
                            std::to_string(ref.length));
      }
    }
  }
  for (const auto& [name, size] : scan.legacy_chunks) {
    (void)size;
    problems->push_back("legacy chunk file '" + name + "' was not migrated");
  }
  std::map<std::string, ChunkState> live;
  {
    MutexLock lock(mu_);
    live = chunks_;
    // Packs the index tracks must exist; packs in the store must be
    // tracked and hold a live chunk (or a reader still streams from them).
    for (const auto& [id, pack] : packs_) {
      if (scan.packs.count(id) == 0) {
        problems->push_back("index tracks pack '" + PackBlobName(id) +
                            "' that the store does not hold");
      } else if (pack.live_bytes == 0 && reader_pins_.count(id) == 0) {
        problems->push_back("pack '" + PackBlobName(id) +
                            "' holds no live chunk and no sweep reclaimed it");
      }
    }
    for (const auto& [id, pack] : scan.packs) {
      (void)pack;
      if (packs_.count(id) == 0 && writing_packs_.count(id) == 0) {
        problems->push_back("pack '" + PackBlobName(id) +
                            "' is in the store but nothing references it");
      }
    }
    // The in-memory index must match the store exactly; a zero-refcount
    // entry still in memory means a sweep was skipped.
    for (const auto& [hex, state] : chunks_) {
      auto rebuilt = scan.chunks.find(hex);
      if (state.refs == 0) {
        if (pins_.count(hex) == 0) {
          problems->push_back("index holds zero-refcount chunk " + hex +
                              " that no sweep reclaimed");
        }
      } else if (rebuilt == scan.chunks.end()) {
        problems->push_back("index chunk " + hex + " (refs " +
                            std::to_string(state.refs) +
                            ") has no referencing manifest in the store");
      } else if (rebuilt->second.refs != state.refs) {
        problems->push_back("index chunk " + hex + " refcount " +
                            std::to_string(state.refs) +
                            " != recomputed " +
                            std::to_string(rebuilt->second.refs));
      }
    }
    for (const auto& [hex, state] : scan.chunks) {
      if (chunks_.count(hex) == 0) {
        problems->push_back("store chunk " + hex + " (refs " +
                            std::to_string(state.refs) +
                            ") is missing from the index");
      }
    }
    for (const auto& [name, manifest] : scan.manifests) {
      (void)manifest;
      if (manifests_.count(name) == 0) {
        problems->push_back("store manifest '" + name +
                            "' is missing from the index");
      }
    }
    for (const auto& [name, manifest] : manifests_) {
      (void)manifest;
      if (scan.manifests.count(name) == 0) {
        problems->push_back("index manifest '" + name +
                            "' does not exist in the store");
      }
    }
  }
  // Every indexed location must be a chunk its pack's index lists there,
  // and the bytes there must hash to the chunk's name.
  for (const auto& [hex, state] : live) {
    const ChunkLocation& where = state.where;
    if (where.pack == 0) continue;  // reported above as unheld
    const std::string pack = PackBlobName(where.pack);
    auto entries = scan.pack_entries.find(where.pack);
    const bool listed =
        entries != scan.pack_entries.end() &&
        std::any_of(entries->second.begin(), entries->second.end(),
                    [&](const PackEntry& entry) {
                      return entry.hash_hex == hex &&
                             entry.offset == where.offset &&
                             entry.length == where.length;
                    });
    if (!listed) {
      problems->push_back("chunk " + hex + " is indexed at [" +
                          std::to_string(where.offset) + ", +" +
                          std::to_string(where.length) + ") of '" + pack +
                          "', which its pack index does not list");
      continue;
    }
    auto bytes = env_->ReadFileRange(store_->root() + "/" + pack, where.offset,
                                     where.length);
    if (!bytes.ok()) {
      problems->push_back("chunk " + hex + " in '" + pack +
                          "': " + bytes.status().ToString());
      continue;
    }
    const std::string actual =
        Sha256::Hash(std::span<const uint8_t>(bytes.ValueOrDie())).ToHex();
    if (actual != hex) {
      problems->push_back("chunk " + hex + " in '" + pack +
                          "' content hashes to " + actual);
    }
  }
  return Status::OK();
}

std::unique_ptr<CasWriteSession> CasStore::BeginSession() {
  return std::make_unique<CasBatchSession>(this);
}

}  // namespace mmm
