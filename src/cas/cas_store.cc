#include "cas/cas_store.h"

#include <algorithm>
#include <set>

#include "serialize/crc32.h"
#include "serialize/json.h"
#include "serialize/sha256.h"

namespace mmm {

namespace {

std::string HexOfChunkBlob(const std::string& blob_name) {
  return blob_name.substr(sizeof(kCasChunkPrefix) - 1);
}

}  // namespace

/// \brief Per-commit write session (see storage/cas_iface.h for the
/// protocol). Collects refcount deltas and applies them atomically under
/// the store's lock once the commit is durable.
class CasBatchSession : public CasWriteSession {
 public:
  explicit CasBatchSession(CasStore* store) : store_(store) {}
  ~CasBatchSession() override {
    if (!closed_) Aborted();
  }

  Status TransformWrite(const std::string& name, std::vector<uint8_t>* data,
                        std::vector<ChunkWrite>* new_chunks) override {
    if (IsChunkBlobName(name)) {
      return Status::Internal("cas session asked to transform chunk blob '",
                              name, "'");
    }
    const CasOptions& options = store_->options_;
    // Small payloads stay verbatim — unless they happen to start with the
    // manifest magic, which a raw payload must never do (the read path
    // would misparse it), so those are chunked regardless of size.
    if (data->size() < options.min_blob_bytes && !IsManifestPayload(*data)) {
      MutexLock lock(store_->mu_);
      RecordRetireLocked(name);
      return Status::OK();
    }

    CasManifest manifest;
    manifest.raw_size = data->size();
    manifest.raw_crc = Crc32::Compute(*data);
    const std::vector<ChunkSpan> spans = ChunkBlob(*data, options);
    // Hash before locking: the digests need no shared state, and GC,
    // audits and other sessions would otherwise wait out ~10 MB of SHA-256.
    std::vector<std::string> hexes;
    hexes.reserve(spans.size());
    for (const ChunkSpan& span : spans) {
      hexes.push_back(Sha256::Hash(std::span<const uint8_t>(
                                       data->data() + span.offset, span.length))
                          .ToHex());
    }

    MutexLock lock(store_->mu_);
    // Overwriting a previously chunked blob retires the old version's refs.
    RecordRetireLocked(name);
    for (size_t c = 0; c < spans.size(); ++c) {
      const ChunkSpan& span = spans[c];
      const std::string& hex = hexes[c];
      std::span<const uint8_t> bytes(data->data() + span.offset, span.length);
      manifest.chunks.push_back({hex, span.length});
      increments_[hex] += 1;
      chunk_bytes_[hex] = span.length;
      PinLocked(hex);
      const bool in_store = store_->chunks_.count(hex) != 0;
      if (!in_store && staged_.insert(hex).second) {
        new_chunks->push_back(
            {ChunkBlobName(hex),
             std::vector<uint8_t>(bytes.begin(), bytes.end())});
      }
    }
    written_manifests_[name] =
        CasStore::ManifestState{manifest.raw_size, manifest.chunks};
    *data = EncodeManifest(manifest);
    return Status::OK();
  }

  Status TrackDelete(const std::string& name) override {
    MutexLock lock(store_->mu_);
    RecordRetireLocked(name);
    return Status::OK();
  }

  Status Applied() override {
    closed_ = true;
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
    for (const auto& [hex, count] : increments_) {
      CasStore::ChunkState& state = store_->chunks_[hex];
      state.refs += count;
      state.bytes = chunk_bytes_[hex];
    }
    for (auto& [name, state] : written_manifests_) {
      store_->manifests_[name] = std::move(state);
    }
    UnpinAllLocked();
    // Decrement-then-sweep: chunks the retirements zeroed go now, unless an
    // overlapping session still pins them.
    for (auto it = store_->chunks_.begin(); it != store_->chunks_.end();) {
      if (it->second.refs == 0 && store_->pins_.count(it->first) == 0) {
        MMM_RETURN_NOT_OK(store_->store_->Delete(ChunkBlobName(it->first)));
        it = store_->chunks_.erase(it);
      } else {
        ++it;
      }
    }
    return store_->PersistIndexLocked();
  }

  void Aborted() override {
    closed_ = true;
    MutexLock lock(store_->mu_);
    UnpinAllLocked();
    increments_.clear();
    written_manifests_.clear();
    retired_.clear();
  }

 private:
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
  /// chunk hex -> reference count this commit adds.
  std::map<std::string, uint64_t> increments_;
  std::map<std::string, uint64_t> chunk_bytes_;
  /// Chunks whose blob writes this session already handed to the batch.
  std::set<std::string> staged_;
  /// Chunks this session pinned against concurrent sweeps.
  std::set<std::string> pinned_;
  /// Manifest names this commit overwrites or deletes.
  std::set<std::string> retired_;
  std::map<std::string, CasStore::ManifestState> written_manifests_;
};

Result<std::unique_ptr<CasStore>> CasStore::Open(Env* env, FileStore* store,
                                                 std::string index_path,
                                                 CasOptions options) {
  MMM_RETURN_NOT_OK(options.Validate());
  auto cas = std::unique_ptr<CasStore>(
      new CasStore(env, store, std::move(index_path), options));
  MMM_ASSIGN_OR_RETURN(Rebuilt scan, cas->ScanStore());
  MutexLock lock(cas->mu_);
  cas->chunks_ = std::move(scan.chunks);
  cas->manifests_ = std::move(scan.manifests);
  // Reclaim chunk blobs no live manifest references — leftovers of
  // rolled-back commits (rollback never deletes `cas` intents; see
  // storage/journal.h) or of a crash between a decrement and its sweep.
  // Skipped when the scan saw undecodable manifests: their references are
  // unknown, so deleting anything could orphan a recoverable blob; fsck
  // reports the corruption instead.
  if (scan.problems.empty()) {
    for (const auto& [blob_name, size] : scan.chunk_blobs) {
      (void)size;
      if (cas->chunks_.count(HexOfChunkBlob(blob_name)) == 0) {
        MMM_RETURN_NOT_OK(
            env->DeleteFile(store->root() + "/" + blob_name));
      }
    }
  }
  MMM_RETURN_NOT_OK(cas->PersistIndexLocked());
  return cas;
}

Result<CasStore::Rebuilt> CasStore::ScanStore() const {
  Rebuilt out;
  MMM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       env_->ListDir(store_->root()));
  for (const std::string& name : names) {
    const std::string path = store_->root() + "/" + name;
    if (IsChunkBlobName(name)) {
      MMM_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path));
      out.chunk_blobs[name] = size;
      continue;
    }
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, env_->ReadFile(path));
    if (!IsManifestPayload(data)) continue;
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
      chunk.bytes = ref.length;
    }
    out.manifests[name] = std::move(state);
  }
  return out;
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

uint64_t CasStore::RefCount(const std::string& hash_hex) const {
  MutexLock lock(mu_);
  auto it = chunks_.find(hash_hex);
  return it == chunks_.end() ? 0 : it->second.refs;
}

std::map<std::string, uint64_t> CasStore::ChunkRefsSnapshot() const {
  MutexLock lock(mu_);
  std::map<std::string, uint64_t> refs;
  for (const auto& [hex, state] : chunks_) refs[hex] = state.refs;
  return refs;
}

std::vector<std::string> CasStore::ManifestNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(manifests_.size());
  for (const auto& [name, state] : manifests_) names.push_back(name);
  return names;
}

Result<CasStore::Stats> CasStore::ComputeStats() const {
  Stats stats;
  {
    MutexLock lock(mu_);
    stats.unique_chunks = chunks_.size();
    for (const auto& [hex, state] : chunks_) {
      stats.chunk_bytes += state.bytes;
      stats.total_refs += state.refs;
      ++stats.refcount_histogram[state.refs];
    }
    stats.manifests = manifests_.size();
    for (const auto& [name, state] : manifests_) {
      stats.manifest_raw_bytes += state.raw_size;
    }
  }
  MMM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       env_->ListDir(store_->root()));
  MutexLock lock(mu_);
  for (const std::string& name : names) {
    if (IsChunkBlobName(name) &&
        chunks_.count(HexOfChunkBlob(name)) == 0) {
      ++stats.orphan_chunks;
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

Result<CasStore::SweepReport> CasStore::SweepZeroRefChunks() {
  MutexLock lock(mu_);
  SweepReport report;
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.refs == 0 && pins_.count(it->first) == 0) {
      MMM_RETURN_NOT_OK(store_->Delete(ChunkBlobName(it->first)));
      ++report.chunks_swept;
      report.bytes_swept += it->second.bytes;
      it = chunks_.erase(it);
    } else {
      ++it;
    }
  }
  MMM_RETURN_NOT_OK(PersistIndexLocked());
  return report;
}

Result<CasStore::SweepReport> CasStore::SweepUntrackedChunks() {
  MMM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       env_->ListDir(store_->root()));
  MutexLock lock(mu_);
  SweepReport report;
  for (const std::string& name : names) {
    if (!IsChunkBlobName(name)) continue;
    const std::string hex = HexOfChunkBlob(name);
    if (chunks_.count(hex) != 0 || pins_.count(hex) != 0) continue;
    MMM_ASSIGN_OR_RETURN(uint64_t size,
                         env_->FileSize(store_->root() + "/" + name));
    MMM_RETURN_NOT_OK(store_->Delete(name));
    ++report.chunks_swept;
    report.bytes_swept += size;
  }
  return report;
}

Status CasStore::Audit(std::vector<std::string>* problems) const {
  MMM_ASSIGN_OR_RETURN(Rebuilt scan, ScanStore());
  for (const std::string& problem : scan.problems) {
    problems->push_back(problem);
  }
  // Every referenced chunk must exist with the manifest's recorded size.
  for (const auto& [name, manifest] : scan.manifests) {
    for (const CasChunkRef& ref : manifest.chunks) {
      auto blob = scan.chunk_blobs.find(ChunkBlobName(ref.hash_hex));
      if (blob == scan.chunk_blobs.end()) {
        problems->push_back("manifest '" + name +
                            "' references missing chunk " + ref.hash_hex);
      } else if (blob->second != ref.length) {
        problems->push_back("manifest '" + name + "' chunk " + ref.hash_hex +
                            " has size " + std::to_string(blob->second) +
                            ", manifest records " +
                            std::to_string(ref.length));
      }
    }
  }
  // Chunk contents must hash to their names; unreferenced chunks are
  // orphans (a sweep must not have left any behind).
  for (const auto& [blob_name, size] : scan.chunk_blobs) {
    (void)size;
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                         env_->ReadFile(store_->root() + "/" + blob_name));
    const std::string hex = Sha256::Hash(std::span<const uint8_t>(data)).ToHex();
    if (ChunkBlobName(hex) != blob_name) {
      problems->push_back("chunk '" + blob_name +
                          "' content hashes to " + hex);
    }
    if (scan.chunks.count(HexOfChunkBlob(blob_name)) == 0) {
      problems->push_back("orphan chunk '" + blob_name +
                          "' (no live manifest references it)");
    }
  }
  // The in-memory index must match the store exactly; a zero-refcount
  // entry still in memory means a sweep was skipped.
  {
    MutexLock lock(mu_);
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
  // The persisted checkpoint must agree with the recomputed refcounts.
  MMM_ASSIGN_OR_RETURN(bool checkpoint_exists, env_->FileExists(index_path_));
  if (!checkpoint_exists) {
    problems->push_back("cas index checkpoint '" + index_path_ +
                        "' is missing");
    return Status::OK();
  }
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, env_->ReadFile(index_path_));
  auto parsed = JsonValue::Parse(std::string_view(
      reinterpret_cast<const char*>(raw.data()), raw.size()));
  if (!parsed.ok()) {
    problems->push_back("cas index checkpoint unparseable: " +
                        parsed.status().ToString());
    return Status::OK();
  }
  const JsonValue record = std::move(parsed).ValueOrDie();
  std::map<std::string, uint64_t> recorded;
  MMM_ASSIGN_OR_RETURN(const JsonValue* chunk_array, record.Get("chunks"));
  for (const JsonValue& entry : chunk_array->array_items()) {
    MMM_ASSIGN_OR_RETURN(const JsonValue* hex, entry.At(0));
    MMM_ASSIGN_OR_RETURN(const JsonValue* refs, entry.At(1));
    MMM_ASSIGN_OR_RETURN(std::string hex_value, hex->AsString());
    MMM_ASSIGN_OR_RETURN(int64_t ref_count, refs->AsInt64());
    recorded[hex_value] = static_cast<uint64_t>(ref_count);
  }
  for (const auto& [hex, state] : scan.chunks) {
    auto it = recorded.find(hex);
    if (it == recorded.end()) {
      problems->push_back("checkpoint is missing chunk " + hex);
    } else if (it->second != state.refs) {
      problems->push_back("checkpoint chunk " + hex + " refcount " +
                          std::to_string(it->second) + " != recomputed " +
                          std::to_string(state.refs));
    }
  }
  for (const auto& [hex, refs] : recorded) {
    if (refs > 0 && scan.chunks.count(hex) == 0) {
      problems->push_back("checkpoint chunk " + hex +
                          " no longer exists in the store");
    }
  }
  return Status::OK();
}

std::unique_ptr<CasWriteSession> CasStore::BeginSession() {
  return std::make_unique<CasBatchSession>(this);
}

Status CasStore::PersistIndexLocked() {
  JsonValue record = JsonValue::Object();
  record.Set("version", 1);
  JsonValue chunk_array = JsonValue::Array();
  for (const auto& [hex, state] : chunks_) {
    JsonValue entry = JsonValue::Array();
    entry.Append(hex);
    entry.Append(state.refs);
    entry.Append(state.bytes);
    chunk_array.Append(std::move(entry));
  }
  record.Set("chunks", std::move(chunk_array));
  JsonValue manifest_array = JsonValue::Array();
  for (const auto& [name, state] : manifests_) {
    JsonValue entry = JsonValue::Array();
    entry.Append(name);
    entry.Append(state.raw_size);
    JsonValue chunks = JsonValue::Array();
    for (const CasChunkRef& ref : state.chunks) {
      JsonValue chunk = JsonValue::Array();
      chunk.Append(ref.hash_hex);
      chunk.Append(ref.length);
      chunks.Append(std::move(chunk));
    }
    entry.Append(std::move(chunks));
    manifest_array.Append(std::move(entry));
  }
  record.Set("manifests", std::move(manifest_array));
  const std::string text = record.Dump();
  return env_->WriteFile(
      index_path_,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                               text.size()));
}

}  // namespace mmm
