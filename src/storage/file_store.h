#ifndef MMM_STORAGE_FILE_STORE_H_
#define MMM_STORAGE_FILE_STORE_H_

#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/blob_sink.h"
#include "storage/env.h"
#include "storage/latency_model.h"
#include "storage/store_stats.h"
#include "storage/stream_file.h"

namespace mmm {

/// Window of a streamed blob write: a BlobWriteStream issues one Env write
/// per full window, so a blob of at most this many bytes is one Env write.
/// Fixed, not an option: it bounds what a save holds per blob in flight.
inline constexpr uint64_t kWriteWindowBytes = uint64_t{1} << 20;

class FileStore;

/// \brief Writes one blob in windows of kWriteWindowBytes: the first
/// window with Env::WriteFile (replacing any old blob), the rest with
/// Env::AppendToFile. Nothing reaches the Env before the first full window
/// or Close. The CRC-32 of the bytes is folded as they pass, so a journaled
/// commit never reads a payload back to checksum it.
///
/// Cost model: Close charges one write op plus the blob's bytes, exactly
/// like Put, however many Env writes the blob took. A stream opened
/// detached charges nothing and leaves its op and cost in stats() and
/// cost_nanos() for StoreBatch to merge (see FileStore::MergeBatch).
/// A stream dropped without Close charges nothing; the windows it already
/// wrote stay, for the commit journal's rollback to delete.
class BlobWriteStream : public BlobSink {
 public:
  BlobWriteStream(BlobWriteStream&&) = default;
  BlobWriteStream& operator=(BlobWriteStream&&) = default;

  Status Append(std::span<const uint8_t> bytes) override;
  /// Writes the last window (an empty blob is still created) and charges
  /// the write. The stream takes no bytes afterwards.
  Status Close();

  const std::string& name() const { return name_; }
  /// CRC-32 of the whole blob; valid after Close.
  uint32_t crc() const { return crc_; }
  /// A detached stream's counters and modeled cost; valid after Close.
  const StoreStats& stats() const { return stats_; }
  uint64_t cost_nanos() const { return cost_nanos_; }

 private:
  friend class FileStore;
  BlobWriteStream(FileStore* store, std::string name, std::string path,
                  bool detached)
      : store_(store),
        name_(std::move(name)),
        path_(std::move(path)),
        detached_(detached) {}

  /// One Env write of `bytes` at the end of what is written.
  Status Write(std::span<const uint8_t> bytes);

  FileStore* store_;
  std::string name_;
  std::string path_;
  bool detached_;
  bool closed_ = false;
  std::vector<uint8_t> window_;
  uint64_t written_ = 0;
  uint64_t env_writes_ = 0;
  uint32_t crc_ = 0;
  StoreStats stats_;
  uint64_t cost_nanos_ = 0;
};

/// \brief Named-blob store backed by an Env directory.
///
/// This is the "file store" of the paper's storage architecture: parameter
/// blobs, architecture snapshots, and code artifacts live here. Every
/// operation updates StoreStats and charges the configured latency model to
/// the simulated clock, so benchmarks can report modeled store time per
/// approach.
class FileStore {
 public:
  /// \param env filesystem to use
  /// \param root directory all blobs live under (created on Open)
  /// \param latency per-op/per-byte cost model charged to `sim_clock`
  /// \param sim_clock modeled-time sink; may be nullptr to disable accounting
  FileStore(Env* env, std::string root, StoreLatencyModel latency = {},
            SimulatedClock* sim_clock = nullptr);

  /// Creates the root directory.
  Status Open();

  /// Writes a blob through one BlobWriteStream; overwrites silently. Blob
  /// names must be non-empty and must not contain '/'.
  Status Put(const std::string& name, std::span<const uint8_t> data);

  /// Writes a string blob.
  Status PutString(const std::string& name, std::string_view data);

  /// Opens a windowed write of blob `name` (see BlobWriteStream). With
  /// `detached`, the stream's accounting is left to the caller, so lanes
  /// may write distinct blobs concurrently.
  Result<BlobWriteStream> OpenWriteStream(const std::string& name,
                                          bool detached = false);

  /// Reads a blob.
  Result<std::vector<uint8_t>> Get(const std::string& name);

  /// Reads a blob as a string.
  Result<std::string> GetString(const std::string& name);

  /// Reads `length` bytes of a blob starting at `offset` (one store
  /// round-trip; enables selective model recovery from set-level blobs).
  Result<std::vector<uint8_t>> GetRange(const std::string& name,
                                        uint64_t offset, uint64_t length);

  /// Opens a blob for pull-based windowed reading (DESIGN.md §12).
  ///
  /// Cost model: a stream is one sequential pass over the blob, so it is
  /// accounted exactly like Get — one read op and the blob's full byte
  /// count, charged here at open. The per-window Env::ReadFileRange calls
  /// carry no extra modeled cost (a sequential reader's windows are hidden
  /// by readahead); by construction, flipping a recovery between Get and
  /// OpenStream leaves StoreStats and modeled store time identical.
  ///
  /// `window_bytes == 0` selects kDefaultStreamWindowBytes.
  Result<StreamFile> OpenStream(const std::string& name,
                                uint64_t window_bytes = 0);

  /// Opens a forward-only stream over `[offset, offset + length)` of a
  /// blob. Charged like GetRange — one read op plus `length` bytes, at
  /// open — however much of the range the reader then reads or skips.
  /// OutOfRange if the range runs past the end of the blob.
  Result<StreamFile> OpenStream(const std::string& name, uint64_t offset,
                                uint64_t length, uint64_t window_bytes);

  /// Size of a stored blob in bytes.
  Result<uint64_t> Size(const std::string& name);

  Result<bool> Exists(const std::string& name);
  Status Delete(const std::string& name);

  /// \name Batched-write support (see storage/store_batch.h).
  /// @{

  /// Folds a batch's merged per-lane counters back into this store's stats
  /// and charges `charge_nanos` of modeled time (the batch's overlapped
  /// total) to the simulated clock.
  void MergeBatch(const StoreStats& delta, uint64_t charge_nanos);
  /// @}

  /// Names of all blobs, sorted.
  Result<std::vector<std::string>> List();

  /// Snapshot of the operation counters. Accounting is atomic, so the
  /// snapshot is race-free even while other threads read from the store.
  StoreStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  const std::string& root() const { return root_; }
  /// The cost model this store charges.
  const StoreLatencyModel& latency() const { return latency_; }

 private:
  friend class BlobWriteStream;
  Status ValidateName(const std::string& name) const;
  void Charge(uint64_t bytes);

  Env* env_;
  std::string root_;
  StoreLatencyModel latency_;
  SimulatedClock* sim_clock_;
  AtomicStoreStats stats_;
};

}  // namespace mmm

#endif  // MMM_STORAGE_FILE_STORE_H_
