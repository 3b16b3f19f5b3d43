#ifndef MMM_STORAGE_ENV_H_
#define MMM_STORAGE_ENV_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace mmm {

/// \brief Filesystem abstraction (RocksDB-style Env).
///
/// The stores talk to the filesystem exclusively through an Env so tests can
/// substitute an in-memory implementation and failure-injection wrappers.
class Env {
 public:
  virtual ~Env() = default;

  /// Writes `data` to `path`, replacing any existing file.
  virtual Status WriteFile(const std::string& path,
                           std::span<const uint8_t> data) = 0;

  /// Appends `data` to `path`, creating the file if needed.
  virtual Status AppendToFile(const std::string& path,
                              std::span<const uint8_t> data) = 0;

  /// Reads the whole file.
  virtual Result<std::vector<uint8_t>> ReadFile(const std::string& path) = 0;

  /// Reads `length` bytes starting at `offset`. The contract is identical
  /// for every Env (including FaultInjectionEnv's passthrough, which only
  /// adds its path checks on top):
  ///  - `offset + length <= size` succeeds, evaluated overflow-safely — a
  ///    huge `offset`/`length` pair whose uint64 sum wraps is OutOfRange,
  ///    never a wrapped read;
  ///  - a zero-length read succeeds (empty result) at any `offset <= size`,
  ///    including exactly at EOF;
  ///  - `offset > size` is OutOfRange even when `length == 0`.
  /// Modeled latency is charged by FileStore, not here, so every Env is
  /// charged identically by construction (storage/file_store.h).
  virtual Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                                     uint64_t offset,
                                                     uint64_t length) = 0;

  virtual Result<bool> FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;

  /// Creates a directory and all missing parents.
  virtual Status CreateDirs(const std::string& path) = 0;

  /// Recursively removes a directory tree (no-op if absent).
  virtual Status RemoveDirs(const std::string& path) = 0;

  /// Lists regular files directly under `path` (names, not full paths),
  /// sorted lexicographically.
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;

  /// The process-wide POSIX-filesystem Env.
  static Env* Default();
};

/// \brief Heap-backed Env for unit tests (no disk access). Thread-safe, so
/// it can stand in for the filesystem under the parallel write pipeline.
class InMemoryEnv : public Env {
 public:
  Status WriteFile(const std::string& path, std::span<const uint8_t> data) override;
  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override;
  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override;
  Result<bool> FileExists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Status RemoveDirs(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;

 private:
  mutable Mutex mu_ MMM_LOCK_RANK(150);
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files_
      MMM_GUARDED_BY(mu_);
};

/// \brief Numbers the writes of a batch that fans its blobs out over
/// worker lanes by *staging* order, not arrival order, for
/// FaultInjectionEnv.
///
/// A batch creates one group sized to its blob count and wraps all writes
/// of blob `i` in a ScopedWriteOrderTag carrying `i`. A streamed blob takes
/// one write per window, and how many only shows once it is written. Write
/// `w` of blob `i` is numbered `base + (writes of blobs 0..i-1) + w`, where
/// `base` is the first free index when the group's first write arrives:
/// exactly the number it gets when one lane issues the blobs in staging
/// order. So a fault plan hits the same (blob, window) at any lane count.
/// Under an armed plan a tagged write waits until every lower-numbered
/// blob's tag is gone; since lanes take their blobs in increasing order,
/// the lowest unfinished blob is always running, so the wait ends. A group
/// is single-use: one batch commit against one env.
class WriteOrderGroup {
 public:
  explicit WriteOrderGroup(size_t size) : writes_(size, -1) {}

  size_t size() const { return writes_.size(); }

 private:
  friend class FaultInjectionEnv;
  friend class ScopedWriteOrderTag;
  /// Blob `member` is done after `writes` writes.
  void Finish(size_t member, int64_t writes);

  mutable Mutex mu_ MMM_LOCK_RANK(138);
  CondVar finished_;
  /// Writes of each blob once its tag is gone; -1 before.
  std::vector<int64_t> writes_ MMM_GUARDED_BY(mu_);
  /// First write index of the group; -1 until a member write arrives.
  int64_t base_ MMM_GUARDED_BY(mu_) = -1;
};

/// \brief RAII tag marking every env write on this thread as a write of
/// blob `index` of `group` (see WriteOrderGroup). Nesting is not supported.
class ScopedWriteOrderTag {
 public:
  ScopedWriteOrderTag(WriteOrderGroup* group, size_t index);
  ~ScopedWriteOrderTag();

  ScopedWriteOrderTag(const ScopedWriteOrderTag&) = delete;
  ScopedWriteOrderTag& operator=(const ScopedWriteOrderTag&) = delete;
};

/// \brief Env decorator that fails the N-th write, for recovery tests.
///
/// Fault semantics: every WriteFile/AppendToFile gets a write index; after
/// FailWritesAfter(n), writes with index >= n fail with IOError (and do not
/// reach the base env), writes with a smaller index still succeed. Reads,
/// deletes, and directory ops always pass through — unless a path-prefix
/// fault (FailPathsUnder, the shard-kill model) covers them.
///
/// Indices are assigned in *staging* order: an untagged write takes the next
/// free index on arrival, while writes tagged via WriteOrderGroup /
/// ScopedWriteOrderTag are numbered by (blob, window) in staging order from
/// the group's base. Since a batch's writes fan out between two untagged
/// writes, the numbering is the same no matter how many lanes race — so a
/// fault plan hits the same logical write at any lane count, which is what
/// makes crash-point sweeps reproducible under the parallel pipeline.
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  /// After this call, every write whose index is >= `fail_after` fails with
  /// IOError. Indices already assigned are unaffected.
  void FailWritesAfter(int64_t fail_after) {
    MutexLock lock(mu_);
    fail_after_ = fail_after;
  }
  /// Clears the failure plan.
  void Heal() {
    MutexLock lock(mu_);
    fail_after_ = -1;
  }

  /// \name Shard-kill faults.
  ///
  /// FailPathsUnder makes every read *and* write whose path starts with
  /// `prefix` fail with IOError — the cluster tests' model of a shard whose
  /// store subtree became unreachable (node down). Unlike write faults, the
  /// durable bytes are untouched: HealPaths models mounting the surviving
  /// store on a replacement node, after which the coordinator's failover
  /// (reopen + journal replay) takes over. Path faults consume no write
  /// indices, so an armed write-sweep plan is unaffected.
  /// @{
  void FailPathsUnder(const std::string& prefix) {
    MutexLock lock(mu_);
    dead_prefixes_.push_back(prefix);
  }
  void HealPaths() {
    MutexLock lock(mu_);
    dead_prefixes_.clear();
  }
  /// @}

  /// Number of write indices assigned so far (failed writes included).
  int64_t write_count() const {
    MutexLock lock(mu_);
    return next_index_;
  }

  Status WriteFile(const std::string& path, std::span<const uint8_t> data) override;
  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override;
  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override;
  Result<bool> FileExists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Status RemoveDirs(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;

 private:
  Status MaybeFail();
  Status CheckPath(const std::string& path) const;

  Env* base_;
  mutable Mutex mu_ MMM_LOCK_RANK(140);
  /// Path prefixes whose reads and writes fail (see FailPathsUnder).
  std::vector<std::string> dead_prefixes_ MMM_GUARDED_BY(mu_);
  int64_t fail_after_ MMM_GUARDED_BY(mu_) = -1;
  /// Next unassigned write index (== total writes seen once no group is in
  /// flight).
  int64_t next_index_ MMM_GUARDED_BY(mu_) = 0;
};

}  // namespace mmm

#endif  // MMM_STORAGE_ENV_H_
