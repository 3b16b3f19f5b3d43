#ifndef MMM_STORAGE_CAS_IFACE_H_
#define MMM_STORAGE_CAS_IFACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace mmm {

/// \brief Write-path seam between StoreBatch and the content-addressed
/// chunk store (src/cas/), kept abstract here so mmm_storage never depends
/// on mmm_cas.
///
/// One session covers exactly one batch commit:
///
///   1. StoreBatch calls TransformWrite for every staged blob write (in
///      staging order, after its producer has run). The session may rewrite
///      the payload into a chunk manifest; the chunks it names that are
///      neither live in the store nor already added by this session go
///      into the session's pack.
///   2. TrackDelete is called for every staged blob retirement, so deleting
///      a chunked blob decrements its chunks instead of leaking them.
///   3. TakePack hands back the one pack blob holding the commit's new
///      chunks (none if every chunk deduplicated). The batch stages it
///      ahead of every other write, so no manifest lands before its chunks.
///      The pack is unique to the commit, so a rollback may delete it.
///   4. After the commit is durable, Applied() folds the session's refcount
///      deltas and chunk locations into the index, reclaims packs that no
///      longer hold a live chunk, and persists the index checkpoint. If the
///      commit fails, Aborted() drops the session; a pack that already
///      landed is rolled back by journal replay or reclaimed by the
///      untracked-pack sweep.
class CasWriteSession {
 public:
  virtual ~CasWriteSession() = default;

  /// A blob the batch must write as part of the commit.
  struct BlobWrite {
    std::string name;
    std::vector<uint8_t> data;
  };

  /// Possibly rewrites `*data` (the payload about to be stored under
  /// `name`) into a manifest. Leaves ineligible payloads untouched.
  virtual Status TransformWrite(const std::string& name,
                                std::vector<uint8_t>* data) = 0;

  /// Records that the commit retires blob `name` once durable.
  virtual Status TrackDelete(const std::string& name) = 0;

  /// The pack of this commit's new chunks; false if it has none. Call once,
  /// after the last TransformWrite.
  virtual bool TakePack(BlobWrite* pack) = 0;

  /// The commit is durable: apply refcount deltas, sweep, checkpoint.
  virtual Status Applied() = 0;

  /// The commit failed before becoming durable: discard the session.
  virtual void Aborted() = 0;
};

/// \brief Factory the batch asks for a per-commit session. Implemented by
/// CasStore (cas/cas_store.h); a null CasWriter on the batch means CAS is
/// off and every payload is stored verbatim.
class CasWriter {
 public:
  virtual ~CasWriter() = default;
  virtual std::unique_ptr<CasWriteSession> BeginSession() = 0;
};

}  // namespace mmm

#endif  // MMM_STORAGE_CAS_IFACE_H_
