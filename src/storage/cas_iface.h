#ifndef MMM_STORAGE_CAS_IFACE_H_
#define MMM_STORAGE_CAS_IFACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/blob_sink.h"

namespace mmm {

/// \brief Write-path seam between StoreBatch and the content-addressed
/// chunk store (src/cas/), kept abstract here so mmm_storage never depends
/// on mmm_cas.
///
/// One session covers exactly one batch commit:
///
///   1. pack_name() is the name of the one pack blob the commit may write,
///      reserved when the session begins so the journal's `begin` record
///      can name it. The pack is unique to the commit, so a rollback may
///      delete it.
///   2. TrackDelete is called for every staged blob retirement, so deleting
///      a chunked blob decrements its chunks instead of leaking them.
///   3. StoreBatch streams every staged blob write, in staging order,
///      through a sink from OpenBlob. The sink cuts the bytes into chunks
///      as they arrive and appends each chunk that is neither live in the
///      store nor already added by this session to the pack, through the
///      `pack` sink the batch passes. Its Finish returns what to store
///      under the blob's name: a manifest, or the payload itself if it
///      stays verbatim.
///   4. FinishPack appends the pack's index and footer to `pack`, or
///      reports that no chunk was new and nothing went to `pack`. The batch
///      writes the manifests only after the pack is whole, so no manifest
///      lands before its chunks.
///   5. After the commit is durable, Applied() folds the session's refcount
///      deltas and chunk locations into the index and reclaims packs that
///      no longer hold a live chunk; it writes nothing else. If the
///      commit fails, Aborted() drops the session; a pack that already
///      landed is rolled back by journal replay or reclaimed by the
///      untracked-pack sweep.
class CasBlobSink : public BlobSink {
 public:
  /// Ends the blob: the bytes to store under its name.
  virtual Result<std::vector<uint8_t>> Finish() = 0;
};

class CasWriteSession {
 public:
  virtual ~CasWriteSession() = default;

  virtual const std::string& pack_name() const = 0;

  /// Starts blob `name`; its new chunks go to `pack`. One blob at a time.
  virtual Result<std::unique_ptr<CasBlobSink>> OpenBlob(
      const std::string& name, BlobSink* pack) = 0;

  /// Records that the commit retires blob `name` once durable.
  virtual Status TrackDelete(const std::string& name) = 0;

  /// Appends the pack's index and footer to the pack sink OpenBlob was
  /// given; false if no chunk was new, in which case nothing was ever
  /// appended to it. Call once, after the last blob.
  virtual Result<bool> FinishPack() = 0;

  /// The commit is durable: apply refcount deltas and sweep.
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
