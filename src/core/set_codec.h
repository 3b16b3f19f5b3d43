#ifndef MMM_CORE_SET_CODEC_H_
#define MMM_CORE_SET_CODEC_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/approach.h"
#include "core/blob_formats.h"
#include "core/model_set.h"
#include "serialize/json.h"

namespace mmm {

/// \brief The per-set metadata document every approach writes to the
/// document store (one document per saved set — opportunity O1/O3).
struct SetDocument {
  std::string id;
  std::string approach;  ///< "mmlib-base" | "baseline" | "update" | "provenance"
  /// "full" = complete parameters stored; "delta" = Update diff vs base;
  /// "prov" = provenance record vs base.
  std::string kind = "full";
  std::string base_set_id;  ///< empty for initial sets / standalone snapshots
  std::string family;       ///< architecture family label
  uint64_t num_models = 0;
  /// Number of delta/prov hops to the nearest full snapshot (0 for "full").
  uint64_t chain_depth = 0;
  /// \name Artifact blob names in the file store ("" = absent).
  /// @{
  std::string arch_blob;
  std::string param_blob;
  std::string hash_blob;
  std::string diff_blob;
  std::string prov_blob;
  /// @}

  JsonValue ToJson() const;
  static Result<SetDocument> FromJson(const JsonValue& json);
};

/// \brief Snapshots store statistics to compute per-operation deltas.
///
/// Usage: construct before the operation, call FillSave / FillRecover after.
///
/// Saves diff the *shared* simulated clock: the write pipeline fans blob
/// charges out across executor lanes, so the calling thread's counter would
/// undercount. Recoveries run entirely on the calling thread, so FillRecover
/// diffs the thread-local counter instead — exact per request even when the
/// serving layer overlaps many recoveries on one shared clock.
class StatsCapture {
 public:
  explicit StatsCapture(const StoreContext& context);

  void FillSave(SaveResult* result) const;
  void FillRecover(RecoverStats* stats) const;

 private:
  const StoreContext& context_;
  uint64_t file_bytes_written_;
  uint64_t file_writes_;
  uint64_t doc_bytes_written_;
  uint64_t doc_writes_;
  uint64_t sim_nanos_;
  uint64_t thread_sim_nanos_;
};

/// \name Full-snapshot helpers (Baseline's save/load logic, reused by
/// Update's and Provenance's initial saves — paper §3.3/§3.4 both start
/// "using Baseline's logic").
/// @{

/// Stages the architecture blob + concatenated param blob for `set` under
/// `set_id` into `batch`, and fills the artifact names into `doc`. The
/// parameter encode (and compression) runs as a deferred work item on a
/// pipeline lane at commit time, so `set` must outlive the batch's
/// Commit().
Status StageFullSnapshot(const StoreContext& context, StoreBatch* batch,
                         const std::string& set_id, const ModelSet& set,
                         SetDocument* doc);

/// Single-op convenience over StageFullSnapshot: stages into a fresh batch
/// and commits it immediately.
Status WriteFullSnapshot(const StoreContext& context, const std::string& set_id,
                         const ModelSet& set, SetDocument* doc);

/// Reads a full snapshot described by `doc`. The parameter blob is pulled
/// window by window through StreamParamBlob, so neither the stored bytes nor
/// the decompressed blob is ever held whole (DESIGN.md §12).
Result<ModelSet> ReadFullSnapshot(const StoreContext& context,
                                  const SetDocument& doc);

/// Streams a stored parameter blob (possibly compressed, possibly CAS-
/// chunked) through the incremental decode pipeline, handing each finished
/// layer to `sink` in (model, param) order the moment its bytes are
/// complete. The blob must hold exactly `num_models` models (the set
/// document's count); the header is checked before any layer is emitted.
/// Accepts exactly the blobs DecodeParamBlob accepts; shuffle-compressed
/// blobs degenerate to decode-at-finish, since the byte-plane transpose is
/// global. The CRC footer is checked last, after the sink has seen every
/// layer, so a sink must not publish a layer anywhere until this returns OK.
/// Each byte gets one CRC pass: a CAS-chunked raw blob's footer is checked
/// through the CRC its chunks' checks yield, any other blob's by the
/// decoder.
/// With `layer_crcs`, it receives the blob's layer CRC table (empty for
/// MMMPARM1), unchecked against the layers.
Status StreamParamBlob(const StoreContext& context,
                       const std::string& blob_name,
                       const ArchitectureSpec& spec, uint64_t num_models,
                       ParamBlobStreamDecoder::LayerSink sink,
                       std::vector<uint32_t>* layer_crcs = nullptr);

/// Reads only the models at `indices` from a full snapshot. A raw MMMPARM2
/// parameter blob is accessed with ranged store reads, one per distinct
/// model plus one planned read of their layer CRC rows, and every layer is
/// checked against its row before it is decoded; any other blob is read
/// whole and checked by its footer. The result is parallel to `indices`.
Result<std::vector<StateDict>> ReadModelsFromSnapshot(
    const StoreContext& context, const SetDocument& doc,
    const std::vector<size_t>& indices);

/// The header of `doc`'s param blob if it can be read by range: a raw
/// MMMPARM2 blob of the size `doc` and `layout` imply. Null when it is to
/// be read whole, checked by its footer: compressed, MMMPARM1, or of any
/// other size. A header that parses but disagrees with `doc` is
/// Corruption.
Result<std::optional<ParamBlobLayout>> ReadRangedParamHeader(
    const StoreContext& context, const SetDocument& doc,
    const ParamLayout& layout);

/// Reads the layer CRC rows of the models `models` (sorted, distinct) of
/// the raw MMMPARM2 blob `blob_name` laid out as `blob`, in one planned
/// ranged read: entry r * num_layers + p is layer p of model models[r].
Result<std::vector<uint32_t>> ReadLayerCrcRows(const StoreContext& context,
                                               const std::string& blob_name,
                                               const ParamBlobLayout& blob,
                                               std::span<const size_t> models);

/// Reads the snapshot's architecture.
Result<ArchitectureSpec> ReadSnapshotSpec(const StoreContext& context,
                                          const SetDocument& doc);

/// Returns InvalidArgument unless every index is < num_models.
Status CheckIndices(const std::vector<size_t>& indices, uint64_t num_models);
/// @}

/// Stages the set document for insertion into the metadata collection.
/// `doc` is captured by value at staging time, so every field must be final.
void StageSetDocument(StoreBatch* batch, const SetDocument& doc);

/// Single-op convenience over StageSetDocument: stages into a fresh batch
/// and commits it immediately.
Status InsertSetDocument(const StoreContext& context, const SetDocument& doc);

/// Fetches and parses a set document.
Result<SetDocument> FetchSetDocument(const StoreContext& context,
                                     const std::string& set_id);

/// Encodes the architecture blob content (spec + explicit parameter layout).
std::string EncodeArchBlob(const ArchitectureSpec& spec);

/// Decodes an architecture blob.
Result<ArchitectureSpec> DecodeArchBlob(const std::string& text);

}  // namespace mmm

#endif  // MMM_CORE_SET_CODEC_H_
