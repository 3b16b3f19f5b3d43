#ifndef MMM_CORE_STREAMING_H_
#define MMM_CORE_STREAMING_H_

#include <memory>
#include <string>

#include "core/set_codec.h"

namespace mmm {

/// \brief Streams a Baseline-format full snapshot one model at a time.
///
/// The in-memory save path (BaselineApproach::SaveInitial) materializes the
/// whole parameter blob — ~100 MB for the paper's 5000-model fleet, but
/// prohibitive for the "n >> 1000" deployments the paper motivates when n
/// reaches the hundreds of thousands. The streaming writer appends each
/// model's parameters directly to the file store and keeps only a running
/// CRC, folded from the layer CRCs, and the layer CRC table (4 bytes per
/// layer), which Finish writes
/// after the floats, producing a byte-identical artifact that every reader
/// (full recovery, ranged selective recovery, validation) handles
/// unchanged.
///
/// \code
///   MMM_ASSIGN_OR_RETURN(auto writer,
///       StreamingSnapshotWriter::Begin(context, spec, fleet_size));
///   for (...) MMM_RETURN_NOT_OK(writer->Append(NextModelStateDict()));
///   MMM_ASSIGN_OR_RETURN(SaveResult saved, writer->Finish());
/// \endcode
///
/// The fleet size must be known up front (it defines the blob header).
/// Streaming composes with every reader but not with blob compression
/// (Begin rejects a context with a codec configured).
class StreamingSnapshotWriter {
 public:
  /// Starts a streaming save of exactly `num_models` models.
  static Result<std::unique_ptr<StreamingSnapshotWriter>> Begin(
      const StoreContext& context, const ArchitectureSpec& spec,
      size_t num_models);

  /// Appends the next model. Keys/shapes must match the architecture.
  Status Append(const StateDict& model);

  /// Writes the layer CRC table and the CRC footer, the architecture blob,
  /// and the set document.
  /// Fails unless exactly `num_models` models were appended. The writer is
  /// unusable afterwards.
  Result<SaveResult> Finish();

  /// The id the set will be saved under.
  const std::string& set_id() const { return set_id_; }
  size_t appended() const { return appended_; }

 private:
  StreamingSnapshotWriter(const StoreContext& context, ArchitectureSpec spec,
                          size_t num_models, std::string set_id);

  StoreContext context_;
  ArchitectureSpec spec_;
  ParamLayout layout_;
  size_t params_per_model_;
  std::vector<uint32_t> layer_ops_;  ///< LayerCombineOps(layout_)
  size_t num_models_;
  std::string set_id_;
  std::string blob_name_;
  size_t appended_ = 0;
  uint32_t crc_ = 0;
  std::vector<uint32_t> layer_crcs_;  ///< the table, one entry per layer
  bool finished_ = false;
  StatsCapture capture_;
};

}  // namespace mmm

#endif  // MMM_CORE_STREAMING_H_
