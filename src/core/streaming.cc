#include "core/streaming.h"

#include "core/blob_formats.h"
#include "serialize/binary_io.h"
#include "serialize/crc32.h"

namespace mmm {

StreamingSnapshotWriter::StreamingSnapshotWriter(const StoreContext& context,
                                                 ArchitectureSpec spec,
                                                 size_t num_models,
                                                 std::string set_id)
    : context_(context),
      spec_(std::move(spec)),
      layout_(LayoutOf(spec_)),
      params_per_model_(LayoutNumel(layout_)),
      layer_ops_(LayerCombineOps(layout_)),
      num_models_(num_models),
      set_id_(std::move(set_id)),
      blob_name_(set_id_ + ".params.bin"),
      capture_(context_) {}

Result<std::unique_ptr<StreamingSnapshotWriter>> StreamingSnapshotWriter::Begin(
    const StoreContext& context, const ArchitectureSpec& spec,
    size_t num_models) {
  MMM_RETURN_NOT_OK(context.Validate());
  if (context.blob_compression != Compression::kNone) {
    return Status::Unimplemented(
        "streaming saves do not compose with blob compression");
  }
  if (LayoutOf(spec).empty()) {
    return Status::InvalidArgument("architecture '", spec.family,
                                   "' has no parameters");
  }
  std::string set_id = context.ids->Next("set");
  auto writer = std::unique_ptr<StreamingSnapshotWriter>(
      new StreamingSnapshotWriter(context, spec, num_models, std::move(set_id)));

  std::vector<uint8_t> header =
      EncodeParamBlobHeader(num_models, writer->params_per_model_);
  MMM_RETURN_NOT_OK(context.file_store->Put(writer->blob_name_, header));
  writer->crc_ = Crc32::Extend(0, header);
  return writer;
}

Status StreamingSnapshotWriter::Append(const StateDict& model) {
  if (finished_) {
    return Status::InvalidArgument("streaming writer already finished");
  }
  if (appended_ >= num_models_) {
    return Status::InvalidArgument("streaming writer declared ", num_models_,
                                   " models; cannot append more");
  }
  if (model.size() != layout_.size()) {
    return Status::InvalidArgument("model has ", model.size(),
                                   " parameters, layout expects ",
                                   layout_.size());
  }
  BinaryWriter writer;
  for (size_t p = 0; p < layout_.size(); ++p) {
    if (model[p].first != layout_[p].first ||
        model[p].second.shape() != layout_[p].second) {
      return Status::InvalidArgument("model parameter ", p,
                                     " does not match layout ('",
                                     model[p].first, "')");
    }
    writer.WriteFloatSpan(model[p].second.data());
    const uint32_t layer = LayerCrc(model[p].second);
    layer_crcs_.push_back(layer);
    crc_ = Crc32::CombineOp(crc_, layer, layer_ops_[p]);
  }
  MMM_RETURN_NOT_OK(context_.file_store->Append(blob_name_, writer.buffer()));
  ++appended_;
  return Status::OK();
}

Result<SaveResult> StreamingSnapshotWriter::Finish() {
  if (finished_) {
    return Status::InvalidArgument("streaming writer already finished");
  }
  if (appended_ != num_models_) {
    return Status::InvalidArgument("streaming writer declared ", num_models_,
                                   " models but ", appended_,
                                   " were appended");
  }
  finished_ = true;
  // The layer CRC table, then the CRC footer over everything before it
  // (little-endian), matching EncodeParamBlob's framing.
  BinaryWriter trailer;
  for (uint32_t crc : layer_crcs_) trailer.WriteUint32(crc);
  crc_ = Crc32::Extend(crc_, trailer.buffer());
  trailer.WriteUint32(crc_);
  MMM_RETURN_NOT_OK(context_.file_store->Append(blob_name_, trailer.buffer()));

  SetDocument doc;
  doc.id = set_id_;
  doc.approach = "baseline";
  doc.kind = "full";
  doc.family = spec_.family;
  doc.num_models = num_models_;
  doc.arch_blob = set_id_ + ".arch.json";
  doc.param_blob = blob_name_;
  StoreBatch batch = MakeBatch(context_);
  // Only the trailer commits through the batch: the parameter blob itself
  // was streamed directly (Begin/Append), outside journal protection.
  batch.AnnotateCommit(set_id_, doc.approach);
  batch.PutBlobString(doc.arch_blob, EncodeArchBlob(spec_));
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  SaveResult result;
  result.set_id = set_id_;
  capture_.FillSave(&result);
  return result;
}

}  // namespace mmm
