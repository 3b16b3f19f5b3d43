#include "core/set_codec.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "cas/blob_io.h"
#include "core/blob_formats.h"
#include "serialize/compress.h"
#include "serialize/crc32.h"
#include "storage/range_planner.h"

namespace mmm {

JsonValue SetDocument::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("_id", id);
  json.Set("approach", approach);
  json.Set("kind", kind);
  json.Set("base_set_id", base_set_id);
  json.Set("family", family);
  json.Set("num_models", num_models);
  json.Set("chain_depth", chain_depth);
  json.Set("arch_blob", arch_blob);
  json.Set("param_blob", param_blob);
  json.Set("hash_blob", hash_blob);
  json.Set("diff_blob", diff_blob);
  json.Set("prov_blob", prov_blob);
  return json;
}

Result<SetDocument> SetDocument::FromJson(const JsonValue& json) {
  SetDocument doc;
  MMM_ASSIGN_OR_RETURN(doc.id, json.GetString("_id"));
  MMM_ASSIGN_OR_RETURN(doc.approach, json.GetString("approach"));
  doc.kind = json.GetStringOr("kind", "full");
  doc.base_set_id = json.GetStringOr("base_set_id", "");
  doc.family = json.GetStringOr("family", "");
  doc.num_models = static_cast<uint64_t>(json.GetInt64Or("num_models", 0));
  doc.chain_depth = static_cast<uint64_t>(json.GetInt64Or("chain_depth", 0));
  doc.arch_blob = json.GetStringOr("arch_blob", "");
  doc.param_blob = json.GetStringOr("param_blob", "");
  doc.hash_blob = json.GetStringOr("hash_blob", "");
  doc.diff_blob = json.GetStringOr("diff_blob", "");
  doc.prov_blob = json.GetStringOr("prov_blob", "");
  return doc;
}

StatsCapture::StatsCapture(const StoreContext& context)
    : context_(context),
      file_bytes_written_(context.file_store->stats().bytes_written),
      file_writes_(context.file_store->stats().write_ops),
      doc_bytes_written_(context.doc_store->stats().bytes_written),
      doc_writes_(context.doc_store->stats().write_ops),
      sim_nanos_(context.sim_clock != nullptr ? context.sim_clock->nanos() : 0),
      thread_sim_nanos_(SimulatedClock::ThreadNanos()) {}

void StatsCapture::FillSave(SaveResult* result) const {
  result->bytes_written =
      (context_.file_store->stats().bytes_written - file_bytes_written_) +
      (context_.doc_store->stats().bytes_written - doc_bytes_written_);
  result->file_store_writes =
      context_.file_store->stats().write_ops - file_writes_;
  result->doc_store_writes = context_.doc_store->stats().write_ops - doc_writes_;
  result->simulated_store_nanos =
      context_.sim_clock != nullptr ? context_.sim_clock->nanos() - sim_nanos_ : 0;
}

void StatsCapture::FillRecover(RecoverStats* stats) const {
  if (stats == nullptr) return;
  // Thread-local delta: a recovery charges the clock only from the thread it
  // runs on, so this is exact per request even when other requests advance
  // the shared clock concurrently.
  stats->simulated_store_nanos =
      context_.sim_clock != nullptr
          ? SimulatedClock::ThreadNanos() - thread_sim_nanos_
          : 0;
}

std::string EncodeArchBlob(const ArchitectureSpec& spec) {
  JsonValue json = JsonValue::Object();
  json.Set("architecture", spec.ToJson());
  // The explicit layout tells recovery how to slice the parameter blob
  // without rebuilding it from layer semantics.
  JsonValue layout_array = JsonValue::Array();
  for (const auto& [key, shape] : LayoutOf(spec)) {
    JsonValue entry = JsonValue::Object();
    entry.Set("key", key);
    JsonValue dims = JsonValue::Array();
    for (size_t d : shape) dims.Append(static_cast<int64_t>(d));
    entry.Set("shape", std::move(dims));
    layout_array.Append(std::move(entry));
  }
  json.Set("param_layout", std::move(layout_array));
  return json.Dump();
}

Result<ArchitectureSpec> DecodeArchBlob(const std::string& text) {
  MMM_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text));
  MMM_ASSIGN_OR_RETURN(const JsonValue* arch, json.Get("architecture"));
  MMM_ASSIGN_OR_RETURN(ArchitectureSpec spec, ArchitectureSpec::FromJson(*arch));
  // Cross-check the stored layout against the derived one.
  MMM_ASSIGN_OR_RETURN(const JsonValue* layout_array, json.Get("param_layout"));
  ParamLayout layout = LayoutOf(spec);
  if (layout_array->ArraySize() != layout.size()) {
    return Status::Corruption("arch blob layout size mismatch");
  }
  return spec;
}

Status StageFullSnapshot(const StoreContext& context, StoreBatch* batch,
                         const std::string& set_id, const ModelSet& set,
                         SetDocument* doc) {
  doc->arch_blob = set_id + ".arch.json";
  doc->param_blob = set_id + ".params.bin";
  batch->PutBlobString(doc->arch_blob, EncodeArchBlob(set.spec));
  // The parameter encode dominates a snapshot save; it streams on a
  // pipeline lane so it overlaps with the batch's other work.
  const ModelSet* set_ptr = &set;
  batch->PutBlobDeferred(
      doc->param_blob,
      [set_ptr](BlobSink* sink) { return EncodeParamBlob(*set_ptr, sink); },
      context.blob_compression);
  doc->kind = "full";
  doc->chain_depth = 0;
  doc->family = set.spec.family;
  doc->num_models = set.models.size();
  return Status::OK();
}

Status WriteFullSnapshot(const StoreContext& context, const std::string& set_id,
                         const ModelSet& set, SetDocument* doc) {
  StoreBatch batch = MakeBatch(context);
  MMM_RETURN_NOT_OK(StageFullSnapshot(context, &batch, set_id, set, doc));
  return batch.Commit();
}

Status StreamParamBlob(const StoreContext& context,
                       const std::string& blob_name,
                       const ArchitectureSpec& spec, uint64_t num_models,
                       ParamBlobStreamDecoder::LayerSink sink,
                       std::vector<uint32_t>* layer_crcs) {
  // Incremental stages chained window-by-window: CAS reassembly, blob
  // decompression for a framed blob, param decode. A raw blob skips the
  // decompressor, which would only copy it; its head is held until the
  // frame magic can be told apart. The decoder is constructed lazily, on
  // the first decompressed bytes, because a framed blob's decompressed size
  // is only known once its header has streamed.
  //
  // A chunked raw blob's CRC is checked by the CAS read, combined from the
  // chunk CRCs it checked (CasStreamInfo::crc). Since the footer is the CRC
  // of the bytes before it, the blob's footer holds exactly when that CRC
  // is Crc32::kResidue, so the decoder takes no CRC of its own and every
  // byte gets one CRC pass. Other blobs are checked by the decoder.
  CasStreamInfo info;
  enum class Shape : uint8_t { kUnknown, kRaw, kFramed };
  Shape shape = Shape::kUnknown;
  std::vector<uint8_t> head;
  BlobDecompressor decompressor;
  std::optional<ParamBlobStreamDecoder> decoder;
  std::vector<uint8_t> ready;
  const auto footer_checked = [&] {
    return shape == Shape::kRaw && info.crc.has_value();
  };
  auto decode = [&](std::span<const uint8_t> bytes) -> Status {
    if (!decoder.has_value()) {
      decoder.emplace(spec, decompressor.raw_size().value_or(info.size),
                      num_models, std::move(sink), footer_checked());
    }
    return bytes.empty() ? Status::OK() : decoder->Feed(bytes);
  };
  auto take = [&](std::span<const uint8_t> bytes) -> Status {
    if (shape == Shape::kRaw) return decode(bytes);
    MMM_RETURN_NOT_OK(decompressor.Feed(bytes, &ready));
    if (ready.empty()) return Status::OK();
    Status status = decode(ready);
    ready.clear();
    return status;
  };
  // Settles the shape from the head and passes the head on.
  auto settle = [&]() -> Status {
    shape = IsFramedBlob(head) ? Shape::kFramed : Shape::kRaw;
    Status status = take(head);
    head.clear();
    head.shrink_to_fit();
    return status;
  };
  MMM_RETURN_NOT_OK(CasStreamBlob(
      context.file_store, context.cas, blob_name, context.stream_window_bytes,
      [&](const CasStreamInfo& opened) -> Status {
        info = opened;
        return Status::OK();
      },
      [&](std::span<const uint8_t> window) -> Status {
        if (shape != Shape::kUnknown) return take(window);
        head.insert(head.end(), window.begin(), window.end());
        return head.size() < kBlobFrameSniffBytes ? Status::OK() : settle();
      }));
  // A blob shorter than the sniff is raw.
  if (shape == Shape::kUnknown) MMM_RETURN_NOT_OK(settle());
  if (shape == Shape::kFramed) {
    MMM_RETURN_NOT_OK(decompressor.Finish(&ready));
    MMM_RETURN_NOT_OK(decode(ready));
  }
  // An empty blob: let the decoder produce the canonical error.
  MMM_RETURN_NOT_OK(decode({}));
  MMM_RETURN_NOT_OK(decoder->Finish());
  if (footer_checked() && *info.crc != Crc32::kResidue) {
    return Status::Corruption("blob crc mismatch");
  }
  if (layer_crcs != nullptr) *layer_crcs = decoder->layer_crcs();
  return Status::OK();
}

Result<ModelSet> ReadFullSnapshot(const StoreContext& context,
                                  const SetDocument& doc) {
  if (doc.arch_blob.empty() || doc.param_blob.empty()) {
    return Status::Corruption("set ", doc.id, " is not a full snapshot");
  }
  MMM_ASSIGN_OR_RETURN(ArchitectureSpec spec, ReadSnapshotSpec(context, doc));
  const size_t num_params = LayoutOf(spec).size();
  std::vector<StateDict> models;
  MMM_RETURN_NOT_OK(StreamParamBlob(
      context, doc.param_blob, spec, doc.num_models,
      [&](size_t model, size_t /*param*/, const std::string& key,
          Tensor tensor) -> Status {
        // The decoder checked the header's model count against the
        // document before the first layer, so the set is sized once.
        if (models.empty()) {
          models.resize(doc.num_models);
          for (StateDict& state : models) state.reserve(num_params);
        }
        models[model].emplace_back(key, std::move(tensor));
        return Status::OK();
      }));
  // Zero-parameter layouts emit no layers; the header, already checked
  // against the document, still counts models.
  models.resize(doc.num_models);
  ModelSet set;
  set.spec = std::move(spec);
  set.models = std::move(models);
  return set;
}

Status CheckIndices(const std::vector<size_t>& indices, uint64_t num_models) {
  for (size_t index : indices) {
    if (index >= num_models) {
      return Status::InvalidArgument("model index ", index,
                                     " out of range for set of ", num_models);
    }
  }
  return Status::OK();
}

Result<ArchitectureSpec> ReadSnapshotSpec(const StoreContext& context,
                                          const SetDocument& doc) {
  if (doc.arch_blob.empty()) {
    return Status::Corruption("set ", doc.id, " has no architecture blob");
  }
  MMM_ASSIGN_OR_RETURN(std::string text,
                       CasReadBlobString(context.file_store, context.cas,
                                         doc.arch_blob));
  return DecodeArchBlob(text);
}

Result<std::optional<ParamBlobLayout>> ReadRangedParamHeader(
    const StoreContext& context, const SetDocument& doc,
    const ParamLayout& layout) {
  const uint64_t per_model = LayoutNumel(layout);
  MMM_ASSIGN_OR_RETURN(uint64_t size, CasBlobSize(context.file_store,
                                                  context.cas, doc.param_blob));
  if (size != RawParamBlobSize(doc.num_models, per_model, layout.size())) {
    return std::optional<ParamBlobLayout>();
  }
  MMM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> prefix,
      CasReadBlobRange(context.file_store, context.cas, doc.param_blob, 0,
                       std::min<uint64_t>(size, kParamBlobMaxHeaderBytes)));
  auto header = ReadParamBlobHeader(prefix, layout.size());
  if (!header.ok()) return std::optional<ParamBlobLayout>();
  if (header.ValueOrDie().num_models != doc.num_models ||
      header.ValueOrDie().params_per_model != per_model) {
    return Status::Corruption("param blob header disagrees with set ", doc.id);
  }
  return std::optional<ParamBlobLayout>(header.ValueOrDie());
}

Result<std::vector<uint32_t>> ReadLayerCrcRows(const StoreContext& context,
                                               const std::string& blob_name,
                                               const ParamBlobLayout& blob,
                                               std::span<const size_t> models) {
  RangePlanner planner(context.file_store->latency());
  std::vector<size_t> range_of(models.size());
  for (size_t r = 0; r < models.size(); ++r) {
    range_of[r] =
        planner.Add(0, blob.CrcRowOffset(models[r]), blob.CrcRowBytes());
  }
  std::vector<uint32_t> out(models.size() * blob.num_layers);
  for (size_t i = 0, r = 0; i < planner.ranges().size(); ++i) {
    const RangePlanner::Range& range = planner.ranges()[i];
    MMM_ASSIGN_OR_RETURN(
        std::vector<uint8_t> bytes,
        CasReadBlobRange(context.file_store, context.cas, blob_name,
                         range.start, range.end - range.start));
    for (; r < models.size() && range_of[r] == i; ++r) {
      std::memcpy(out.data() + r * blob.num_layers,
                  bytes.data() + (blob.CrcRowOffset(models[r]) - range.start),
                  blob.CrcRowBytes());
    }
  }
  return out;
}

Result<std::vector<StateDict>> ReadModelsFromSnapshot(
    const StoreContext& context, const SetDocument& doc,
    const std::vector<size_t>& indices) {
  MMM_RETURN_NOT_OK(CheckIndices(indices, doc.num_models));
  MMM_ASSIGN_OR_RETURN(ArchitectureSpec spec, ReadSnapshotSpec(context, doc));
  const ParamLayout layout = LayoutOf(spec);

  // Ranged reads go through the CAS helpers so chunked blobs fetch only the
  // chunks overlapping the requested models, preserving the selective read
  // path.
  MMM_ASSIGN_OR_RETURN(std::optional<ParamBlobLayout> blob,
                       ReadRangedParamHeader(context, doc, layout));
  if (!blob.has_value()) {
    // Compressed or MMMPARM1: load everything, checked by the footer, then
    // select.
    MMM_ASSIGN_OR_RETURN(ModelSet set, ReadFullSnapshot(context, doc));
    std::vector<StateDict> out;
    out.reserve(indices.size());
    for (size_t index : indices) out.push_back(set.models[index]);
    return out;
  }

  std::vector<size_t> models = indices;
  std::sort(models.begin(), models.end());
  models.erase(std::unique(models.begin(), models.end()), models.end());
  MMM_ASSIGN_OR_RETURN(std::vector<uint32_t> crcs,
                       ReadLayerCrcRows(context, doc.param_blob, *blob, models));
  std::vector<StateDict> states;
  states.reserve(models.size());
  for (size_t r = 0; r < models.size(); ++r) {
    MMM_ASSIGN_OR_RETURN(
        std::vector<uint8_t> slice,
        CasReadBlobRange(context.file_store, context.cas, doc.param_blob,
                         blob->ModelOffset(models[r]), blob->ModelBytes()));
    size_t offset = 0;
    for (size_t p = 0; p < layout.size(); ++p) {
      const size_t bytes = Tensor::NumElements(layout[p].second) * sizeof(float);
      if (Crc32::Compute(std::span<const uint8_t>(slice).subspan(offset, bytes)) !=
          crcs[r * layout.size() + p]) {
        return Status::Corruption("layer (", models[r], ", ", p, ") of set ",
                                  doc.id, " fails its layer crc check");
      }
      offset += bytes;
    }
    MMM_ASSIGN_OR_RETURN(StateDict state, DecodeModelSlice(spec, slice));
    states.push_back(std::move(state));
  }
  std::vector<StateDict> out;
  out.reserve(indices.size());
  for (size_t index : indices) {
    auto it = std::lower_bound(models.begin(), models.end(), index);
    out.push_back(states[static_cast<size_t>(it - models.begin())]);
  }
  return out;
}

void StageSetDocument(StoreBatch* batch, const SetDocument& doc) {
  batch->InsertDocument(kSetCollection, doc.ToJson());
}

Status InsertSetDocument(const StoreContext& context, const SetDocument& doc) {
  StoreBatch batch = MakeBatch(context);
  StageSetDocument(&batch, doc);
  return batch.Commit();
}

Result<SetDocument> FetchSetDocument(const StoreContext& context,
                                     const std::string& set_id) {
  MMM_ASSIGN_OR_RETURN(JsonValue json,
                       context.doc_store->Get(kSetCollection, set_id));
  return SetDocument::FromJson(json);
}

Result<ModelSet> ModelSetApproach::Recover(const std::string& set_id,
                                           RecoverStats* stats) {
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  MMM_ASSIGN_OR_RETURN(ModelSet set, Recover(std::move(doc), stats));
  capture.FillRecover(stats);
  return set;
}

Result<std::vector<StateDict>> ModelSetApproach::RecoverModels(
    const std::string& set_id, const std::vector<size_t>& indices,
    RecoverStats* stats) {
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  MMM_ASSIGN_OR_RETURN(std::vector<StateDict> models,
                       RecoverModels(std::move(doc), indices, stats));
  capture.FillRecover(stats);
  return models;
}

}  // namespace mmm
