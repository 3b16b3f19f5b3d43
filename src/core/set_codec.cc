#include "core/set_codec.h"

#include <optional>

#include "cas/blob_io.h"
#include "core/blob_formats.h"

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
  // The parameter encode dominates a snapshot save; produce it on a
  // pipeline lane so it overlaps with the batch's other work.
  const ModelSet* set_ptr = &set;
  const Compression compression = context.blob_compression;
  batch->PutBlobDeferred(
      doc->param_blob, [set_ptr, compression]() -> Result<std::vector<uint8_t>> {
        std::vector<uint8_t> params = EncodeParamBlob(*set_ptr);
        if (compression != Compression::kNone) {
          params = CompressBlob(compression, params);
        }
        return params;
      });
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
                       ParamBlobStreamDecoder::LayerSink sink) {
  // Three incremental stages chained window-by-window: CAS reassembly →
  // blob decompression → param decode. The decoder is constructed lazily,
  // on the first decompressed bytes, because the decompressed size is only
  // known once the blob header has streamed (raw bytes fall back to the
  // stored logical size — for them the two are the same).
  BlobDecompressor decompressor;
  std::optional<ParamBlobStreamDecoder> decoder;
  uint64_t stored_logical = 0;
  std::vector<uint8_t> ready;
  auto start_decoder = [&]() {
    decoder.emplace(spec, decompressor.raw_size().value_or(stored_logical),
                    num_models, std::move(sink));
  };
  auto drain = [&]() -> Status {
    if (ready.empty()) return Status::OK();
    if (!decoder.has_value()) start_decoder();
    Status status = decoder->Feed(ready);
    ready.clear();
    return status;
  };
  MMM_RETURN_NOT_OK(CasStreamBlob(
      context.file_store, context.cas, blob_name, context.stream_window_bytes,
      [&](uint64_t logical_size) -> Status {
        stored_logical = logical_size;
        return Status::OK();
      },
      [&](std::span<const uint8_t> window) -> Status {
        MMM_RETURN_NOT_OK(decompressor.Feed(window, &ready));
        return drain();
      }));
  MMM_RETURN_NOT_OK(decompressor.Finish(&ready));
  MMM_RETURN_NOT_OK(drain());
  // An empty blob: let the decoder produce the canonical error.
  if (!decoder.has_value()) start_decoder();
  return decoder->Finish();
}

Result<ModelSet> ReadFullSnapshot(const StoreContext& context,
                                  const SetDocument& doc) {
  if (doc.arch_blob.empty() || doc.param_blob.empty()) {
    return Status::Corruption("set ", doc.id, " is not a full snapshot");
  }
  MMM_ASSIGN_OR_RETURN(ArchitectureSpec spec, ReadSnapshotSpec(context, doc));
  std::vector<StateDict> models;
  MMM_RETURN_NOT_OK(StreamParamBlob(
      context, doc.param_blob, spec, doc.num_models,
      [&](size_t model, size_t /*param*/, const std::string& key,
          Tensor tensor) -> Status {
        if (models.size() <= model) models.resize(model + 1);
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

Result<std::vector<StateDict>> ReadModelsFromSnapshot(
    const StoreContext& context, const SetDocument& doc,
    const std::vector<size_t>& indices) {
  MMM_RETURN_NOT_OK(CheckIndices(indices, doc.num_models));
  MMM_ASSIGN_OR_RETURN(ArchitectureSpec spec, ReadSnapshotSpec(context, doc));

  // Peek at the blob header: compressed blobs cannot be range-read. Ranged
  // reads go through the CAS helpers so chunked blobs fetch only the chunks
  // overlapping the requested models, preserving the selective read path.
  MMM_ASSIGN_OR_RETURN(uint64_t blob_size,
                       CasBlobSize(context.file_store, context.cas,
                                   doc.param_blob));
  uint64_t prefix_len = std::min<uint64_t>(blob_size, kParamBlobMaxHeaderBytes);
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> prefix,
                       CasReadBlobRange(context.file_store, context.cas,
                                        doc.param_blob, 0, prefix_len));
  auto header = ReadParamBlobHeader(prefix);
  if (!header.ok()) {
    // Compressed or legacy layout: load everything, then select.
    MMM_ASSIGN_OR_RETURN(ModelSet set, ReadFullSnapshot(context, doc));
    std::vector<StateDict> out;
    out.reserve(indices.size());
    for (size_t index : indices) out.push_back(set.models[index]);
    return out;
  }

  const ParamBlobLayout& layout = header.ValueOrDie();
  if (layout.num_models != doc.num_models ||
      layout.params_per_model != LayoutNumel(LayoutOf(spec))) {
    return Status::Corruption("param blob header disagrees with set ", doc.id);
  }
  std::vector<StateDict> out;
  out.reserve(indices.size());
  for (size_t index : indices) {
    MMM_ASSIGN_OR_RETURN(
        std::vector<uint8_t> slice,
        CasReadBlobRange(context.file_store, context.cas, doc.param_blob,
                         layout.ModelOffset(index), layout.ModelBytes()));
    MMM_ASSIGN_OR_RETURN(StateDict state, DecodeModelSlice(spec, slice));
    out.push_back(std::move(state));
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

}  // namespace mmm
