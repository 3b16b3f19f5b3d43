#include "core/blob_formats.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/simd.h"
#include "serialize/binary_io.h"
#include "serialize/crc32.h"
#include "tensor/tensor_serialize.h"

namespace mmm {
namespace {

constexpr char kStateDictMagic[] = "MMMSDIC1";
constexpr char kParamMagic[] = "MMMPARM2";
constexpr char kHashMagic[] = "MMMHASH1";
constexpr char kDiffMagic[] = "MMMDIFF1";

void AppendCrcFooter(BinaryWriter* writer) {
  uint32_t crc = Crc32::Compute(writer->buffer());
  writer->WriteUint32(crc);
}

/// Validates the CRC footer and returns the payload without it.
Result<std::span<const uint8_t>> CheckCrcFooter(std::span<const uint8_t> blob) {
  if (blob.size() < 4) return Status::Corruption("blob too small for crc footer");
  std::span<const uint8_t> payload = blob.subspan(0, blob.size() - 4);
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(blob[blob.size() - 4 + i]) << (8 * i);
  }
  if (Crc32::Compute(payload) != stored) {
    return Status::Corruption("blob crc mismatch");
  }
  return payload;
}

Status CheckMagic(BinaryReader* reader, const char* magic) {
  for (size_t i = 0; i < 8; ++i) {
    MMM_ASSIGN_OR_RETURN(uint8_t byte, reader->ReadUint8());
    if (byte != static_cast<uint8_t>(magic[i])) {
      return Status::Corruption("bad blob magic, expected ", magic);
    }
  }
  return Status::OK();
}

/// True when `a * b * width == bytes`. Checked by division: `a` and `b`
/// are untrusted header varints whose product can wrap past a
/// multiplication-based size check.
bool SizeIs(uint64_t a, uint64_t b, uint64_t width, uint64_t bytes) {
  if (bytes % width != 0) return false;
  const uint64_t elements = bytes / width;
  if (a == 0 || b == 0) return elements == 0;
  return elements % a == 0 && elements / a == b;
}

/// Header model counts are untrusted. With a zero-width layout no payload
/// bytes bound them, so each is checked against the count the set document
/// records before anything is sized by it.
Status CheckModelCount(const char* what, uint64_t num_models,
                       uint64_t expected) {
  if (num_models != expected) {
    return Status::Corruption(what, " holds ", num_models,
                              " models, document says ", expected);
  }
  return Status::OK();
}

/// Reads a param blob's magic: 2 for MMMPARM2, 1 for MMMPARM1, which has
/// no layer CRC table.
Result<int> ReadParamMagic(BinaryReader* reader) {
  uint8_t magic[8];
  for (uint8_t& byte : magic) {
    MMM_ASSIGN_OR_RETURN(byte, reader->ReadUint8());
  }
  const uint8_t version = magic[7];
  if (std::memcmp(magic, kParamMagic, 7) != 0 ||
      (version != '1' && version != '2')) {
    return Status::Corruption("bad blob magic, expected ", kParamMagic);
  }
  return version - '0';
}

/// Entries of the layer CRC table per model: one per layer in MMMPARM2,
/// none in MMMPARM1. Each takes 4 bytes, like a float.
uint64_t TableWidth(int version, const ParamLayout& layout) {
  return version == 2 ? layout.size() : 0;
}

void WriteMagic(BinaryWriter* writer, const char* magic) {
  writer->WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(magic), 8));
}

std::span<const uint8_t> TensorBytes(const Tensor& tensor) {
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(tensor.data().data()),
      tensor.numel() * sizeof(float));
}

}  // namespace

std::vector<uint8_t> EncodeStateDict(const StateDict& state) {
  BinaryWriter writer;
  WriteMagic(&writer, kStateDictMagic);
  writer.WriteVarint(state.size());
  for (const auto& [key, tensor] : state) {
    writer.WriteString(key);
    WriteTensor(&writer, tensor);
  }
  AppendCrcFooter(&writer);
  return writer.TakeBuffer();
}

Result<StateDict> DecodeStateDict(std::span<const uint8_t> blob) {
  MMM_ASSIGN_OR_RETURN(std::span<const uint8_t> payload, CheckCrcFooter(blob));
  BinaryReader reader(payload);
  MMM_RETURN_NOT_OK(CheckMagic(&reader, kStateDictMagic));
  MMM_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  StateDict state;
  state.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MMM_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
    MMM_ASSIGN_OR_RETURN(Tensor tensor, ReadTensor(&reader));
    state.emplace_back(std::move(key), std::move(tensor));
  }
  if (!reader.AtEnd()) return Status::Corruption("state dict has trailing bytes");
  return state;
}

ParamBlobEncoder::ParamBlobEncoder(ParamLayout layout, uint64_t num_models,
                                   BlobSink* sink)
    : layout_(std::move(layout)),
      layer_ops_(LayerCombineOps(layout_)),
      num_models_(num_models),
      sink_(sink) {}

Result<ParamBlobEncoder> ParamBlobEncoder::Begin(const ArchitectureSpec& spec,
                                                 uint64_t num_models,
                                                 BlobSink* sink) {
  ParamBlobEncoder encoder(LayoutOf(spec), num_models, sink);
  encoder.layer_crcs_.reserve(num_models * encoder.layout_.size());
  const std::vector<uint8_t> header =
      EncodeParamBlobHeader(num_models, LayoutNumel(encoder.layout_));
  encoder.crc_ = Crc32::Compute(header);
  MMM_RETURN_NOT_OK(sink->Append(header));
  return encoder;
}

Status ParamBlobEncoder::Append(const StateDict& model) {
  if (finished_) {
    return Status::InvalidArgument("param blob encoder already finished");
  }
  if (appended_ >= num_models_) {
    return Status::InvalidArgument("param blob declared ", num_models_,
                                   " models; cannot append more");
  }
  if (model.size() != layout_.size()) {
    return Status::InvalidArgument("model has ", model.size(),
                                   " parameters, layout expects ",
                                   layout_.size());
  }
  for (size_t p = 0; p < layout_.size(); ++p) {
    if (model[p].first != layout_[p].first ||
        model[p].second.shape() != layout_[p].second) {
      return Status::InvalidArgument("model parameter '", model[p].first,
                                     "' does not match layout entry '",
                                     layout_[p].first, "'");
    }
  }
  // Each layer's CRC is taken from its own buffer and folded into the
  // footer's CRC, so no byte is checksummed twice.
  for (size_t p = 0; p < layout_.size(); ++p) {
    const std::span<const uint8_t> bytes = TensorBytes(model[p].second);
    const uint32_t layer = Crc32::Compute(bytes);
    layer_crcs_.push_back(layer);
    crc_ = Crc32::CombineOp(crc_, layer, layer_ops_[p]);
    MMM_RETURN_NOT_OK(sink_->Append(bytes));
  }
  ++appended_;
  return Status::OK();
}

Status ParamBlobEncoder::Finish() {
  if (finished_) {
    return Status::InvalidArgument("param blob encoder already finished");
  }
  if (appended_ != num_models_) {
    return Status::InvalidArgument("param blob declared ", num_models_,
                                   " models but ", appended_,
                                   " were appended");
  }
  finished_ = true;
  BinaryWriter tail;
  tail.Reserve(layer_crcs_.size() * sizeof(uint32_t) + sizeof(uint32_t));
  for (uint32_t layer : layer_crcs_) tail.WriteUint32(layer);
  crc_ = Crc32::Extend(crc_, tail.buffer());
  tail.WriteUint32(crc_);
  layer_crcs_ = {};
  return sink_->Append(tail.buffer());
}

Status EncodeParamBlob(const ModelSet& set, BlobSink* sink) {
  MMM_ASSIGN_OR_RETURN(ParamBlobEncoder encoder,
                       ParamBlobEncoder::Begin(set.spec, set.models.size(),
                                               sink));
  for (const StateDict& model : set.models) {
    MMM_RETURN_NOT_OK(encoder.Append(model));
  }
  return encoder.Finish();
}

std::vector<uint8_t> EncodeParamBlob(const ModelSet& set) {
  VectorSink sink;
  if (!EncodeParamBlob(set, &sink).ok()) return {};
  return sink.Take();
}

std::vector<uint32_t> LayerCombineOps(const ParamLayout& layout) {
  std::vector<uint32_t> ops;
  ops.reserve(layout.size());
  for (const auto& [_, shape] : layout) {
    ops.push_back(
        Crc32::CombineGen(Tensor::NumElements(shape) * sizeof(float)));
  }
  return ops;
}

Result<std::vector<StateDict>> DecodeParamBlob(const ArchitectureSpec& spec,
                                               std::span<const uint8_t> blob,
                                               uint64_t expected_models) {
  MMM_ASSIGN_OR_RETURN(std::span<const uint8_t> payload, CheckCrcFooter(blob));
  BinaryReader reader(payload);
  MMM_ASSIGN_OR_RETURN(int version, ReadParamMagic(&reader));
  MMM_ASSIGN_OR_RETURN(uint64_t num_models, reader.ReadVarint());
  MMM_ASSIGN_OR_RETURN(uint64_t per_model, reader.ReadVarint());
  MMM_RETURN_NOT_OK(CheckModelCount("param blob", num_models, expected_models));

  ParamLayout layout = LayoutOf(spec);
  if (per_model != LayoutNumel(layout)) {
    return Status::Corruption("param blob expects ", per_model,
                              " params/model, architecture implies ",
                              LayoutNumel(layout));
  }
  // The floats, then the table; the footer covers the table's bytes.
  if (!SizeIs(num_models, per_model + TableWidth(version, layout),
              sizeof(float), reader.remaining())) {
    return Status::Corruption("param blob size mismatch");
  }

  std::vector<StateDict> models;
  models.reserve(num_models);
  for (uint64_t m = 0; m < num_models; ++m) {
    StateDict state;
    state.reserve(layout.size());
    for (const auto& [key, shape] : layout) {
      MMM_ASSIGN_OR_RETURN(std::vector<float> data,
                           reader.ReadFloats(Tensor::NumElements(shape)));
      state.emplace_back(key, Tensor(shape, std::move(data)));
    }
    models.push_back(std::move(state));
  }
  return models;
}

ParamBlobStreamDecoder::ParamBlobStreamDecoder(const ArchitectureSpec& spec,
                                               uint64_t total_bytes,
                                               uint64_t num_models,
                                               LayerSink sink,
                                               bool footer_checked)
    : layout_(LayoutOf(spec)),
      total_bytes_(total_bytes),
      expected_models_(num_models),
      sink_(std::move(sink)),
      footer_checked_(footer_checked) {
  if (total_bytes_ < 4) {
    error_ = Status::Corruption("blob too small for crc footer");
  }
}

Status ParamBlobStreamDecoder::Fail(Status status) {
  error_ = status;
  return error_;
}

void ParamBlobStreamDecoder::Checksum(std::span<const uint8_t> bytes) {
  if (!footer_checked_) crc_ = Crc32::Extend(crc_, bytes);
}

void ParamBlobStreamDecoder::BeginTensor() {
  current_numel_ = Tensor::NumElements(layout_[param_].second);
  current_.reserve(current_numel_);
  partial_size_ = 0;
  peak_buffered_ = std::max(peak_buffered_, current_numel_ * sizeof(float));
}

void ParamBlobStreamDecoder::AppendLayerBytes(std::span<const uint8_t> bytes) {
  if (partial_size_ > 0) {
    const size_t fill = std::min(bytes.size(), sizeof(float) - partial_size_);
    std::memcpy(partial_ + partial_size_, bytes.data(), fill);
    partial_size_ += fill;
    bytes = bytes.subspan(fill);
    if (partial_size_ < sizeof(float)) return;
    AppendFloatBytes(partial_, &current_);
  }
  const size_t whole = bytes.size() - bytes.size() % sizeof(float);
  AppendFloatBytes(bytes.first(whole), &current_);
  partial_size_ = bytes.size() - whole;
  std::memcpy(partial_, bytes.data() + whole, partial_size_);
}

Status ParamBlobStreamDecoder::ParseHeaderByte(uint8_t byte) {
  if (header_shift_ >= 64) {
    return Status::Corruption("param blob header varint overflows");
  }
  header_value_ |= static_cast<uint64_t>(byte & 0x7f) << header_shift_;
  header_shift_ += 7;
  if ((byte & 0x80) != 0) return Status::OK();
  if (header_varints_done_ == 0) {
    num_models_ = header_value_;
    MMM_RETURN_NOT_OK(
        CheckModelCount("param blob", num_models_, expected_models_));
  } else {
    per_model_ = header_value_;
    // Same validations DecodeParamBlob performs once the header is known.
    if (per_model_ != LayoutNumel(layout_)) {
      return Status::Corruption("param blob expects ", per_model_,
                                " params/model, architecture implies ",
                                LayoutNumel(layout_));
    }
    const uint64_t payload_bytes = total_bytes_ - 4;
    if (!SizeIs(num_models_, per_model_ + TableWidth(version_, layout_),
                sizeof(float), payload_bytes - position_)) {
      return Status::Corruption("param blob size mismatch");
    }
    // The size check bounds the table by the blob.
    layer_crcs_.resize(num_models_ * TableWidth(version_, layout_));
    if (num_models_ == 0 || layout_.empty()) {
      state_ = State::kDone;
      model_ = num_models_;
    } else {
      state_ = State::kTensors;
      BeginTensor();
      MMM_RETURN_NOT_OK(MaybeEmit());
    }
  }
  header_value_ = 0;
  header_shift_ = 0;
  ++header_varints_done_;
  return Status::OK();
}

Status ParamBlobStreamDecoder::MaybeEmit() {
  // Emits every tensor whose bytes are complete; loops so zero-element
  // layers cannot stall the byte-driven state machine.
  while (state_ == State::kTensors && current_.size() == current_numel_) {
    Tensor tensor(layout_[param_].second, std::move(current_));
    current_ = {};
    MMM_RETURN_NOT_OK(
        sink_(model_, param_, layout_[param_].first, std::move(tensor)));
    if (++param_ == layout_.size()) {
      param_ = 0;
      if (++model_ == num_models_) {
        state_ = AfterTensors();
        break;
      }
    }
    BeginTensor();
  }
  return Status::OK();
}

ParamBlobStreamDecoder::State ParamBlobStreamDecoder::AfterTensors() const {
  return version_ == 2 && !layer_crcs_.empty() ? State::kTable : State::kDone;
}

Status ParamBlobStreamDecoder::Feed(std::span<const uint8_t> data) {
  if (!error_.ok()) return error_;
  if (position_ + data.size() > total_bytes_) {
    return Fail(Status::Corruption("param blob stream exceeds declared size ",
                                   total_bytes_));
  }
  const uint64_t payload_bytes = total_bytes_ - 4;
  size_t pos = 0;
  while (pos < data.size()) {
    // Footer bytes are collected, not decoded and not CRC'd.
    if (position_ >= payload_bytes) {
      footer_[footer_size_++] = data[pos++];
      ++position_;
      continue;
    }
    switch (state_) {
      case State::kMagic: {
        const uint8_t byte = data[pos];
        Checksum(data.subspan(pos, 1));
        ++pos;
        ++position_;
        // The last byte is the version: '2', or '1' for a blob without
        // the layer CRC table.
        if (magic_matched_ == 7 && (byte == '1' || byte == '2')) {
          version_ = byte - '0';
        } else if (byte != static_cast<uint8_t>(kParamMagic[magic_matched_])) {
          return Fail(
              Status::Corruption("bad blob magic, expected ", kParamMagic));
        }
        if (++magic_matched_ == 8) state_ = State::kHeader;
        break;
      }
      case State::kHeader: {
        const uint8_t byte = data[pos];
        Checksum(data.subspan(pos, 1));
        // Advance before parsing: the varint completion handler sizes the
        // remaining payload from position_.
        ++pos;
        ++position_;
        Status status = ParseHeaderByte(byte);
        if (!status.ok()) return Fail(status);
        break;
      }
      case State::kTensors: {
        const size_t payload_avail = static_cast<size_t>(
            std::min<uint64_t>(data.size() - pos, payload_bytes - position_));
        const size_t filled = current_.size() * sizeof(float) + partial_size_;
        const size_t take =
            std::min(payload_avail, current_numel_ * sizeof(float) - filled);
        Checksum(data.subspan(pos, take));
        AppendLayerBytes(data.subspan(pos, take));
        pos += take;
        position_ += take;
        Status status = MaybeEmit();
        if (!status.ok()) return Fail(status);
        break;
      }
      case State::kTable: {
        const size_t table_bytes = layer_crcs_.size() * sizeof(uint32_t);
        const size_t take = static_cast<size_t>(std::min<uint64_t>(
            {data.size() - pos, payload_bytes - position_,
             table_bytes - table_filled_}));
        Checksum(data.subspan(pos, take));
        std::memcpy(reinterpret_cast<uint8_t*>(layer_crcs_.data()) +
                        table_filled_,
                    data.data() + pos, take);
        table_filled_ += take;
        pos += take;
        position_ += take;
        if (table_filled_ == table_bytes) state_ = State::kDone;
        break;
      }
      case State::kDone:
        // All tensors complete but payload bytes keep arriving — cannot
        // happen once the header size check passed; defensive.
        return Fail(Status::Corruption("param blob size mismatch"));
    }
  }
  return Status::OK();
}

Status ParamBlobStreamDecoder::Finish() {
  if (!error_.ok()) return error_;
  if (position_ != total_bytes_) {
    return Fail(Status::Corruption("param blob truncated: ", position_,
                                   " of ", total_bytes_, " bytes"));
  }
  if (state_ != State::kDone || model_ != num_models_) {
    return Fail(Status::Corruption("param blob size mismatch"));
  }
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(footer_[i]) << (8 * i);
  }
  if (!footer_checked_ && crc_ != stored) {
    return Fail(Status::Corruption("blob crc mismatch"));
  }
  return Status::OK();
}

uint32_t LayerCrc(const Tensor& tensor) {
  return Crc32::Compute(TensorBytes(tensor));
}

Result<ParamBlobLayout> ReadParamBlobHeader(std::span<const uint8_t> prefix,
                                            size_t num_layers) {
  BinaryReader reader(prefix);
  MMM_RETURN_NOT_OK(CheckMagic(&reader, kParamMagic));
  ParamBlobLayout layout;
  MMM_ASSIGN_OR_RETURN(uint64_t num_models, reader.ReadVarint());
  MMM_ASSIGN_OR_RETURN(uint64_t per_model, reader.ReadVarint());
  layout.num_models = num_models;
  layout.params_per_model = per_model;
  layout.num_layers = num_layers;
  layout.header_bytes = reader.offset();
  return layout;
}

std::vector<uint8_t> EncodeParamBlobHeader(uint64_t num_models,
                                           uint64_t params_per_model) {
  BinaryWriter writer;
  WriteMagic(&writer, kParamMagic);
  writer.WriteVarint(num_models);
  writer.WriteVarint(params_per_model);
  return writer.TakeBuffer();
}

uint64_t RawParamBlobSize(uint64_t num_models, uint64_t params_per_model,
                          uint64_t num_layers) {
  return EncodeParamBlobHeader(num_models, params_per_model).size() +
         num_models * (params_per_model + num_layers) * sizeof(float) + 4;
}

Result<StateDict> DecodeModelSlice(const ArchitectureSpec& spec,
                                   std::span<const uint8_t> slice) {
  ParamLayout layout = LayoutOf(spec);
  if (slice.size() != LayoutNumel(layout) * sizeof(float)) {
    return Status::Corruption("model slice has ", slice.size(),
                              " bytes, architecture implies ",
                              LayoutNumel(layout) * sizeof(float));
  }
  BinaryReader reader(slice);
  StateDict state;
  state.reserve(layout.size());
  for (const auto& [key, shape] : layout) {
    MMM_ASSIGN_OR_RETURN(std::vector<float> data,
                         reader.ReadFloats(Tensor::NumElements(shape)));
    state.emplace_back(key, Tensor(shape, std::move(data)));
  }
  return state;
}

HashTable ComputeHashTable(const ModelSet& set, Executor* executor) {
  const size_t num_models = set.models.size();
  HashTable hashes(num_models);
  size_t max_params = 0;
  for (size_t m = 0; m < num_models; ++m) {
    hashes[m].resize(set.models[m].size());
    max_params = std::max(max_params, set.models[m].size());
  }
  // A tensor whose buffer already carries a digest memo (see Tensor) costs
  // a read of it; only the misses are hashed. SHA-256 has no
  // intra-message parallelism, but a set holds the same-shaped layer in
  // every model, so each layer's misses across the whole set run in full
  // lane-width batches of multi-stream SIMD (Sha256HashMany). Each batch is
  // one work item, so the executor's lanes and the SIMD lanes compose. A
  // batch whose byte sizes diverge (impossible for a consistent set, cheap
  // to guard) falls back to the scalar per-tensor hash.
  struct Batch {
    size_t param;
    size_t first;  ///< into `misses`
    size_t count;
  };
  std::vector<size_t> misses;  // model indexes, grouped by layer
  std::vector<Batch> batches;
  for (size_t p = 0; p < max_params; ++p) {
    const size_t layer_begin = misses.size();
    for (size_t m = 0; m < num_models; ++m) {
      if (p < set.models[m].size() &&
          !set.models[m][p].second.LoadDigest(&hashes[m][p])) {
        misses.push_back(m);
      }
    }
    for (size_t b = layer_begin; b < misses.size(); b += kSha256MaxLanes) {
      batches.push_back(
          {p, b, std::min(kSha256MaxLanes, misses.size() - b)});
    }
  }
  auto hash_batch = [&](size_t i) {
    const Batch& batch = batches[i];
    const uint8_t* streams[kSha256MaxLanes];
    const size_t length =
        TensorBytes(set.models[misses[batch.first]][batch.param].second).size();
    bool uniform = true;
    for (size_t k = 0; k < batch.count; ++k) {
      std::span<const uint8_t> bytes =
          TensorBytes(set.models[misses[batch.first + k]][batch.param].second);
      uniform = uniform && bytes.size() == length;
      streams[k] = bytes.data();
    }
    Sha256Digest digests[kSha256MaxLanes];
    if (uniform) {
      Sha256HashMany(streams, length, batch.count, digests);
    }
    for (size_t k = 0; k < batch.count; ++k) {
      const size_t m = misses[batch.first + k];
      const Tensor& tensor = set.models[m][batch.param].second;
      if (!uniform) digests[k] = Sha256::Hash(TensorBytes(tensor));
      hashes[m][batch.param] = digests[k];
      tensor.PublishDigest(digests[k]);
    }
  };
  if (executor != nullptr) {
    executor->ParallelFor(batches.size(), hash_batch);
  } else {
    for (size_t i = 0; i < batches.size(); ++i) hash_batch(i);
  }
  return hashes;
}

std::vector<uint8_t> EncodeHashTable(const HashTable& hashes) {
  BinaryWriter writer;
  WriteMagic(&writer, kHashMagic);
  writer.WriteVarint(hashes.size());
  writer.WriteVarint(hashes.empty() ? 0 : hashes[0].size());
  for (const auto& model_hashes : hashes) {
    for (const Sha256Digest& digest : model_hashes) {
      writer.WriteBytes(digest.bytes);
    }
  }
  AppendCrcFooter(&writer);
  return writer.TakeBuffer();
}

Result<HashTable> DecodeHashTable(std::span<const uint8_t> blob,
                                  uint64_t expected_models) {
  MMM_ASSIGN_OR_RETURN(std::span<const uint8_t> payload, CheckCrcFooter(blob));
  BinaryReader reader(payload);
  MMM_RETURN_NOT_OK(CheckMagic(&reader, kHashMagic));
  MMM_ASSIGN_OR_RETURN(uint64_t num_models, reader.ReadVarint());
  MMM_ASSIGN_OR_RETURN(uint64_t per_model, reader.ReadVarint());
  MMM_RETURN_NOT_OK(CheckModelCount("hash table", num_models, expected_models));
  constexpr size_t kDigestBytes = sizeof(Sha256Digest::bytes);
  if (!SizeIs(num_models, per_model, kDigestBytes, reader.remaining())) {
    return Status::Corruption("hash table size mismatch");
  }
  // The size check covers every digest, so they are copied straight out of
  // the payload.
  const uint8_t* next = payload.data() + reader.offset();
  HashTable hashes(num_models);
  for (auto& model_hashes : hashes) {
    model_hashes.resize(per_model);
    for (Sha256Digest& digest : model_hashes) {
      std::memcpy(digest.bytes.data(), next, kDigestBytes);
      next += kDigestBytes;
    }
  }
  return hashes;
}

Tensor XorTensors(const Tensor& a, const Tensor& b) {
  MMM_DCHECK(a.shape() == b.shape());
  Tensor out = a;
  auto dst = out.mutable_data();
  auto src = b.data();
  // Bitwise XOR of the IEEE bit patterns (never float arithmetic), batched
  // through the runtime-dispatched SIMD substrate.
  simd::XorFloats(dst.data(), src.data(), dst.size());
  return out;
}

std::vector<uint8_t> EncodeDiffBlob(const ModelSet& set,
                                    const std::vector<DiffEntry>& entries,
                                    DiffEncoding encoding,
                                    const ModelSet* base_set) {
  MMM_DCHECK(encoding == DiffEncoding::kAbsolute || base_set != nullptr);
  BinaryWriter writer;
  WriteMagic(&writer, kDiffMagic);
  writer.WriteVarint(static_cast<uint64_t>(encoding));
  writer.WriteVarint(entries.size());
  for (const DiffEntry& entry : entries) {
    writer.WriteVarint(entry.model_index);
    writer.WriteVarint(entry.param_index);
  }
  for (const DiffEntry& entry : entries) {
    const Tensor& tensor = set.models[entry.model_index][entry.param_index].second;
    if (encoding == DiffEncoding::kXorBase) {
      Tensor delta = XorTensors(
          tensor, base_set->models[entry.model_index][entry.param_index].second);
      writer.WriteFloatSpan(delta.data());
    } else {
      writer.WriteFloatSpan(tensor.data());
    }
  }
  AppendCrcFooter(&writer);
  return writer.TakeBuffer();
}

Result<DiffView> DiffView::Parse(const ArchitectureSpec& spec,
                                 std::span<const uint8_t> blob) {
  MMM_ASSIGN_OR_RETURN(std::span<const uint8_t> payload, CheckCrcFooter(blob));
  BinaryReader reader(payload);
  MMM_RETURN_NOT_OK(CheckMagic(&reader, kDiffMagic));
  MMM_ASSIGN_OR_RETURN(uint64_t encoding_value, reader.ReadVarint());
  if (encoding_value > static_cast<uint64_t>(DiffEncoding::kXorBase)) {
    return Status::Corruption("diff blob has unknown encoding ", encoding_value);
  }
  MMM_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  // Every entry spends at least two index varint bytes.
  if (count > reader.remaining() / 2) {
    return Status::Corruption("diff blob lists ", count, " entries in ",
                              reader.remaining(), " bytes");
  }

  DiffView view;
  view.layout_ = LayoutOf(spec);
  view.encoding_ = static_cast<DiffEncoding>(encoding_value);
  view.entries_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MMM_ASSIGN_OR_RETURN(uint64_t model_index, reader.ReadVarint());
    MMM_ASSIGN_OR_RETURN(uint64_t param_index, reader.ReadVarint());
    if (model_index > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("diff entry references model ", model_index,
                                ", past the 32-bit model index range");
    }
    if (param_index >= view.layout_.size()) {
      return Status::Corruption("diff entry references parameter ", param_index,
                                " but layout has ", view.layout_.size());
    }
    view.entries_.push_back({static_cast<uint32_t>(model_index),
                             static_cast<uint32_t>(param_index)});
  }
  // Each entry's floats follow in order; the payload must hold exactly
  // them.
  view.offsets_.reserve(count);
  size_t offset = reader.offset();
  for (const DiffEntry& entry : view.entries_) {
    const size_t bytes =
        Tensor::NumElements(view.layout_[entry.param_index].second) *
        sizeof(float);
    if (bytes > payload.size() - offset) {
      return Status::Corruption("diff blob truncated at entry ",
                                view.offsets_.size());
    }
    view.offsets_.push_back(offset);
    offset += bytes;
  }
  if (offset != payload.size()) {
    return Status::Corruption("diff blob has trailing bytes");
  }
  view.payload_ = payload;
  return view;
}

Tensor DiffView::TensorAt(size_t e) const {
  const Shape& shape = layout_[entries_[e].param_index].second;
  return Tensor(shape, FloatsFromBytes(payload_.subspan(
                           offsets_[e],
                           Tensor::NumElements(shape) * sizeof(float))));
}

Result<std::vector<DiffEntry>> DiffHashTables(const HashTable& base,
                                              const HashTable& current) {
  if (base.size() != current.size()) {
    return Status::InvalidArgument("hash tables differ in model count: ",
                                   base.size(), " vs ", current.size());
  }
  std::vector<DiffEntry> entries;
  for (size_t m = 0; m < base.size(); ++m) {
    if (base[m].size() != current[m].size()) {
      return Status::InvalidArgument("hash tables differ in layer count at model ",
                                     m);
    }
    for (size_t p = 0; p < base[m].size(); ++p) {
      if (base[m][p] != current[m][p]) {
        entries.push_back(
            {static_cast<uint32_t>(m), static_cast<uint32_t>(p)});
      }
    }
  }
  return entries;
}

}  // namespace mmm
