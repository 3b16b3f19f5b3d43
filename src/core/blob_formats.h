#ifndef MMM_CORE_BLOB_FORMATS_H_
#define MMM_CORE_BLOB_FORMATS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/model_set.h"
#include "serialize/sha256.h"
#include "storage/executor.h"

namespace mmm {

/// \file
/// On-disk blob formats shared by the management approaches. Every format is
/// little-endian, starts with an 8-byte magic, and ends with a CRC32 footer
/// over everything before it, so recovery can reject corrupted artifacts.

/// \name Per-model state dict with keys (the MMlib-base format).
/// Saving the dictionary keys with every model is exactly the redundancy the
/// paper's O1 identifies; Baseline avoids it via the set-level param blob.
/// @{
std::vector<uint8_t> EncodeStateDict(const StateDict& state);
Result<StateDict> DecodeStateDict(std::span<const uint8_t> blob);
/// @}

/// \name Set-level parameter blob (Baseline format, paper §3.2):
/// all models' parameters concatenated as raw floats, no per-model metadata,
/// followed by one CRC32 per (model, layer) — the layer CRC table, which
/// lets a ranged read check each layer it returns (MMMPARM2; docs/FORMATS.md).
/// @{
/// `set` must pass CheckSetConsistent: every model follows the layout of
/// `set.spec`.
std::vector<uint8_t> EncodeParamBlob(const ModelSet& set);
/// Decodes using the layout derived from `spec`; validates counts and CRC.
/// The header's model count must equal `num_models` (the set document's),
/// checked before anything is sized by it. Accepts MMMPARM2 blobs and the
/// older MMMPARM1 ones, which have no layer CRC table. The footer covers
/// the table; its agreement with the layers is fsck's check, not this one.
Result<std::vector<StateDict>> DecodeParamBlob(const ArchitectureSpec& spec,
                                               std::span<const uint8_t> blob,
                                               uint64_t num_models);

/// The blob's header: magic, model count and floats per model. The floats,
/// the table and the footer follow it.
std::vector<uint8_t> EncodeParamBlobHeader(uint64_t num_models,
                                           uint64_t params_per_model);

/// The layer CRC table entry of one parameter tensor: the CRC32 of its raw
/// float bytes.
uint32_t LayerCrc(const Tensor& tensor);

/// Crc32::CombineGen of each layer's byte length, in layout order. A param
/// blob writer folds each layer's CRC into the footer's CRC with these, so
/// the footer costs no second pass over the floats; the blob's bytes are
/// the same.
std::vector<uint32_t> LayerCombineOps(const ParamLayout& layout);
/// @}

/// \name Ranged access to the set-level parameter blob.
/// The deployment scenario recovers "a selected number of models" (§1);
/// because the param blob stores fixed-size raw-float slices, single models
/// can be fetched with one ranged store read instead of loading the set.
/// Ranged reads bypass the blob's CRC footer; each layer they return is
/// checked against its entry of the layer CRC table instead. Only MMMPARM2
/// blobs are read by range: an MMMPARM1 blob is read whole, like a
/// compressed one, and checked by its footer.
/// @{
struct ParamBlobLayout {
  size_t header_bytes = 0;  ///< offset of model 0's first float
  size_t num_models = 0;
  size_t params_per_model = 0;
  size_t num_layers = 0;    ///< parameter tensors per model (table row width)

  size_t ModelBytes() const { return params_per_model * sizeof(float); }
  size_t ModelOffset(size_t index) const {
    return header_bytes + index * ModelBytes();
  }
  size_t CrcRowBytes() const { return num_layers * sizeof(uint32_t); }
  /// Offset of model `model`'s row of the layer CRC table.
  size_t CrcRowOffset(size_t model) const {
    return ModelOffset(num_models) + model * CrcRowBytes();
  }
};

/// Parses an MMMPARM2 blob's header; an MMMPARM1 header is Corruption.
/// `prefix` must hold the first kParamBlobMaxHeaderBytes bytes (or the
/// whole blob if smaller); `num_layers` is the architecture's layer count.
Result<ParamBlobLayout> ReadParamBlobHeader(std::span<const uint8_t> prefix,
                                            size_t num_layers);

/// Upper bound on the param blob header size (magic + two max varints).
inline constexpr size_t kParamBlobMaxHeaderBytes = 8 + 10 + 10;

/// Size of an uncompressed MMMPARM2 blob of `num_models` models of
/// `params_per_model` floats in `num_layers` layers each. A stored blob of
/// any other size is not one, which a ranged reader can tell without
/// reading its header.
uint64_t RawParamBlobSize(uint64_t num_models, uint64_t params_per_model,
                          uint64_t num_layers);

/// Decodes one model's raw float slice (layout order) into a state dict.
Result<StateDict> DecodeModelSlice(const ArchitectureSpec& spec,
                                   std::span<const uint8_t> slice);
/// @}

/// \brief Streaming DecodeParamBlob (DESIGN.md §12): absorbs the
/// decompressed param blob in arbitrary chunks and emits each layer tensor
/// the moment its bytes are complete, in (model, param) order, so peak
/// buffering is one layer plus the CRC running state instead of the whole
/// blob. Emitted layers are unverified until Finish succeeds: a caller must
/// not publish them (e.g. to the LayerCache) before then.
///
/// Accepts exactly the blobs DecodeParamBlob accepts (header, counts, and
/// CRC32 footer all validated — the footer necessarily last, at Finish,
/// since the CRC runs alongside the stream). The emitted tensors are
/// bit-identical to the one-shot decode, and no layer is emitted before the
/// header's model count has matched the expected one. An MMMPARM2 blob's
/// layer CRC table is kept, unchecked, for layer_crcs().
class ParamBlobStreamDecoder {
 public:
  /// Called once per completed layer, in (model, param) order. `key` is
  /// the layout key of parameter `param`. A non-OK return aborts decoding
  /// and surfaces from Feed/Finish.
  using LayerSink = std::function<Status(size_t model, size_t param,
                                         const std::string& key,
                                         Tensor tensor)>;

  /// `total_bytes` is the decompressed blob's full size (header through
  /// CRC footer), known up front from the stream being decoded;
  /// `num_models` is the model count the set document records. With
  /// `footer_checked`, the caller checks the footer itself, by comparing
  /// the CRC of the whole blob (footer included) with Crc32::kResidue, as
  /// StreamParamBlob does for a chunked raw blob whose CRC the CAS read
  /// already checked: Feed then takes no CRC and Finish skips the compare.
  ParamBlobStreamDecoder(const ArchitectureSpec& spec, uint64_t total_bytes,
                         uint64_t num_models, LayerSink sink,
                         bool footer_checked = false);

  /// Absorbs the next chunk of the decompressed blob. Errors are sticky.
  Status Feed(std::span<const uint8_t> data);

  /// Validates completeness and, unless the caller checks it, the CRC
  /// footer.
  Status Finish();

  /// High-water mark of internal buffering (≈ one layer), for the
  /// peak-memory assertions in tests. The layer CRC table is not counted.
  size_t peak_buffered_bytes() const { return peak_buffered_; }

  /// The layer CRC table, one entry per (model, layer) in layout order;
  /// empty for an MMMPARM1 blob. Complete once Finish succeeded.
  const std::vector<uint32_t>& layer_crcs() const { return layer_crcs_; }

 private:
  enum class State : uint8_t {
    kMagic,    // matching the 8 magic bytes
    kHeader,   // reading the two header varints
    kTensors,  // filling layer tensors
    kTable,    // collecting the layer CRC table (MMMPARM2)
    kDone,     // all models complete; draining the footer
  };

  Status Fail(Status status);
  /// Extends the running CRC over `bytes`, unless the caller checks it.
  void Checksum(std::span<const uint8_t> bytes);
  Status ParseHeaderByte(uint8_t byte);
  Status MaybeEmit();
  void BeginTensor();
  /// Appends the next `bytes` of the current layer to it.
  void AppendLayerBytes(std::span<const uint8_t> bytes);
  /// The state after the last tensor: the table, if the blob has one.
  State AfterTensors() const;

  ParamLayout layout_;
  uint64_t total_bytes_;
  uint64_t expected_models_;
  LayerSink sink_;
  bool footer_checked_;
  Status error_;  // sticky
  State state_ = State::kMagic;

  uint64_t position_ = 0;  // absolute bytes fed so far
  uint32_t crc_ = 0;       // over the payload (all bytes but the last 4)
  uint8_t footer_[4] = {0, 0, 0, 0};
  size_t footer_size_ = 0;

  size_t magic_matched_ = 0;
  int version_ = 0;  // 1 or 2, once the magic matched
  int header_varints_done_ = 0;
  uint64_t header_value_ = 0;
  int header_shift_ = 0;
  uint64_t num_models_ = 0;
  uint64_t per_model_ = 0;

  size_t model_ = 0;
  size_t param_ = 0;
  // The layer being filled: its values so far, reserved for all of them,
  // and the bytes of a value split across two feeds.
  std::vector<float> current_;
  size_t current_numel_ = 0;
  uint8_t partial_[sizeof(float)] = {0, 0, 0, 0};
  size_t partial_size_ = 0;
  size_t peak_buffered_ = 0;
  std::vector<uint32_t> layer_crcs_;
  size_t table_filled_ = 0;      // bytes of layer_crcs_ filled
};

/// \name Per-layer hash table (Update approach, paper §3.3 step 2).
/// hashes[m][p] is the SHA-256 of model m's p-th parameter tensor bytes.
/// @{
using HashTable = std::vector<std::vector<Sha256Digest>>;

/// Hashes every parameter tensor of every model. A tensor whose buffer
/// already carries a digest memo is not hashed again, and every digest
/// computed here is published to its buffer's memo (see Tensor). With a
/// multi-lane `executor`, batches of one layer across up to
/// kSha256MaxLanes models are hashed in parallel; the result is identical
/// to the serial computation since each batch writes only its own slots.
HashTable ComputeHashTable(const ModelSet& set, Executor* executor = nullptr);

std::vector<uint8_t> EncodeHashTable(const HashTable& hashes);
/// Validates the CRC and that the table covers exactly `num_models` models
/// (the set document's count), checked before the table is allocated.
Result<HashTable> DecodeHashTable(std::span<const uint8_t> blob,
                                  uint64_t num_models);

/// @}

/// \name Parameter diff blob (Update approach, paper §3.3 steps 3-4):
/// the diff list of changed (model, parameter) pairs followed by the
/// concatenated changed parameters.
///
/// Two payload encodings (the delta-encoding direction of §4.5, after
/// Bhattacherjee et al.):
///  - kAbsolute: the new parameter values verbatim (the paper's format);
///  - kXorBase: new XOR base values. XOR deltas compose along a chain
///    (v_n = v_root ^ d_1 ^ ... ^ d_n per tensor), and for partially
///    retrained layers most mantissa bits cancel, which the shuffle-LZ
///    codec then exploits.
/// @{
enum class DiffEncoding : uint8_t {
  kAbsolute = 0,
  kXorBase = 1,
};

struct DiffEntry {
  uint32_t model_index;
  uint32_t param_index;  ///< index into the set's ParamLayout
};

/// Encodes the diff. For kXorBase, `base_set` must be non-null and shaped
/// like `set`.
std::vector<uint8_t> EncodeDiffBlob(const ModelSet& set,
                                    const std::vector<DiffEntry>& entries,
                                    DiffEncoding encoding = DiffEncoding::kAbsolute,
                                    const ModelSet* base_set = nullptr);

/// A diff blob checked against its CRC and parsed, with its tensors left
/// in the blob: TensorAt(e) copies entry e's values out on demand, so a
/// reader pays only for the entries it uses. Borrows the blob's bytes,
/// which must outlive the view.
class DiffView {
 public:
  /// Validates the CRC, the header, every entry's indexes against the
  /// layout of `spec`, and that the payload holds exactly the listed
  /// tensors.
  static Result<DiffView> Parse(const ArchitectureSpec& spec,
                                std::span<const uint8_t> blob);

  DiffEncoding encoding() const { return encoding_; }
  const std::vector<DiffEntry>& entries() const { return entries_; }
  /// A copy of entry `e`'s values, shaped by the layout.
  Tensor TensorAt(size_t e) const;

 private:
  DiffView() = default;

  DiffEncoding encoding_ = DiffEncoding::kAbsolute;
  ParamLayout layout_;
  std::vector<DiffEntry> entries_;
  std::vector<size_t> offsets_;  ///< of each entry's floats in payload_
  std::span<const uint8_t> payload_;
};

/// Elementwise XOR of two equal-shape float tensors (bit-level; its own
/// inverse).
Tensor XorTensors(const Tensor& a, const Tensor& b);
/// @}

/// Compares two hash tables and lists every (model, param) whose hash
/// changed. Tables must have identical dimensions.
Result<std::vector<DiffEntry>> DiffHashTables(const HashTable& base,
                                              const HashTable& current);

}  // namespace mmm

#endif  // MMM_CORE_BLOB_FORMATS_H_
