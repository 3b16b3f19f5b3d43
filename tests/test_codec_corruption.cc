// Corruption sweeps over every encoded blob format.
//
// Every binary format ends in a CRC32 footer, and every decoder is expected
// to reject damaged input with a Status — never crash, never read out of
// bounds, never return wrong bytes. This suite feeds each decoder:
//
//  - every truncation length (strided for large blobs, dense at the edges),
//  - bit flips across the blob (strided positions, two masks each),
//  - tiny and empty inputs, and deterministic random garbage.
//
// All mutations are deterministic, so a CRC near-collision would be a
// reproducible failure, not a flake. The suite runs under the sanitizer CI
// jobs, where an out-of-bounds read in a decoder fails loudly.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/blob_formats.h"
#include "core/set_codec.h"
#include "serialize/binary_io.h"
#include "serialize/compress.h"
#include "serialize/crc32.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

using Decoder = std::function<Status(std::span<const uint8_t>)>;

ModelSet SmallSet(size_t count, uint64_t seed = 1) {
  return MakeInitializedSet(Ffnn48Spec(), count, seed).ValueOrDie();
}

/// Truncation lengths: every length for small blobs; for large ones, dense
/// coverage of both ends (where headers and CRC footers live) plus strided
/// interior samples.
std::vector<size_t> TruncationLengths(size_t size) {
  std::vector<size_t> lengths;
  if (size <= 512) {
    for (size_t n = 0; n < size; ++n) lengths.push_back(n);
    return lengths;
  }
  for (size_t n = 0; n < 64; ++n) lengths.push_back(n);
  for (size_t n = size - 64; n < size; ++n) lengths.push_back(n);
  const size_t stride = size / 128;
  for (size_t n = 64; n < size - 64; n += stride) lengths.push_back(n);
  return lengths;
}

/// Byte positions for bit flips: all of them for small blobs, strided
/// otherwise (always including first and last bytes).
std::vector<size_t> FlipPositions(size_t size) {
  std::vector<size_t> positions;
  const size_t stride = size <= 512 ? 1 : size / 256;
  for (size_t p = 0; p < size; p += stride) positions.push_back(p);
  if (positions.back() != size - 1) positions.push_back(size - 1);
  return positions;
}

/// Runs the full mutation sweep. With `expect_error`, every mutation must
/// yield a non-OK status; without it (self-describing text formats where a
/// flipped character can still parse), surviving the call is the contract.
void SweepCorruptions(const std::vector<uint8_t>& blob, const Decoder& decode,
                      const std::string& label, bool expect_error = true) {
  ASSERT_FALSE(blob.empty()) << label;
  Status pristine = decode(blob);
  ASSERT_TRUE(pristine.ok())
      << label << ": pristine blob must decode: " << pristine.ToString();

  for (size_t n : TruncationLengths(blob.size())) {
    std::vector<uint8_t> truncated(blob.begin(), blob.begin() + n);
    Status status = decode(truncated);
    if (expect_error) {
      EXPECT_FALSE(status.ok())
          << label << ": decoder accepted truncation to " << n << " bytes";
    }
  }

  for (size_t pos : FlipPositions(blob.size())) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> flipped = blob;
      flipped[pos] ^= mask;
      Status status = decode(flipped);
      if (expect_error) {
        EXPECT_FALSE(status.ok())
            << label << ": decoder accepted bit flip 0x" << std::hex
            << unsigned{mask} << " at byte " << std::dec << pos;
      }
    }
  }
}

/// Empty input, sub-header scraps, and deterministic garbage must all be
/// rejected without crashing.
void SweepGarbage(const Decoder& decode, const std::string& label) {
  EXPECT_FALSE(decode({}).ok()) << label << ": accepted empty input";
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t size : {1, 2, 3, 4, 7, 8, 9, 16, 64, 4096}) {
    std::vector<uint8_t> garbage(size);
    for (uint8_t& b : garbage) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<uint8_t>(state >> 56);
    }
    EXPECT_FALSE(decode(garbage).ok())
        << label << ": accepted " << size << " bytes of garbage";
  }
}

TEST(CodecCorruptionTest, StateDictBlob) {
  std::vector<uint8_t> blob = EncodeStateDict(SmallSet(1).models[0]);
  Decoder decode = [](std::span<const uint8_t> b) {
    return DecodeStateDict(b).status();
  };
  SweepCorruptions(blob, decode, "state dict");
  SweepGarbage(decode, "state dict");
}

TEST(CodecCorruptionTest, ParamBlob) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    return DecodeParamBlob(set.spec, b, set.models.size()).status();
  };
  SweepCorruptions(blob, decode, "param blob");
  SweepGarbage(decode, "param blob");
}

/// The streaming decoder over the same blobs, fed in uneven chunks so a
/// chunk boundary falls inside the header, the layers and the table.
Status StreamDecode(const ModelSet& set, std::span<const uint8_t> blob) {
  ParamBlobStreamDecoder decoder(
      set.spec, blob.size(), set.models.size(),
      [](size_t, size_t, const std::string&, Tensor) { return Status::OK(); });
  for (size_t i = 0; i < blob.size(); i += 1021) {
    MMM_RETURN_NOT_OK(
        decoder.Feed(blob.subspan(i, std::min<size_t>(1021, blob.size() - i))));
  }
  return decoder.Finish();
}

TEST(CodecCorruptionTest, ParamBlobStreamDecoder) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    return StreamDecode(set, b);
  };
  SweepCorruptions(blob, decode, "param blob (stream)");
  SweepGarbage(decode, "param blob (stream)");
}

/// Every byte of the layer CRC table and the footer, flipped and cut at,
/// for both whole-blob decoders. The strided sweeps above sample the
/// table; this one covers it densely.
TEST(CodecCorruptionTest, ParamBlobTableBytes) {
  ModelSet set = SmallSet(3);
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  const size_t table_bytes = 3 * LayoutOf(set.spec).size() * sizeof(uint32_t);
  const size_t table = blob.size() - 4 - table_bytes;
  const std::vector<Decoder> decoders = {
      [&set](std::span<const uint8_t> b) {
        return DecodeParamBlob(set.spec, b, set.models.size()).status();
      },
      [&set](std::span<const uint8_t> b) { return StreamDecode(set, b); }};
  for (const Decoder& decode : decoders) {
    ASSERT_OK(decode(blob));
    for (size_t pos = table; pos < blob.size(); ++pos) {
      std::vector<uint8_t> flipped = blob;
      flipped[pos] ^= 0x10;
      EXPECT_FALSE(decode(flipped).ok()) << "flip at " << pos;
      EXPECT_FALSE(decode(std::span<const uint8_t>(blob).first(pos)).ok())
          << "truncation to " << pos;
    }
  }
}

/// The ranged reader behind Baseline's and Provenance's RecoverModels: a
/// flip in any byte of a model's layers or of its row of the layer CRC
/// table fails that model's read with Corruption. A flip elsewhere leaves
/// the model readable and bit-exact.
TEST(CodecCorruptionTest, RangedParamReadChecksLayersAndTable) {
  ModelSet set = SmallSet(3);
  const std::vector<uint8_t> blob = EncodeParamBlob(set);
  InMemoryEnv env;
  FileStore files(&env, "/blobs");
  DocumentStore docs(&env, "/wal");
  IdGenerator ids(7);
  ASSERT_OK(files.Open());
  ASSERT_OK(docs.Open());
  StoreContext context;
  context.file_store = &files;
  context.doc_store = &docs;
  context.ids = &ids;
  SetDocument doc;
  doc.id = "set-ranged";
  doc.num_models = 3;
  doc.arch_blob = "set-ranged.arch.json";
  doc.param_blob = "set-ranged.params.bin";
  ASSERT_OK(files.PutString(doc.arch_blob, EncodeArchBlob(set.spec)));
  ASSERT_OK_AND_ASSIGN(
      ParamBlobLayout layout,
      ReadParamBlobHeader(blob, LayoutOf(set.spec).size()));

  // Model 1's floats (strided) and every byte of its table row.
  std::vector<size_t> positions;
  for (size_t at = layout.ModelOffset(1); at < layout.ModelOffset(2); at += 97) {
    positions.push_back(at);
  }
  positions.push_back(layout.ModelOffset(2) - 1);
  for (size_t at = layout.CrcRowOffset(1); at < layout.CrcRowOffset(2); ++at) {
    positions.push_back(at);
  }
  for (size_t at : positions) {
    std::vector<uint8_t> flipped = blob;
    flipped[at] ^= 0x01;
    ASSERT_OK(files.Put(doc.param_blob, flipped));
    Result<std::vector<StateDict>> read =
        ReadModelsFromSnapshot(context, doc, {1});
    EXPECT_TRUE(read.status().IsCorruption())
        << "flip at " << at << ": " << read.status().ToString();
    ASSERT_OK_AND_ASSIGN(std::vector<StateDict> others,
                         ReadModelsFromSnapshot(context, doc, {0, 2}));
    for (size_t p = 0; p < others[1].size(); ++p) {
      EXPECT_TRUE(others[1][p].second.Equals(set.models[2][p].second));
    }
  }
}

TEST(CodecCorruptionTest, HashTableBlob) {
  ModelSet set = SmallSet(3);
  std::vector<uint8_t> blob = EncodeHashTable(ComputeHashTable(set));
  Decoder decode = [&set](std::span<const uint8_t> b) {
    return DecodeHashTable(b, set.models.size()).status();
  };
  SweepCorruptions(blob, decode, "hash table");
  SweepGarbage(decode, "hash table");
}

TEST(CodecCorruptionTest, DiffBlobAbsolute) {
  ModelSet set = SmallSet(2);
  std::vector<DiffEntry> entries = {{0, 0}, {1, 1}};
  std::vector<uint8_t> blob = EncodeDiffBlob(set, entries);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    return DiffView::Parse(set.spec, b).status();
  };
  SweepCorruptions(blob, decode, "diff blob (absolute)");
  SweepGarbage(decode, "diff blob (absolute)");
}

TEST(CodecCorruptionTest, DiffBlobXor) {
  ModelSet set = SmallSet(2, /*seed=*/1);
  ModelSet base = SmallSet(2, /*seed=*/2);
  std::vector<DiffEntry> entries = {{0, 0}, {1, 1}};
  std::vector<uint8_t> blob =
      EncodeDiffBlob(set, entries, DiffEncoding::kXorBase, &base);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    return DiffView::Parse(set.spec, b).status();
  };
  SweepCorruptions(blob, decode, "diff blob (xor)");
}

// ---------------------------------------------------------------------------
// Crafted headers. Each blob below carries a valid CRC footer, so only the
// decoder's own header checks stand between it and a bad allocation or a
// silently wrong decode.

/// Starts a blob with its 8-byte magic.
BinaryWriter CraftedBlob(const char* magic) {
  BinaryWriter writer;
  writer.WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(magic), 8));
  return writer;
}

/// Seals a crafted blob with the CRC footer its decoder checks first.
std::vector<uint8_t> SealWithCrc(BinaryWriter writer) {
  writer.WriteUint32(Crc32::Compute(writer.buffer()));
  return writer.TakeBuffer();
}

/// A param blob holding exactly one model's floats whose header claims
/// `num_models`, chosen so that `num_models * per_model * 4` wraps uint64
/// back to one model's byte count.
uint64_t WrappedModelCount(const ModelSet& set) {
  const uint64_t model_bytes = LayoutNumel(LayoutOf(set.spec)) * sizeof(float);
  return 1 + (uint64_t{1} << (64 - std::countr_zero(model_bytes)));
}

std::vector<uint8_t> WrappedParamBlob(const ModelSet& set, const char* magic) {
  BinaryWriter writer = CraftedBlob(magic);
  writer.WriteVarint(WrappedModelCount(set));
  writer.WriteVarint(LayoutNumel(LayoutOf(set.spec)));
  for (const auto& [_, tensor] : set.models[0]) {
    writer.WriteFloatSpan(tensor.data());
  }
  return SealWithCrc(std::move(writer));
}

// The wrapped-count cases pass the header's own count as the expected one,
// so only the size check can reject them.
TEST(CodecCorruptionTest, HashTableRejectsWrappedModelCount) {
  // (2^59 + 1) models x 1 digest x 32 bytes wraps to the one digest stored.
  const uint64_t num_models = (uint64_t{1} << 59) + 1;
  BinaryWriter writer = CraftedBlob("MMMHASH1");
  writer.WriteVarint(num_models);
  writer.WriteVarint(1);
  writer.WriteBytes(std::vector<uint8_t>(32, 0xab));
  Result<HashTable> decoded =
      DecodeHashTable(SealWithCrc(std::move(writer)), num_models);
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(CodecCorruptionTest, ParamBlobRejectsWrappedModelCount) {
  ModelSet set = SmallSet(1);
  for (const char* magic : {"MMMPARM1", "MMMPARM2"}) {
    Result<std::vector<StateDict>> decoded = DecodeParamBlob(
        set.spec, WrappedParamBlob(set, magic), WrappedModelCount(set));
    EXPECT_TRUE(decoded.status().IsCorruption())
        << magic << ": " << decoded.status().ToString();
  }
}

TEST(CodecCorruptionTest, ParamStreamDecoderRejectsWrappedModelCount) {
  ModelSet set = SmallSet(1);
  for (const char* magic : {"MMMPARM1", "MMMPARM2"}) {
    std::vector<uint8_t> blob = WrappedParamBlob(set, magic);
    size_t layers = 0;
    ParamBlobStreamDecoder decoder(
        set.spec, blob.size(), WrappedModelCount(set),
        [&layers](size_t, size_t, const std::string&, Tensor) {
          ++layers;
          return Status::OK();
        });
    Status fed = decoder.Feed(blob);
    EXPECT_TRUE(fed.IsCorruption()) << magic << ": " << fed.ToString();
    EXPECT_EQ(layers, 0u) << magic << ": decoder emitted layers past a bad header";
    EXPECT_TRUE(decoder.Finish().IsCorruption());
  }
}

// Zero-width headers: with a zero-parameter architecture no payload byte
// bounds the header's model count, so a crafted 2^40 passes every size
// check. Each decoder must compare it with the set document's count (2
// here) before sizing anything by it, and answer Corruption, not throw.
constexpr uint64_t kZeroWidthModels = uint64_t{1} << 40;

ArchitectureSpec ZeroParamSpec() {
  ArchitectureSpec spec;
  spec.family = "ZERO";
  spec.input_shape = {4};
  spec.layers = {LayerSpec{"act", "tanh"}};
  return spec;
}

std::vector<uint8_t> ZeroWidthBlob(const char* magic) {
  BinaryWriter writer = CraftedBlob(magic);
  writer.WriteVarint(kZeroWidthModels);
  writer.WriteVarint(0);
  return SealWithCrc(std::move(writer));
}

TEST(CodecCorruptionTest, ZeroWidthHashTableChecksModelCount) {
  ASSERT_TRUE(LayoutOf(ZeroParamSpec()).empty());
  Result<HashTable> decoded = DecodeHashTable(ZeroWidthBlob("MMMHASH1"), 2);
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(CodecCorruptionTest, ZeroWidthParamBlobChecksModelCount) {
  for (const char* magic : {"MMMPARM1", "MMMPARM2"}) {
    std::vector<uint8_t> blob = ZeroWidthBlob(magic);
    Result<std::vector<StateDict>> decoded =
        DecodeParamBlob(ZeroParamSpec(), blob, 2);
    EXPECT_TRUE(decoded.status().IsCorruption())
        << magic << ": " << decoded.status().ToString();

    ParamBlobStreamDecoder decoder(
        ZeroParamSpec(), blob.size(), 2,
        [](size_t, size_t, const std::string&, Tensor) { return Status::OK(); });
    Status fed = decoder.Feed(blob);
    EXPECT_TRUE(fed.IsCorruption()) << magic << ": " << fed.ToString();
    EXPECT_TRUE(decoder.Finish().IsCorruption());
  }
}

TEST(CodecCorruptionTest, ZeroWidthSnapshotChecksModelCount) {
  InMemoryEnv env;
  FileStore files(&env, "/blobs");
  DocumentStore docs(&env, "/wal");
  IdGenerator ids(7);
  ASSERT_OK(files.Open());
  ASSERT_OK(docs.Open());
  StoreContext context;
  context.file_store = &files;
  context.doc_store = &docs;
  context.ids = &ids;
  SetDocument doc;
  doc.id = "set-zero";
  doc.num_models = 2;
  doc.arch_blob = "set-zero.arch.json";
  doc.param_blob = "set-zero.params.bin";
  ASSERT_OK(files.PutString(doc.arch_blob, EncodeArchBlob(ZeroParamSpec())));
  ASSERT_OK(files.Put(doc.param_blob, ZeroWidthBlob("MMMPARM1")));
  Result<ModelSet> read = ReadFullSnapshot(context, doc);
  EXPECT_TRUE(read.status().IsCorruption()) << read.status().ToString();
}

TEST(CodecCorruptionTest, DiffBlobRejectsCountPastPayload) {
  ModelSet set = SmallSet(1);
  BinaryWriter writer = CraftedBlob("MMMDIFF1");
  writer.WriteVarint(static_cast<uint64_t>(DiffEncoding::kAbsolute));
  writer.WriteVarint(uint64_t{1} << 60);
  writer.WriteVarint(0);
  writer.WriteVarint(0);
  Result<DiffView> decoded =
      DiffView::Parse(set.spec, SealWithCrc(std::move(writer)));
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(CodecCorruptionTest, DiffBlobRejectsModelIndexPast32Bits) {
  // Model 2^32 + 3 must not narrow to model 3.
  ModelSet set = SmallSet(1);
  BinaryWriter writer = CraftedBlob("MMMDIFF1");
  writer.WriteVarint(static_cast<uint64_t>(DiffEncoding::kAbsolute));
  writer.WriteVarint(1);
  writer.WriteVarint((uint64_t{1} << 32) + 3);
  writer.WriteVarint(0);
  writer.WriteFloatSpan(set.models[0][0].second.data());
  Result<DiffView> decoded =
      DiffView::Parse(set.spec, SealWithCrc(std::move(writer)));
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

/// The real read path for compressed artifacts: auto-detecting decompress,
/// then the payload decoder. A flip in the compressed stream either breaks
/// decompression or yields wrong bytes that the payload CRC then rejects —
/// either way the composition must error out, not crash (a corrupted
/// raw-size header in particular must not drive a giant allocation).
TEST(CodecCorruptionTest, CompressedParamBlob) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> raw = EncodeParamBlob(set);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    auto decompressed = DecompressBlob(b);
    if (!decompressed.ok()) return decompressed.status();
    return DecodeParamBlob(set.spec, decompressed.ValueOrDie(),
                           set.models.size())
        .status();
  };
  for (Compression method : {Compression::kLz, Compression::kShuffleLz}) {
    std::string label = "compressed param blob (" +
                        std::string(CompressionName(method)) + ")";
    SweepCorruptions(CompressBlob(method, raw), decode, label);
  }
  SweepGarbage(decode, "compressed param blob");
}

/// Feeds `blob` to the incremental BlobDecompressor in `chunk`-sized
/// pieces, mirroring how stream windows arrive.
Status IncrementalDecompress(std::span<const uint8_t> blob, size_t chunk,
                             std::vector<uint8_t>* out) {
  BlobDecompressor decompressor;
  for (size_t i = 0; i < blob.size(); i += chunk) {
    size_t take = std::min(chunk, blob.size() - i);
    Status status = decompressor.Feed(blob.subspan(i, take), out);
    if (!status.ok()) return status;
  }
  return decompressor.Finish(out);
}

/// The incremental decompressor must agree with the materializing one on
/// every input — same accept/reject verdict (messages may differ) and,
/// when both accept, bit-identical output — at any chunking. In particular
/// a corrupted match offset reaching before the retained window must be
/// rejected, and a truncated stream must fail at Finish instead of
/// returning short output.
void CheckIncrementalAgreement(const std::vector<uint8_t>& blob,
                               const std::string& label) {
  Result<std::vector<uint8_t>> materialized = DecompressBlob(blob);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64 * 1024 + 1}}) {
    std::vector<uint8_t> incremental;
    Status status = IncrementalDecompress(blob, chunk, &incremental);
    ASSERT_EQ(status.ok(), materialized.ok())
        << label << " chunk " << chunk << ": incremental says '"
        << status.ToString() << "', materializing says '"
        << materialized.status().ToString() << "'";
    if (materialized.ok()) {
      ASSERT_EQ(incremental, materialized.ValueOrDie())
          << label << " chunk " << chunk << ": outputs diverge";
    }
  }
}

/// Fuzz-style sweep for the incremental decoder (DESIGN.md §12): every
/// truncation and bit flip of a compressed param blob, decoded in three
/// chunkings, must match the materializing decoder's verdict and bytes.
TEST(CodecCorruptionTest, IncrementalDecompressorAgreesUnderCorruption) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> raw = EncodeParamBlob(set);
  for (Compression method :
       {Compression::kNone, Compression::kLz, Compression::kShuffleLz}) {
    std::vector<uint8_t> blob = CompressBlob(method, raw);
    std::string label = "incremental (" +
                        std::string(CompressionName(method)) + ")";
    CheckIncrementalAgreement(blob, label);
    for (size_t n : TruncationLengths(blob.size())) {
      CheckIncrementalAgreement(
          std::vector<uint8_t>(blob.begin(), blob.begin() + n),
          label + " truncated to " + std::to_string(n));
    }
    for (size_t pos : FlipPositions(blob.size())) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
        std::vector<uint8_t> flipped = blob;
        flipped[pos] ^= mask;
        CheckIncrementalAgreement(flipped, label + " flipped at " +
                                               std::to_string(pos));
      }
    }
  }
  // Deterministic garbage, including inputs that masquerade as headers.
  uint64_t state = 0x243f6a8885a308d3ull;
  for (size_t size : {1, 2, 3, 4, 5, 8, 16, 64, 4096}) {
    std::vector<uint8_t> garbage(size);
    for (uint8_t& b : garbage) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<uint8_t>(state >> 56);
    }
    CheckIncrementalAgreement(garbage,
                              "garbage of " + std::to_string(size));
  }
}

/// A match offset pointing before the start of the output (offset > bytes
/// produced so far) must be rejected by the incremental decoder exactly
/// like the materializing one — the retained-window check is equivalent to
/// the materializing `offset > produced` check by construction.
TEST(CodecCorruptionTest, IncrementalLzRejectsOffsetBeforeWindow) {
  // Hand-built MMZ1+lz stream: token = 1 literal + a match, but the match
  // offset (2) reaches before the single produced byte.
  std::vector<uint8_t> raw = {'A', 'A', 'A', 'A', 'A', 'A'};
  std::vector<uint8_t> blob = CompressBlob(Compression::kLz, raw);
  // Locate the first token byte: magic(4) + method(1) + varint raw_size(1).
  ASSERT_GT(blob.size(), 8u);
  const size_t token_at = 6;
  std::vector<uint8_t> bad = blob;
  // Rewrite the offset bytes right after the token+literal to 0x0002.
  // Original stream: token(1 lit, match) 'A' off_lo off_hi ...
  bad[token_at + 2] = 0x02;
  bad[token_at + 3] = 0x00;
  CheckIncrementalAgreement(bad, "lz offset before window");
  std::vector<uint8_t> out;
  Status status = IncrementalDecompress(bad, 1, &out);
  EXPECT_FALSE(status.ok());
  // Offset 0 is never valid either.
  std::vector<uint8_t> zero = blob;
  zero[token_at + 2] = 0x00;
  zero[token_at + 3] = 0x00;
  CheckIncrementalAgreement(zero, "lz offset zero");
}

/// The architecture blob is JSON text: a flipped character inside a string
/// can still parse, so only the no-crash contract applies.
TEST(CodecCorruptionTest, ArchBlobNeverCrashes) {
  std::string text = EncodeArchBlob(Ffnn48Spec());
  std::vector<uint8_t> blob(text.begin(), text.end());
  Decoder decode = [](std::span<const uint8_t> b) {
    auto parsed = DecodeArchBlob(std::string(b.begin(), b.end()));
    (void)parsed;
    return Status::OK();
  };
  SweepCorruptions(blob, decode, "arch blob", /*expect_error=*/false);
}

}  // namespace
}  // namespace mmm
