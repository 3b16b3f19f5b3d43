#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "serialize/crc32.h"
#include "serialize/sha256.h"

namespace mmm {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(Sha256::Hash("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::Hash(input).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  std::string input(64, 'x');
  // Incremental must equal one-shot at the block boundary.
  Sha256 hasher;
  hasher.Update(input);
  EXPECT_EQ(hasher.Finish().ToHex(), Sha256::Hash(input).ToHex());
}

TEST(Sha256Test, DigestEquality) {
  EXPECT_EQ(Sha256::Hash("x"), Sha256::Hash("x"));
  EXPECT_NE(Sha256::Hash("x"), Sha256::Hash("y"));
}

class Sha256ChunkSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256ChunkSweep, IncrementalMatchesOneShot) {
  Rng rng(321);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextBounded(256));

  Sha256 hasher;
  size_t chunk = GetParam();
  for (size_t offset = 0; offset < data.size(); offset += chunk) {
    size_t n = std::min(chunk, data.size() - offset);
    hasher.Update(std::span<const uint8_t>(data.data() + offset, n));
  }
  EXPECT_EQ(hasher.Finish(), Sha256::Hash(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha256ChunkSweep,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 128, 1000, 4096));

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32::Compute("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32::Compute(""), 0u); }

TEST(Crc32Test, ExtendMatchesOneShot) {
  Rng rng(11);
  std::vector<uint8_t> data(1024);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextBounded(256));
  uint32_t crc = 0;
  crc = Crc32::Extend(crc, std::span<const uint8_t>(data.data(), 100));
  crc = Crc32::Extend(crc, std::span<const uint8_t>(data.data() + 100, 924));
  EXPECT_EQ(crc, Crc32::Compute(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(256, 0x5a);
  uint32_t before = Crc32::Compute(data);
  data[100] ^= 0x01;
  EXPECT_NE(before, Crc32::Compute(data));
}

// Bit-at-a-time reference, independent of both the table loop and the
// carry-less-multiply fold.
uint32_t ReferenceCrc32(uint32_t crc, std::span<const uint8_t> data) {
  crc = ~crc;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng->NextBounded(256));
  return data;
}

// Every length up to 1024 at every start offset within a 16-byte block:
// covers spans below the 64-byte fold threshold, fold bulks with every
// 16-byte remainder count, and every table-loop tail length.
TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  Rng rng(12);
  const std::vector<uint8_t> data = RandomBytes(&rng, 1024 + 15);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const auto init = static_cast<uint32_t>(rng.NextUint64());
      const std::span<const uint8_t> span(data.data() + offset, length);
      ASSERT_EQ(Crc32::Extend(init, span), ReferenceCrc32(init, span))
          << "offset " << offset << " length " << length;
    }
  }
}

// Chained Extend calls split on both sides of the 16- and 64-byte fold
// boundaries must equal one pass over the whole buffer, whichever side of
// the split each piece's fold bulk and tail end up on.
TEST(Crc32Test, ChainedExtendAcrossFoldBoundaries) {
  Rng rng(13);
  const std::vector<uint8_t> data = RandomBytes(&rng, 331);
  const std::span<const uint8_t> all(data);
  const size_t cuts[] = {0,  1,  15, 16, 17,  47,  48,  49,  63, 64,
                         65, 79, 80, 81, 127, 128, 129, 143, 144, 145};
  for (size_t first : cuts) {
    for (size_t second : cuts) {
      const auto init = static_cast<uint32_t>(rng.NextUint64());
      uint32_t crc = Crc32::Extend(init, all.subspan(0, first));
      crc = Crc32::Extend(crc, all.subspan(first, second));
      crc = Crc32::Extend(crc, all.subspan(first + second));
      ASSERT_EQ(crc, ReferenceCrc32(init, all))
          << "pieces " << first << " + " << second << " + rest";
    }
  }
}

// Combine(Compute(a), Compute(b), |b|) == Compute(a + b) on random splits,
// among them the empty head and tail and one-byte tails.
TEST(Crc32Test, CombineMatchesComputeOnRandomSplits) {
  Rng rng(14);
  const std::vector<uint8_t> data = RandomBytes(&rng, 5000);
  for (size_t trial = 0; trial < 300; ++trial) {
    const size_t size = rng.NextBounded(data.size() + 1);
    const std::span<const uint8_t> all(data.data(), size);
    size_t cut = rng.NextBounded(size + 1);
    if (trial % 5 == 0) cut = 0;
    if (trial % 5 == 1) cut = size;
    if (trial % 5 == 2 && size > 0) cut = size - 1;
    const std::span<const uint8_t> a = all.subspan(0, cut);
    const std::span<const uint8_t> b = all.subspan(cut);
    ASSERT_EQ(Crc32::Combine(Crc32::Compute(a), Crc32::Compute(b), b.size()),
              Crc32::Compute(all))
        << "size " << size << " cut " << cut;
    ASSERT_EQ(Crc32::CombineOp(Crc32::Compute(a), Crc32::Compute(b),
                               Crc32::CombineGen(b.size())),
              Crc32::Compute(all));
  }
}

// Tails of 2^24 bytes and more use the length's upper table rows.
TEST(Crc32Test, CombineMatchesComputeOnLongTails) {
  Rng rng(15);
  const std::vector<uint8_t> data = RandomBytes(&rng, (size_t{1} << 24) + 300);
  const std::span<const uint8_t> all(data);
  const uint32_t whole = Crc32::Compute(all);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                     size_t{299}, size_t{300}}) {
    const std::span<const uint8_t> b = all.subspan(cut);
    ASSERT_GE(b.size(), size_t{1} << 24);
    EXPECT_EQ(Crc32::Combine(Crc32::Compute(all.subspan(0, cut)),
                             Crc32::Compute(b), b.size()),
              whole)
        << "cut " << cut;
  }
}

// Past what a test can hash: shifting over n1 zero bytes and then n2 is
// shifting over n1 + n2, for lengths of every magnitude up to 2^63.
TEST(Crc32Test, CombineShiftsComposeForHugeLengths) {
  Rng rng(16);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t n1 = rng.NextUint64() >> (1 + rng.NextBounded(63));
    const uint64_t n2 = rng.NextUint64() >> (1 + rng.NextBounded(63));
    const auto crc = static_cast<uint32_t>(rng.NextUint64());
    ASSERT_EQ(Crc32::Combine(Crc32::Combine(crc, 0, n1), 0, n2),
              Crc32::Combine(crc, 0, n1 + n2))
        << n1 << " + " << n2;
  }
}

// Any message followed by its own CRC, little-endian, has the CRC kResidue.
TEST(Crc32Test, MessageWithItsFooterHasTheResidue) {
  Rng rng(17);
  for (size_t size : {size_t{0}, size_t{1}, size_t{3}, size_t{64},
                      size_t{1000}, size_t{70000}}) {
    std::vector<uint8_t> blob = RandomBytes(&rng, size);
    const uint32_t crc = Crc32::Compute(blob);
    for (int i = 0; i < 4; ++i) {
      blob.push_back(static_cast<uint8_t>(crc >> (8 * i)));
    }
    EXPECT_EQ(Crc32::Compute(blob), Crc32::kResidue) << "size " << size;
    blob[blob.size() / 2] ^= 0x10;
    EXPECT_NE(Crc32::Compute(blob), Crc32::kResidue) << "size " << size;
  }
}

// Plain FIPS 180-4, one padded message at a time: independent of the
// SHA-NI path Sha256::Hash and Update take and of every multi-lane kernel.
Sha256Digest ReferenceSha256(std::span<const uint8_t> data) {
  static constexpr uint32_t kK[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  auto rotr = [](uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };
  std::vector<uint8_t> msg(data.begin(), data.end());
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  const uint64_t bits = uint64_t{data.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t hash[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (size_t block = 0; block < msg.size(); block += 64) {
    uint32_t w[64];
    for (int t = 0; t < 16; ++t) {
      const uint8_t* p = msg.data() + block + 4 * t;
      w[t] = (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
             (uint32_t{p[2]} << 8) | uint32_t{p[3]};
    }
    for (int t = 16; t < 64; ++t) {
      const uint32_t s0 =
          rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const uint32_t s1 =
          rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t v[8];
    std::copy(hash, hash + 8, v);
    for (int t = 0; t < 64; ++t) {
      const uint32_t e = v[4];
      const uint32_t a = v[0];
      const uint32_t t1 = v[7] + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                          ((e & v[5]) ^ (~e & v[6])) + kK[t] + w[t];
      const uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                          ((a & v[1]) ^ (a & v[2]) ^ (v[1] & v[2]));
      std::copy_backward(v, v + 7, v + 8);
      v[4] += t1;
      v[0] = t1 + t2;
    }
    for (int i = 0; i < 8; ++i) hash[i] += v[i];
  }
  Sha256Digest digest;
  for (int i = 0; i < 32; ++i) {
    digest.bytes[i] = static_cast<uint8_t>(hash[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

// Every length through four blocks: each padding shape (one or two final
// blocks, the 55/56-byte boundary) after 0-3 whole blocks.
TEST(Sha256Test, HashMatchesReferenceAtEveryLength) {
  Rng rng(31);
  const std::vector<uint8_t> data = RandomBytes(&rng, 256);
  for (size_t length = 0; length <= data.size(); ++length) {
    const std::span<const uint8_t> span(data.data(), length);
    ASSERT_EQ(Sha256::Hash(span), ReferenceSha256(span)) << "length " << length;
  }
}

// Update splits around the bulk path: an odd lead-in leaves the byte buffer
// part full, then every chunk size 1-130 feeds the rest from an odd address,
// so whole-block bulk calls run both from an empty buffer and right after a
// buffer flush.
TEST(Sha256Test, UpdateSplitsMatchReference) {
  Rng rng(77);
  const std::vector<uint8_t> storage = RandomBytes(&rng, 4096 + 1);
  const std::span<const uint8_t> data(storage.data() + 1, 4096);
  const Sha256Digest expected = ReferenceSha256(data);
  for (size_t lead : {1, 3, 63}) {
    for (size_t chunk = 1; chunk <= 130; ++chunk) {
      Sha256 hasher;
      hasher.Update(data.subspan(0, lead));
      for (size_t offset = lead; offset < data.size(); offset += chunk) {
        hasher.Update(
            data.subspan(offset, std::min(chunk, data.size() - offset)));
      }
      ASSERT_EQ(hasher.Finish(), expected)
          << "lead " << lead << " chunk " << chunk;
    }
  }
}

class Sha256HashManySweep : public ::testing::TestWithParam<size_t> {};

// Counts 1-40 reach every lane width's batches and remainders (16, 8 and 4
// lanes, then single streams). Each stream is its own allocation at a
// distinct misaligned offset that ends exactly `length` bytes later, so a
// kernel reading past a stream's end trips ASan.
TEST_P(Sha256HashManySweep, MatchesReference) {
  const size_t length = GetParam();
  constexpr size_t kMaxCount = 40;
  Rng rng(400 + length);
  std::vector<std::vector<uint8_t>> buffers(kMaxCount);
  std::vector<const uint8_t*> streams(kMaxCount);
  std::vector<Sha256Digest> expected(kMaxCount);
  for (size_t s = 0; s < kMaxCount; ++s) {
    const size_t offset = 1 + (s * 5) % 63;
    buffers[s] = RandomBytes(&rng, offset + length);
    streams[s] = buffers[s].data() + offset;
    expected[s] = ReferenceSha256({streams[s], length});
  }
  for (size_t count = 1; count <= kMaxCount; ++count) {
    std::vector<Sha256Digest> digests(count);
    Sha256HashMany(streams.data(), length, count, digests.data());
    for (size_t s = 0; s < count; ++s) {
      ASSERT_EQ(digests[s], expected[s])
          << "count " << count << " stream " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256HashManySweep,
                         ::testing::Values(0, 1, 55, 56, 63, 64, 65, 119, 120,
                                           128, 192, 768, 9216));

}  // namespace
}  // namespace mmm
