#include <gtest/gtest.h>

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

}  // namespace
}  // namespace mmm
