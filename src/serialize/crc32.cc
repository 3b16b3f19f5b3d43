#include "serialize/crc32.h"

#include <array>

#include "common/simd.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mmm {
namespace {

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

// Byte-at-a-time table loop over the inverted-domain register `crc`.
uint32_t ExtendTable(uint32_t crc, const uint8_t* data, size_t n) {
  const auto& table = Table();
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

__m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x.lo * k.lo ^ x.hi * k.hi ^ next: carries lane `x` forward by the stride
// `k` encodes and absorbs the block that lives there.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i x, __m128i k,
                                                     __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply folding for the reflected polynomial 0xEDB88320
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", Intel 2009), the scheme zlib and Chromium ship.
// The constants are x^k mod P(x) in the bit-reflected domain: k1/k2 fold
// across 512 bits (four lanes), k3/k4 across 128 bits (one lane), k5 from
// 96 to 64 bits, and `poly` holds P(x) and the Barrett quotient mu.
//
// Takes and returns the inverted-domain register, like ExtendTable.
// Requires n >= 64 and n % 16 == 0; loads are unaligned.
__attribute__((target("pclmul"))) uint32_t ExtendClmul(uint32_t crc,
                                                      const uint8_t* data,
                                                      size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four lanes in parallel over 64-byte blocks.
  __m128i x1 =
      _mm_xor_si128(Load(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load(data + 16);
  __m128i x3 = Load(data + 32);
  __m128i x4 = Load(data + 48);
  data += 64;
  n -= 64;
  for (; n >= 64; data += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load(data));
    x2 = Fold(x2, k1k2, Load(data + 16));
    x3 = Fold(x3, k1k2, Load(data + 32));
    x4 = Fold(x4, k1k2, Load(data + 48));
  }

  // Four lanes into one, then one 16-byte block at a time.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; data += 16, n -= 16) x1 = Fold(x1, k3k4, Load(data));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00),
                     _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

// The fold runs unless MMM_SIMD pins the scalar level or the CPU lacks
// PCLMULQDQ; decided once per process, like ActiveSimdLevel itself.
bool UseClmul() {
  static const bool use = [] {
    if (ActiveSimdLevel() == SimdLevel::kScalar) return false;
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return use;
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32::Extend(uint32_t crc, std::span<const uint8_t> data) {
  crc = ~crc;
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  if (n >= 64 && UseClmul()) {
    const size_t bulk = n & ~size_t{15};
    crc = ExtendClmul(crc, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~ExtendTable(crc, p, n);
}

uint32_t Crc32::Compute(std::span<const uint8_t> data) { return Extend(0, data); }

uint32_t Crc32::Compute(std::string_view data) {
  return Compute(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

}  // namespace mmm
