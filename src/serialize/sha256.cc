#include "serialize/sha256.h"

#include <cstring>

#include "common/simd.h"
#include "common/strings.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace mmm {
namespace {

constexpr uint32_t kRoundConstants[64] = {
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

constexpr uint32_t kInitState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};

uint32_t Rotr(uint32_t x, int n) {
  // Masking keeps the complementary shift out of UB territory (x << 32 is
  // undefined for n == 0) even if a future caller passes 0 or 32.
  return (x >> (n & 31)) | (x << ((32 - n) & 31));
}

#if defined(__x86_64__)

// ----- SHA-NI single stream (Intel SHA extensions) -----
//
// sha256rnds2 runs two rounds on the state split as {A,B,E,F} / {C,D,G,H};
// sha256msg1/msg2 extend the message schedule four words at a time. Round
// group g (rounds 4g..4g+3) consumes schedule vector m[g % 4], finishes
// m[(g+1) % 4] with msg2 (groups 3-14) and starts m[(g-1) % 4] with msg1
// (groups 1-12), so four registers carry the whole 64-word schedule.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // Repack the state words A..H into the ABEF / CDGH register pair that
  // sha256rnds2 works on.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (size_t b = 0; b < count; ++b, blocks += 64) {
    const __m128i abef_saved = abef;
    const __m128i cdgh_saved = cdgh;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          byte_swap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = m[g & 3];
      __m128i& next = m[(g + 1) & 3];
      __m128i& prev = m[(g + 3) & 3];
      __m128i msg = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g <= 14) {
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g >= 1 && g <= 12) prev = _mm_sha256msg1_epu32(prev, cur);
    }
    abef = _mm_add_epi32(abef, abef_saved);
    cdgh = _mm_add_epi32(cdgh, cdgh_saved);
  }

  // Back to {A,B,C,D} / {E,F,G,H}.
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

// Single streams use SHA-NI unless MMM_SIMD pins the scalar level or the
// CPU lacks the SHA extensions; decided once per process, like
// ActiveSimdLevel itself.
bool UseShaNi() {
  static const bool use = [] {
    if (ActiveSimdLevel() == SimdLevel::kScalar) return false;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
        (ecx & bit_SSE4_1) == 0) {
      return false;
    }
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ebx & bit_SHA) != 0;
  }();
  return use;
}

#endif  // defined(__x86_64__)

}  // namespace

std::string Sha256Digest::ToHex() const { return HexEncode(bytes); }

Sha256::Sha256() { std::memcpy(state_, kInitState, sizeof(state_)); }

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Compress(const uint8_t* blocks, size_t count) {
#if defined(__x86_64__)
  if (UseShaNi()) {
    CompressShaNi(state_, blocks, count);
    return;
  }
#endif
  for (size_t b = 0; b < count; ++b) ProcessBlock(blocks + b * 64);
}

void Sha256::Update(std::span<const uint8_t> data) {
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffer_size_ > 0) {
    size_t take = std::min(data.size(), sizeof(buffer_) - buffer_size_);
    std::memcpy(buffer_ + buffer_size_, data.data(), take);
    buffer_size_ += take;
    offset += take;
    if (buffer_size_ == sizeof(buffer_)) {
      Compress(buffer_, 1);
      buffer_size_ = 0;
    }
  }
  const size_t whole_blocks = (data.size() - offset) / 64;
  if (whole_blocks > 0) {
    Compress(data.data() + offset, whole_blocks);
    offset += whole_blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_size_ = data.size() - offset;
  }
}

void Sha256::Update(std::string_view data) {
  Update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(data.data()),
                                  data.size()));
}

Sha256Digest Sha256::Finish() {
  const uint64_t bit_length = total_bytes_ * 8;
  // buffer_size_ < 64 here: Update compresses every full buffer.
  buffer_[buffer_size_++] = 0x80;
  if (buffer_size_ > 56) {
    std::memset(buffer_ + buffer_size_, 0, sizeof(buffer_) - buffer_size_);
    Compress(buffer_, 1);
    buffer_size_ = 0;
  }
  std::memset(buffer_ + buffer_size_, 0, 56 - buffer_size_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_length >> (56 - 8 * i));
  }
  Compress(buffer_, 1);
  buffer_size_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest.bytes[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest.bytes[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest.bytes[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest.bytes[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

Sha256Digest Sha256::Hash(std::string_view data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

namespace {

#if defined(__x86_64__)

/// The final padded block(s) of one stream. Every stream in a batch has
/// the same length, so all lanes have the same block count (1 or 2) and
/// the lanes never diverge.
struct Sha256Tail {
  uint8_t bytes[2][64] = {};
  size_t count = 1;
};

Sha256Tail BuildSha256Tail(const uint8_t* stream, size_t length) {
  Sha256Tail tail;
  const size_t rem = length % 64;
  std::memcpy(tail.bytes[0], stream + (length - rem), rem);
  tail.bytes[0][rem] = 0x80;
  tail.count = (rem + 9 <= 64) ? 1 : 2;
  const uint64_t bits = static_cast<uint64_t>(length) * 8;
  uint8_t* length_bytes = tail.bytes[tail.count - 1] + 56;
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
  }
  return tail;
}

/// Writes state word `word` of `lanes` lanes (`values[l]` for lane `l`)
/// into the digests, big-endian.
void StoreDigestWord(const uint32_t* values, int lanes, int word,
                     Sha256Digest* digests) {
  for (int l = 0; l < lanes; ++l) {
    for (int k = 0; k < 4; ++k) {
      digests[l].bytes[word * 4 + k] =
          static_cast<uint8_t>(values[l] >> (24 - 8 * k));
    }
  }
}

uint32_t LoadBigEndian32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

// ----- 4-way SSE2 lanes (baseline x86-64, no target attribute needed) -----

__m128i Rotr4(__m128i x, int n) {
  return _mm_or_si128(_mm_srli_epi32(x, n), _mm_slli_epi32(x, 32 - n));
}

void ProcessBlock4Sse2(__m128i state[8], const uint8_t* const blocks[4]) {
  __m128i w[64];
  alignas(16) uint32_t tmp[4];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < 4; ++l) tmp[l] = LoadBigEndian32(blocks[l] + i * 4);
    w[i] = _mm_load_si128(reinterpret_cast<const __m128i*>(tmp));
  }
  for (int i = 16; i < 64; ++i) {
    const __m128i x15 = w[i - 15];
    const __m128i x2 = w[i - 2];
    const __m128i s0 = _mm_xor_si128(_mm_xor_si128(Rotr4(x15, 7), Rotr4(x15, 18)),
                                     _mm_srli_epi32(x15, 3));
    const __m128i s1 = _mm_xor_si128(_mm_xor_si128(Rotr4(x2, 17), Rotr4(x2, 19)),
                                     _mm_srli_epi32(x2, 10));
    w[i] = _mm_add_epi32(_mm_add_epi32(w[i - 16], s0),
                         _mm_add_epi32(w[i - 7], s1));
  }
  __m128i a = state[0], b = state[1], c = state[2], d = state[3];
  __m128i e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const __m128i s1 =
        _mm_xor_si128(_mm_xor_si128(Rotr4(e, 6), Rotr4(e, 11)), Rotr4(e, 25));
    const __m128i ch =
        _mm_xor_si128(_mm_and_si128(e, f), _mm_andnot_si128(e, g));
    const __m128i temp1 = _mm_add_epi32(
        _mm_add_epi32(_mm_add_epi32(h, s1), _mm_add_epi32(ch, w[i])),
        _mm_set1_epi32(static_cast<int>(kRoundConstants[i])));
    const __m128i s0 =
        _mm_xor_si128(_mm_xor_si128(Rotr4(a, 2), Rotr4(a, 13)), Rotr4(a, 22));
    const __m128i maj = _mm_xor_si128(
        _mm_xor_si128(_mm_and_si128(a, b), _mm_and_si128(a, c)),
        _mm_and_si128(b, c));
    const __m128i temp2 = _mm_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm_add_epi32(temp1, temp2);
  }
  state[0] = _mm_add_epi32(state[0], a);
  state[1] = _mm_add_epi32(state[1], b);
  state[2] = _mm_add_epi32(state[2], c);
  state[3] = _mm_add_epi32(state[3], d);
  state[4] = _mm_add_epi32(state[4], e);
  state[5] = _mm_add_epi32(state[5], f);
  state[6] = _mm_add_epi32(state[6], g);
  state[7] = _mm_add_epi32(state[7], h);
}

void HashMany4Sse2(const uint8_t* const* streams, size_t length,
                   Sha256Digest* digests) {
  __m128i state[8];
  for (int i = 0; i < 8; ++i) {
    state[i] = _mm_set1_epi32(static_cast<int>(kInitState[i]));
  }
  const uint8_t* blocks[4];
  const size_t full_blocks = length / 64;
  for (size_t b = 0; b < full_blocks; ++b) {
    for (int l = 0; l < 4; ++l) blocks[l] = streams[l] + b * 64;
    ProcessBlock4Sse2(state, blocks);
  }
  Sha256Tail tails[4];
  for (int l = 0; l < 4; ++l) tails[l] = BuildSha256Tail(streams[l], length);
  for (size_t t = 0; t < tails[0].count; ++t) {
    for (int l = 0; l < 4; ++l) blocks[l] = tails[l].bytes[t];
    ProcessBlock4Sse2(state, blocks);
  }
  alignas(16) uint32_t tmp[4];
  for (int word = 0; word < 8; ++word) {
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), state[word]);
    StoreDigestWord(tmp, 4, word, digests);
  }
}

// ----- 8-way AVX2 lanes (runtime-dispatched; helpers carry the same
// target attribute so they inline into the kernel) -----

__attribute__((target("avx2"))) inline __m256i Rotr8(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) void ProcessBlock8Avx2(
    __m256i state[8], const uint8_t* const blocks[8]) {
  __m256i w[64];
  alignas(32) uint32_t tmp[8];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < 8; ++l) tmp[l] = LoadBigEndian32(blocks[l] + i * 4);
    w[i] = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
  }
  for (int i = 16; i < 64; ++i) {
    const __m256i x15 = w[i - 15];
    const __m256i x2 = w[i - 2];
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr8(x15, 7), Rotr8(x15, 18)),
        _mm256_srli_epi32(x15, 3));
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr8(x2, 17), Rotr8(x2, 19)),
        _mm256_srli_epi32(x2, 10));
    w[i] = _mm256_add_epi32(_mm256_add_epi32(w[i - 16], s0),
                            _mm256_add_epi32(w[i - 7], s1));
  }
  __m256i a = state[0], b = state[1], c = state[2], d = state[3];
  __m256i e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr8(e, 6), Rotr8(e, 11)), Rotr8(e, 25));
    const __m256i ch =
        _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
    const __m256i temp1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, w[i])),
        _mm256_set1_epi32(static_cast<int>(kRoundConstants[i])));
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr8(a, 2), Rotr8(a, 13)), Rotr8(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i temp2 = _mm256_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(temp1, temp2);
  }
  state[0] = _mm256_add_epi32(state[0], a);
  state[1] = _mm256_add_epi32(state[1], b);
  state[2] = _mm256_add_epi32(state[2], c);
  state[3] = _mm256_add_epi32(state[3], d);
  state[4] = _mm256_add_epi32(state[4], e);
  state[5] = _mm256_add_epi32(state[5], f);
  state[6] = _mm256_add_epi32(state[6], g);
  state[7] = _mm256_add_epi32(state[7], h);
}

__attribute__((target("avx2"))) void HashMany8Avx2(
    const uint8_t* const* streams, size_t length, Sha256Digest* digests) {
  __m256i state[8];
  for (int i = 0; i < 8; ++i) {
    state[i] = _mm256_set1_epi32(static_cast<int>(kInitState[i]));
  }
  const uint8_t* blocks[8];
  const size_t full_blocks = length / 64;
  for (size_t b = 0; b < full_blocks; ++b) {
    for (int l = 0; l < 8; ++l) blocks[l] = streams[l] + b * 64;
    ProcessBlock8Avx2(state, blocks);
  }
  Sha256Tail tails[8];
  for (int l = 0; l < 8; ++l) tails[l] = BuildSha256Tail(streams[l], length);
  for (size_t t = 0; t < tails[0].count; ++t) {
    for (int l = 0; l < 8; ++l) blocks[l] = tails[l].bytes[t];
    ProcessBlock8Avx2(state, blocks);
  }
  alignas(32) uint32_t tmp[8];
  for (int word = 0; word < 8; ++word) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), state[word]);
    StoreDigestWord(tmp, 8, word, digests);
  }
}

// ----- 16-way AVX-512 lanes (F + BW; runtime-dispatched) -----
//
// vprord rotates in one instruction and vpternlogd evaluates each
// three-input function (the XORs in Sigma0/Sigma1/sigma0/sigma1, Ch, Maj)
// in one, so a round takes about half the AVX2 instructions for twice the
// lanes. Rotate and shift counts are literals, and rotates, shifts,
// unpacks and block shuffles use their all-ones maskz forms: GCC 12's
// unmasked forms expand through _mm512_undefined_epi32 and trip
// -Wuninitialized.

#define MMM_AVX512 __attribute__((target("avx512f,avx512bw")))

MMM_AVX512 inline __m512i Xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}

MMM_AVX512 inline __m512i BigSigma0(__m512i x) {
  return Xor3(_mm512_maskz_ror_epi32(0xFFFF, x, 2),
              _mm512_maskz_ror_epi32(0xFFFF, x, 13),
              _mm512_maskz_ror_epi32(0xFFFF, x, 22));
}

MMM_AVX512 inline __m512i BigSigma1(__m512i x) {
  return Xor3(_mm512_maskz_ror_epi32(0xFFFF, x, 6),
              _mm512_maskz_ror_epi32(0xFFFF, x, 11),
              _mm512_maskz_ror_epi32(0xFFFF, x, 25));
}

MMM_AVX512 inline __m512i SmallSigma0(__m512i x) {
  return Xor3(_mm512_maskz_ror_epi32(0xFFFF, x, 7),
              _mm512_maskz_ror_epi32(0xFFFF, x, 18),
              _mm512_maskz_srli_epi32(0xFFFF, x, 3));
}

MMM_AVX512 inline __m512i SmallSigma1(__m512i x) {
  return Xor3(_mm512_maskz_ror_epi32(0xFFFF, x, 17),
              _mm512_maskz_ror_epi32(0xFFFF, x, 19),
              _mm512_maskz_srli_epi32(0xFFFF, x, 10));
}

/// Loads one 64-byte block per lane and transposes the 16x16 word matrix
/// in registers, so `w[k]` holds message word k of every lane: dword then
/// qword unpacks within 128-bit blocks, then two rounds of 128-bit block
/// shuffles. Big-endian words come from one byte shuffle per lane.
MMM_AVX512 void LoadMessage16(const uint8_t* const blocks[16], __m512i w[16]) {
  const __m512i byte_swap = _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b,
                                              0x04050607, 0x00010203);
  __m512i r[16];
  for (int l = 0; l < 16; ++l) {
    r[l] = _mm512_shuffle_epi8(_mm512_loadu_si512(blocks[l]), byte_swap);
  }
  // t[2j], t[2j+1]: words {4q, 4q+1} / {4q+2, 4q+3} of lanes 2j and 2j+1,
  // interleaved within each 128-bit block q.
  __m512i t[16];
  for (int j = 0; j < 8; ++j) {
    t[2 * j] = _mm512_maskz_unpacklo_epi32(0xFFFF, r[2 * j], r[2 * j + 1]);
    t[2 * j + 1] = _mm512_maskz_unpackhi_epi32(0xFFFF, r[2 * j], r[2 * j + 1]);
  }
  // u[4j + o]: block q holds word 4q + o of lanes 4j..4j+3.
  __m512i u[16];
  for (int j = 0; j < 4; ++j) {
    const __m512i* tj = t + 4 * j;
    u[4 * j] = _mm512_maskz_unpacklo_epi64(0xFF, tj[0], tj[2]);
    u[4 * j + 1] = _mm512_maskz_unpackhi_epi64(0xFF, tj[0], tj[2]);
    u[4 * j + 2] = _mm512_maskz_unpacklo_epi64(0xFF, tj[1], tj[3]);
    u[4 * j + 3] = _mm512_maskz_unpackhi_epi64(0xFF, tj[1], tj[3]);
  }
  // Transpose the 4x4 matrix of 128-bit blocks u[4j + o].block(q) so that
  // w[4q + o].block(j) = u[4j + o].block(q).
  const __mmask16 all = 0xFFFF;
  for (int o = 0; o < 4; ++o) {
    const __m512i v0 = _mm512_maskz_shuffle_i32x4(all, u[o], u[4 + o], 0x44);
    const __m512i v1 = _mm512_maskz_shuffle_i32x4(all, u[o], u[4 + o], 0xEE);
    const __m512i v2 =
        _mm512_maskz_shuffle_i32x4(all, u[8 + o], u[12 + o], 0x44);
    const __m512i v3 =
        _mm512_maskz_shuffle_i32x4(all, u[8 + o], u[12 + o], 0xEE);
    w[o] = _mm512_maskz_shuffle_i32x4(all, v0, v2, 0x88);
    w[4 + o] = _mm512_maskz_shuffle_i32x4(all, v0, v2, 0xDD);
    w[8 + o] = _mm512_maskz_shuffle_i32x4(all, v1, v3, 0x88);
    w[12 + o] = _mm512_maskz_shuffle_i32x4(all, v1, v3, 0xDD);
  }
}

MMM_AVX512 void ProcessBlock16Avx512(__m512i state[8],
                                     const uint8_t* const blocks[16]) {
  __m512i w[64];
  LoadMessage16(blocks, w);
  for (int i = 16; i < 64; ++i) {
    w[i] = _mm512_add_epi32(
        _mm512_add_epi32(w[i - 16], SmallSigma0(w[i - 15])),
        _mm512_add_epi32(w[i - 7], SmallSigma1(w[i - 2])));
  }
  __m512i a = state[0], b = state[1], c = state[2], d = state[3];
  __m512i e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const __m512i ch = _mm512_ternarylogic_epi32(e, f, g, 0xCA);
    const __m512i maj = _mm512_ternarylogic_epi32(a, b, c, 0xE8);
    const __m512i temp1 = _mm512_add_epi32(
        _mm512_add_epi32(_mm512_add_epi32(h, BigSigma1(e)),
                         _mm512_add_epi32(ch, w[i])),
        _mm512_set1_epi32(static_cast<int>(kRoundConstants[i])));
    const __m512i temp2 = _mm512_add_epi32(BigSigma0(a), maj);
    h = g;
    g = f;
    f = e;
    e = _mm512_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm512_add_epi32(temp1, temp2);
  }
  state[0] = _mm512_add_epi32(state[0], a);
  state[1] = _mm512_add_epi32(state[1], b);
  state[2] = _mm512_add_epi32(state[2], c);
  state[3] = _mm512_add_epi32(state[3], d);
  state[4] = _mm512_add_epi32(state[4], e);
  state[5] = _mm512_add_epi32(state[5], f);
  state[6] = _mm512_add_epi32(state[6], g);
  state[7] = _mm512_add_epi32(state[7], h);
}

MMM_AVX512 void HashMany16Avx512(const uint8_t* const* streams, size_t length,
                                 Sha256Digest* digests) {
  __m512i state[8];
  for (int i = 0; i < 8; ++i) {
    state[i] = _mm512_set1_epi32(static_cast<int>(kInitState[i]));
  }
  const uint8_t* blocks[16];
  const size_t full_blocks = length / 64;
  for (size_t b = 0; b < full_blocks; ++b) {
    for (int l = 0; l < 16; ++l) blocks[l] = streams[l] + b * 64;
    ProcessBlock16Avx512(state, blocks);
  }
  Sha256Tail tails[16];
  for (int l = 0; l < 16; ++l) tails[l] = BuildSha256Tail(streams[l], length);
  for (size_t t = 0; t < tails[0].count; ++t) {
    for (int l = 0; l < 16; ++l) blocks[l] = tails[l].bytes[t];
    ProcessBlock16Avx512(state, blocks);
  }
  alignas(64) uint32_t tmp[16];
  for (int word = 0; word < 8; ++word) {
    _mm512_store_si512(tmp, state[word]);
    StoreDigestWord(tmp, 16, word, digests);
  }
}

#undef MMM_AVX512

#endif  // defined(__x86_64__)

}  // namespace

void Sha256HashMany(const uint8_t* const* streams, size_t length,
                    size_t count, Sha256Digest* digests) {
  size_t i = 0;
#if defined(__x86_64__)
  const SimdLevel level = ActiveSimdLevel();
  if (level >= SimdLevel::kAvx512) {
    for (; i + 16 <= count; i += 16) {
      HashMany16Avx512(streams + i, length, digests + i);
    }
  }
  if (level >= SimdLevel::kAvx2) {
    for (; i + 8 <= count; i += 8) {
      HashMany8Avx2(streams + i, length, digests + i);
    }
  }
  if (level >= SimdLevel::kSse2) {
    for (; i + 4 <= count; i += 4) {
      HashMany4Sse2(streams + i, length, digests + i);
    }
  }
#endif
  for (; i < count; ++i) {
    digests[i] = Sha256::Hash(std::span<const uint8_t>(streams[i], length));
  }
}

}  // namespace mmm
