#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/env_config.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace mmm {

namespace {

#if defined(__x86_64__)
// AVX-512 instructions fault unless the OS saves the opmask and ZMM
// registers on context switch: XCR0 bits 1-2 (SSE/AVX) and 5-7 (opmask,
// ZMM0-15 upper halves, ZMM16-31) must all be set.
bool OsSavesZmmState() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_OSXSAVE) == 0) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  const uint64_t xcr0 = (uint64_t{xcr0_hi} << 32) | xcr0_lo;
  return (xcr0 & 0xE6) == 0xE6;
}
#endif

SimdLevel DetectSimdLevel() {
#if defined(__x86_64__)
  SimdLevel best = SimdLevel::kSse2;  // baseline for every x86-64 CPU
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) best = SimdLevel::kAvx2;
  if (best == SimdLevel::kAvx2 && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") && OsSavesZmmState()) {
    best = SimdLevel::kAvx512;
  }
#else
  SimdLevel best = SimdLevel::kScalar;
#endif
  // MMM_SIMD clamps downward only: tests pin "scalar"/"sse2"/"avx2" to
  // prove bit-exactness across levels; asking for more than the CPU has
  // keeps the best supported level.
  const std::string want = GetEnvString("MMM_SIMD", "");
  SimdLevel cap = best;
  if (want == "scalar") cap = SimdLevel::kScalar;
  if (want == "sse2") cap = SimdLevel::kSse2;
  if (want == "avx2") cap = SimdLevel::kAvx2;
  return std::min(best, cap);
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

SimdLevel ActiveSimdLevel() {
  // Detection is idempotent, so a racing first call is harmless.
  static std::atomic<int> cached{-1};
  int level = cached.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(DetectSimdLevel());
    cached.store(level, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

namespace simd {

namespace {

void XorBytesScalar(uint8_t* dst, const uint8_t* src, size_t n) {
  // Word-at-a-time through memcpy keeps this UBSan-clean on any alignment.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t a;
    uint64_t b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

#if defined(__x86_64__)
void XorBytesSse2(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(a, b));
  }
  XorBytesScalar(dst + i, src + i, n - i);
}

__attribute__((target("avx2"))) void XorBytesAvx2(uint8_t* dst,
                                                  const uint8_t* src,
                                                  size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  XorBytesScalar(dst + i, src + i, n - i);
}
#endif  // defined(__x86_64__)

}  // namespace

void XorBytes(uint8_t* dst, const uint8_t* src, size_t n) {
#if defined(__x86_64__)
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx512:
    case SimdLevel::kAvx2:
      XorBytesAvx2(dst, src, n);
      return;
    case SimdLevel::kSse2:
      XorBytesSse2(dst, src, n);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  XorBytesScalar(dst, src, n);
}

void XorFloats(float* dst, const float* src, size_t n) {
  XorBytes(reinterpret_cast<uint8_t*>(dst),
           reinterpret_cast<const uint8_t*>(src), n * sizeof(float));
}

void ReplicateRun(uint8_t* dst, size_t offset, size_t n) {
  const uint8_t* src = dst - offset;
  // Short offsets replicate the run's own output; only the sequential
  // scalar loop (or copies narrower than the offset) preserves that
  // semantic bit-exactly.
  if (offset >= 16) {
    // Each 16-byte block reads bytes at least `offset >= 16` behind the
    // write cursor, i.e. bytes finalized by earlier blocks of this same
    // run — equivalent to the byte loop.
    size_t i = 0;
#if defined(__x86_64__)
    if (ActiveSimdLevel() != SimdLevel::kScalar) {
      for (; i + 16 <= n; i += 16) {
        const __m128i block =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), block);
      }
    }
#endif
    for (; i + 8 <= n && offset >= 8; i += 8) {
      uint64_t block;
      std::memcpy(&block, src + i, 8);
      std::memcpy(dst + i, &block, 8);
    }
    for (; i < n; ++i) dst[i] = src[i];
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = src[i];
}

}  // namespace simd

}  // namespace mmm
