#ifndef MMM_COMMON_SIMD_H_
#define MMM_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace mmm {

/// \brief Runtime-dispatched SIMD substrate for the recovery hot loops
/// (DESIGN.md §12).
///
/// Every primitive here is bit-exact with its scalar fallback by
/// construction: all of them are pure byte moves or integer/bitwise
/// operations, so the vectorized variants produce the identical output
/// bytes — no floating-point re-association, no lane-dependent rounding.
/// That is what lets the streaming recovery path flip between ISA levels
/// (and lets tests pin a level via MMM_SIMD) without perturbing hashes,
/// CRCs, or recovered tensors.
///
/// Dispatch policy: the active level is detected once per process from
/// CPUID (AVX-512 > AVX2 > SSE2 > scalar; non-x86 builds are always
/// scalar) and can be clamped down with the MMM_SIMD environment variable
/// ("scalar", "sse2", "avx2", "avx512") — requesting a level the CPU lacks
/// falls back to the best supported one. The primitives are small enough
/// that per-call dispatch is a single relaxed atomic load. Levels are
/// ordered, so a kernel for level L serves every level >= L.
enum class SimdLevel {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3,  // AVX-512 F + BW with ZMM state enabled by the OS
};

/// Human-readable level name ("scalar", "sse2", "avx2", "avx512") for bench
/// metadata.
const char* SimdLevelName(SimdLevel level);

/// The level the process dispatches to: min(CPU support, MMM_SIMD clamp).
/// Detected once; cheap to call afterwards.
SimdLevel ActiveSimdLevel();

namespace simd {

/// dst[i] ^= src[i] for i in [0, n). The regions must not overlap. This is
/// the delta-apply kernel: XOR of raw IEEE-754 bit patterns (via uint8/
/// uint32 lanes), never float arithmetic, so it is bit-exact at any level.
void XorBytes(uint8_t* dst, const uint8_t* src, size_t n);

/// Float-typed convenience over XorBytes for tensor delta-apply; operates
/// on the bit patterns of `n` floats.
void XorFloats(float* dst, const float* src, size_t n);

/// LZ match copy: replicates `n` bytes starting `offset` bytes *behind*
/// `dst` into `dst`, byte-sequentially — i.e. bit-exact with
///   for (i < n) dst[i] = dst[i - offset];
/// which is the overlap/RLE semantic the LZ decoders rely on (offset < n
/// replicates bytes written earlier in the same call). `offset >= 1` and
/// the caller guarantees `dst - offset` through `dst + n` is valid,
/// writable memory. Wide copies are used only when they cannot observe
/// their own output (offset >= vector width); short offsets fall back to
/// the scalar loop, keeping the result identical everywhere.
void ReplicateRun(uint8_t* dst, size_t offset, size_t n);

}  // namespace simd

}  // namespace mmm

#endif  // MMM_COMMON_SIMD_H_
