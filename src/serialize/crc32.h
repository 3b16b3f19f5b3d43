#ifndef MMM_SERIALIZE_CRC32_H_
#define MMM_SERIALIZE_CRC32_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace mmm {

/// \brief CRC-32 (IEEE 802.3 polynomial, reflected).
///
/// Every blob artifact written by the approaches carries a CRC32 footer so
/// recovery can distinguish truncation/corruption from logic errors.
///
/// On x86-64 CPUs with PCLMULQDQ, the 16-byte multiple bulk of any span of
/// 64 bytes or more is folded with carry-less multiplies (four 128-bit
/// lanes over 64-byte blocks, then 16-byte blocks, then a Barrett
/// reduction); the remaining tail goes through the byte-at-a-time table
/// loop. `MMM_SIMD=scalar` and non-x86 builds use the table loop alone
/// (DESIGN.md §12). Both paths compute the same function, so every value
/// is bit-identical whichever path ran, and the path may differ between
/// the writer and the reader of a blob.
class Crc32 {
 public:
  /// Extends `crc` (use 0 for the first chunk) over `data`.
  static uint32_t Extend(uint32_t crc, std::span<const uint8_t> data);

  /// One-shot checksum.
  static uint32_t Compute(std::span<const uint8_t> data);
  static uint32_t Compute(std::string_view data);
};

}  // namespace mmm

#endif  // MMM_SERIALIZE_CRC32_H_
