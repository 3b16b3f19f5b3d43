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

  /// The CRC of `a` followed by `b`, from `crc_a` = Compute(a), `crc_b` =
  /// Compute(b) and `length_b` = b.size(), without touching the bytes
  /// (zlib's crc32_combine): `crc_a` is multiplied by x^(8 * length_b)
  /// modulo the polynomial and added to `crc_b`. The power is the product
  /// of table entries x^(8 * v * 256^k), one per nonzero byte v of
  /// `length_b`, and each multiply is a carry-less product reduced through
  /// the CRC table, so a combine costs a few dozen operations however long
  /// `b` is.
  static uint32_t Combine(uint32_t crc_a, uint32_t crc_b, uint64_t length_b);

  /// Combine split for many combines over one length (zlib's
  /// crc32_combine_gen / crc32_combine_op): CombineOp(a, b,
  /// CombineGen(n)) == Combine(a, b, n), and CombineOp is one multiply.
  static uint32_t CombineGen(uint64_t length_b);
  static uint32_t CombineOp(uint32_t crc_a, uint32_t crc_b, uint32_t op);

  /// The CRC of any message followed by its own CRC, little-endian:
  /// Compute(m + le32(Compute(m))) == kResidue for every m. So a blob whose
  /// last 4 bytes are a CRC footer over the rest checks out exactly when the
  /// CRC of the whole blob is kResidue.
  static constexpr uint32_t kResidue = 0x2144DF1Cu;
};

}  // namespace mmm

#endif  // MMM_SERIALIZE_CRC32_H_
