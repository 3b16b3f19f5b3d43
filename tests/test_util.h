#ifndef MMM_TESTS_TEST_UTIL_H_
#define MMM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/model_set.h"
#include "serialize/binary_io.h"
#include "serialize/crc32.h"
#include "tensor/tensor.h"

namespace mmm::testing {

/// gtest helpers for Status/Result.
#define ASSERT_OK(expr)                                   \
  do {                                                    \
    const ::mmm::Status _st = (expr);                     \
    ASSERT_TRUE(_st.ok()) << _st.ToString();              \
  } while (false)

#define EXPECT_OK(expr)                                   \
  do {                                                    \
    const ::mmm::Status _st = (expr);                     \
    EXPECT_TRUE(_st.ok()) << _st.ToString();              \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                  \
  auto MMM_CONCAT(_res_, __LINE__) = (rexpr);             \
  ASSERT_TRUE(MMM_CONCAT(_res_, __LINE__).ok())           \
      << MMM_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(MMM_CONCAT(_res_, __LINE__)).ValueOrDie()

/// Unique scratch directory under the system temp dir, removed on
/// destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("mmm-test-" + tag + "-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Uniform random tensor in [-1, 1).
inline Tensor RandomTensor(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (float& x : t.mutable_data()) {
    x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  return t;
}

/// An MMMPARM1 param blob, as stores written before the layer CRC table
/// hold: the header, the floats and the CRC footer, built by hand.
inline std::vector<uint8_t> VersionOneParamBlob(const ModelSet& set) {
  BinaryWriter writer;
  writer.WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>("MMMPARM1"), 8));
  writer.WriteVarint(set.models.size());
  writer.WriteVarint(LayoutNumel(LayoutOf(set.spec)));
  for (const StateDict& model : set.models) {
    for (const auto& [key, tensor] : model) writer.WriteFloatSpan(tensor.data());
  }
  writer.WriteUint32(Crc32::Compute(writer.buffer()));
  return writer.TakeBuffer();
}

}  // namespace mmm::testing

#endif  // MMM_TESTS_TEST_UTIL_H_
