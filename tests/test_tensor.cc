#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "serialize/sha256.h"
#include "tensor/ops.h"
#include "tensor/tensor_serialize.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

using testing::RandomTensor;

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.ndim(), 0u);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (float x : t.data()) EXPECT_EQ(x, 0.0f);
}

TEST(TensorTest, FromDataAndAccessors) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at2(0, 0), 1.0f);
  EXPECT_EQ(t.at2(1, 2), 6.0f);
  t.at2(1, 0) = 9.0f;
  EXPECT_EQ(t.at(3), 9.0f);
}

TEST(TensorTest, FourDimIndexing) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t.at(t.numel() - 1), 7.0f);
  t.at4(0, 0, 0, 0) = 3.0f;
  EXPECT_EQ(t.at(0), 3.0f);
}

TEST(TensorTest, FullAndFill) {
  Tensor t = Tensor::Full(Shape{4}, 2.5f);
  for (float x : t.data()) EXPECT_EQ(x, 2.5f);
  t.Fill(-1.0f);
  for (float x : t.data()) EXPECT_EQ(x, -1.0f);
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({1, 2, 3});
  EXPECT_EQ(t.shape(), (Shape{3}));
}

TEST(TensorTest, ReshapeKeepsData) {
  Tensor t(Shape{2, 6}, std::vector<float>(12, 1.0f));
  Tensor r = t.Reshape(Shape{3, 4});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_TRUE(std::equal(t.data().begin(), t.data().end(), r.data().begin()));
}

TEST(TensorTest, CopiesAndReshapesShareTheBuffer) {
  std::vector<float> values(12, 1.0f);
  const float* storage = values.data();
  Tensor t(Shape{2, 6}, std::move(values));
  EXPECT_EQ(t.data().data(), storage);  // the vector moved in, no copy
  Tensor copy = t;
  Tensor view = t.Reshape(Shape{3, 4});
  EXPECT_EQ(copy.data().data(), storage);
  EXPECT_EQ(view.data().data(), storage);

  // A sole owner writes in place.
  Tensor moved = std::move(copy);
  EXPECT_TRUE(copy.empty());
  view = Tensor();
  t = Tensor();
  EXPECT_EQ(moved.mutable_data().data(), storage);
}

// Every mutating accessor detaches a shared buffer: a write through a copy
// (or a reshaped view) never reaches the tensor it was taken from, and a
// write through the original never reaches the copy.
TEST(TensorTest, WritesCopyASharedBufferFirst) {
  const std::vector<
      std::pair<const char*, std::function<void(Tensor*)>>> writes = {
      {"mutable_data", [](Tensor* t) { t->mutable_data()[5] = -1.0f; }},
      {"at", [](Tensor* t) { t->at(5) = -1.0f; }},
      {"at2",
       [](Tensor* t) {
         *t = t->Reshape(Shape{4, 6});
         t->at2(0, 5) = -1.0f;
       }},
      {"at4",
       [](Tensor* t) {
         *t = t->Reshape(Shape{1, 2, 3, 4});
         t->at4(0, 0, 1, 1) = -1.0f;
       }},
      {"Fill", [](Tensor* t) { t->Fill(-1.0f); }},
  };
  const Tensor reference = RandomTensor(Shape{24}, 3);
  for (const auto& [name, write] : writes) {
    SCOPED_TRACE(name);
    Tensor original = reference;
    Tensor copy = original;
    write(&copy);
    EXPECT_TRUE(original.Equals(reference));
    EXPECT_FALSE(copy.Reshape(Shape{24}).Equals(reference));

    Tensor view = original.Reshape(Shape{2, 12});
    write(&view);
    EXPECT_TRUE(original.Equals(reference));

    Tensor kept = original;
    write(&original);
    EXPECT_TRUE(kept.Equals(reference));
  }
}

// The digest memo (see Tensor's class comment): published only on a shared
// buffer, carried by everything that shares the buffer, cleared by every
// mutable accessor on a sole owner, absent from a detached copy.
TEST(TensorTest, DigestMemoIsPublishedOnlyOnASharedBuffer) {
  const Sha256Digest digest = Sha256::Hash("any 32 bytes stand in here");
  Sha256Digest loaded;
  Tensor empty;
  empty.PublishDigest(digest);
  EXPECT_FALSE(empty.LoadDigest(&loaded));

  Tensor sole = RandomTensor(Shape{24}, 3);
  sole.PublishDigest(digest);
  EXPECT_FALSE(sole.LoadDigest(&loaded));

  Tensor copy = sole;
  EXPECT_FALSE(copy.LoadDigest(&loaded));
  copy.PublishDigest(digest);
  ASSERT_TRUE(sole.LoadDigest(&loaded));
  EXPECT_EQ(loaded, digest);

  // A second publish keeps the first memo.
  copy.PublishDigest(Sha256::Hash("another"));
  ASSERT_TRUE(copy.LoadDigest(&loaded));
  EXPECT_EQ(loaded, digest);

  // Once published it stays readable after the sharing ends.
  copy = Tensor();
  ASSERT_TRUE(sole.LoadDigest(&loaded));
  EXPECT_EQ(loaded, digest);
}

TEST(TensorTest, CopiesReshapesAndMovesCarryTheDigestMemo) {
  const Sha256Digest digest = Sha256::Hash("memo");
  Tensor original = RandomTensor(Shape{24}, 3);
  Tensor copy = original;
  copy.PublishDigest(digest);

  Sha256Digest loaded;
  Tensor view = original.Reshape(Shape{4, 6});
  ASSERT_TRUE(view.LoadDigest(&loaded));
  EXPECT_EQ(loaded, digest);
  Tensor assigned;
  assigned = view;
  ASSERT_TRUE(assigned.LoadDigest(&loaded));
  EXPECT_EQ(loaded, digest);
  Tensor moved = std::move(copy);
  ASSERT_TRUE(moved.LoadDigest(&loaded));
  EXPECT_EQ(loaded, digest);
  EXPECT_FALSE(copy.LoadDigest(&loaded));
  Tensor move_assigned;
  move_assigned = std::move(moved);
  ASSERT_TRUE(move_assigned.LoadDigest(&loaded));
  EXPECT_EQ(loaded, digest);
}

TEST(TensorTest, EveryMutableAccessOfASoleOwnerClearsTheDigestMemo) {
  const std::vector<
      std::pair<const char*, std::function<void(Tensor*)>>> accesses = {
      {"mutable_data", [](Tensor* t) { t->mutable_data(); }},
      {"at", [](Tensor* t) { t->at(5); }},
      {"at2", [](Tensor* t) { t->at2(0, 5); }},
      {"at4", [](Tensor* t) { t->at4(0, 0, 1, 1); }},
      {"Fill", [](Tensor* t) { t->Fill(0.0f); }},
  };
  const std::vector<Shape> shapes = {{24}, {24}, {4, 6}, {1, 2, 3, 4}, {24}};
  const Sha256Digest digest = Sha256::Hash("memo");
  for (size_t i = 0; i < accesses.size(); ++i) {
    SCOPED_TRACE(accesses[i].first);
    Tensor sole = RandomTensor(shapes[i], 3);
    {
      Tensor sharer = sole;
      sharer.PublishDigest(digest);
    }
    Sha256Digest loaded;
    ASSERT_TRUE(sole.LoadDigest(&loaded));
    // Even an access that writes nothing clears it: the pointer it hands
    // out may be written through later.
    accesses[i].second(&sole);
    EXPECT_FALSE(sole.LoadDigest(&loaded));
  }
}

TEST(TensorTest, ADetachedCopyStartsWithoutADigestMemo) {
  const Sha256Digest digest = Sha256::Hash("memo");
  Tensor original = RandomTensor(Shape{24}, 3);
  Tensor copy = original;
  copy.PublishDigest(digest);
  copy.at(0) = -1.0f;  // detaches
  Sha256Digest loaded;
  EXPECT_FALSE(copy.LoadDigest(&loaded));
  // The buffer it left keeps its memo, which still describes its bytes.
  ASSERT_TRUE(original.LoadDigest(&loaded));
  EXPECT_EQ(loaded, digest);
}

TEST(TensorTest, EqualsAndAllClose) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {1, 2, 3});
  Tensor c(Shape{3}, {1, 2, 3.0001f});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_TRUE(a.AllClose(c, 1e-3f));
  EXPECT_FALSE(a.AllClose(c, 1e-6f));
  EXPECT_FALSE(a.AllClose(Tensor(Shape{4})));
}

TEST(TensorTest, ToStringShowsShape) {
  Tensor t(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_NE(t.ToString().find("[2x2]"), std::string::npos);
}

TEST(TensorOpsTest, AddSubMul) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {10, 20, 30});
  EXPECT_TRUE(Add(a, b).Equals(Tensor(Shape{3}, {11, 22, 33})));
  EXPECT_TRUE(Sub(b, a).Equals(Tensor(Shape{3}, {9, 18, 27})));
  EXPECT_TRUE(Mul(a, b).Equals(Tensor(Shape{3}, {10, 40, 90})));
}

TEST(TensorOpsTest, InPlaceVariants) {
  Tensor a(Shape{2}, {1, 2});
  AddInPlace(&a, Tensor(Shape{2}, {5, 5}));
  EXPECT_TRUE(a.Equals(Tensor(Shape{2}, {6, 7})));
  SubInPlace(&a, Tensor(Shape{2}, {1, 1}));
  EXPECT_TRUE(a.Equals(Tensor(Shape{2}, {5, 6})));
  Axpy(&a, 2.0f, Tensor(Shape{2}, {1, 2}));
  EXPECT_TRUE(a.Equals(Tensor(Shape{2}, {7, 10})));
}

TEST(TensorOpsTest, ScaleAndAddScalar) {
  Tensor a(Shape{2}, {2, -4});
  EXPECT_TRUE(Scale(a, 0.5f).Equals(Tensor(Shape{2}, {1, -2})));
  EXPECT_TRUE(AddScalar(a, 1.0f).Equals(Tensor(Shape{2}, {3, -3})));
}

TEST(TensorOpsTest, MapApplies) {
  Tensor a(Shape{3}, {-1, 0, 2});
  Tensor abs = Map(a, [](float x) { return std::fabs(x); });
  EXPECT_TRUE(abs.Equals(Tensor(Shape{3}, {1, 0, 2})));
}

TEST(TensorOpsTest, MatMulKnownValues) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(c.Equals(Tensor(Shape{2, 2}, {58, 64, 139, 154})));
}

TEST(TensorOpsTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Tensor a = RandomTensor(Shape{4, 6}, 1);
  Tensor b = RandomTensor(Shape{5, 6}, 2);   // b^T is [6,5]
  Tensor expected = MatMul(a, Transpose2D(b));
  EXPECT_TRUE(MatMulTransposedB(a, b).AllClose(expected, 1e-5f));

  Tensor c = RandomTensor(Shape{4, 3}, 3);   // a^T c : [6,3]
  Tensor expected2 = MatMul(Transpose2D(a), c);
  EXPECT_TRUE(MatMulTransposedA(a, c).AllClose(expected2, 1e-5f));
}

/// The dot-product loop MatMulTransposedB replaced. Trained parameters, and
/// so Provenance replay of sets saved by older builds, depend on the kernel
/// computing exactly these sums.
Tensor DotProductMatMulTransposedB(const Tensor& a, const Tensor& b) {
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out(Shape{m, n});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a.at2(i, p) * b.at2(j, p);
      out.at2(i, j) = acc;
    }
  }
  return out;
}

/// Equal bits, or both NaN: IEEE 754 leaves the payload of a NaN produced
/// from two NaN operands to the operand order, which the compiler may swap.
bool SameBits(float x, float y) {
  return (std::isnan(x) && std::isnan(y)) ||
         std::bit_cast<uint32_t>(x) == std::bit_cast<uint32_t>(y);
}

/// Values in [-1, 1), with one in `special_every` drawn from `specials`.
Tensor MixedTensor(const Shape& shape, Rng* rng,
                   const std::vector<float>& specials, uint64_t special_every) {
  Tensor t(shape);
  for (float& x : t.mutable_data()) {
    x = specials.empty() || rng->NextBounded(special_every) != 0
            ? static_cast<float>(rng->NextUniform(-1.0, 1.0))
            : specials[rng->NextBounded(specials.size())];
  }
  return t;
}

TEST(TensorOpsTest, MatMulTransposedBMatchesTheDotProductLoopBitForBit) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kDenormMin = std::numeric_limits<float>::denorm_min();
  const std::vector<float> signed_tiny = {0.0f, -0.0f, kDenormMin, -kDenormMin,
                                          1e-39f, -3e-40f, 1e-20f, -1e-20f};
  std::vector<float> non_finite = signed_tiny;
  non_finite.insert(non_finite.end(),
                    {kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
                     3e38f, -3e38f});
  struct Mix {
    const char* name;
    std::vector<float> specials;
    uint64_t every;
  };
  const Mix mixes[] = {{"finite", {}, 1},
                       {"zeros and subnormals", signed_tiny, 2},
                       {"inf and nan", non_finite, 12}};
  const size_t ms[] = {0, 1, 3, 17};
  const size_t ks[] = {0, 1, 2, 7, 33};
  const size_t ns[] = {0, 1, 5, 16, 17, 31};
  Rng rng(2024);
  for (const Mix& mix : mixes) {
    for (size_t m : ms) {
      for (size_t k : ks) {
        for (size_t n : ns) {
          Tensor a = MixedTensor(Shape{m, k}, &rng, mix.specials, mix.every);
          Tensor b = MixedTensor(Shape{n, k}, &rng, mix.specials, mix.every);
          Tensor got = MatMulTransposedB(a, b);
          Tensor want = DotProductMatMulTransposedB(a, b);
          ASSERT_EQ(got.shape(), want.shape());
          for (size_t i = 0; i < got.numel(); ++i) {
            ASSERT_TRUE(SameBits(got.at(i), want.at(i)))
                << mix.name << " m=" << m << " k=" << k << " n=" << n
                << " output " << i << ": " << got.at(i) << " vs " << want.at(i);
          }
        }
      }
    }
  }
}

TEST(TensorOpsTest, TransposeIsInvolution) {
  Tensor a = RandomTensor(Shape{3, 7}, 4);
  EXPECT_TRUE(Transpose2D(Transpose2D(a)).Equals(a));
}

TEST(TensorOpsTest, AddRowVectorBroadcasts) {
  Tensor m(Shape{2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor row(Shape{3}, {10, 20, 30});
  EXPECT_TRUE(
      AddRowVector(m, row).Equals(Tensor(Shape{2, 3}, {10, 20, 30, 11, 21, 31})));
}

TEST(TensorOpsTest, SumRowsReduces) {
  Tensor m(Shape{2, 3}, {1, 2, 3, 10, 20, 30});
  EXPECT_TRUE(SumRows(m).Equals(Tensor(Shape{3}, {11, 22, 33})));
}

TEST(TensorOpsTest, Reductions) {
  Tensor a(Shape{4}, {1, -2, 3, -4});
  EXPECT_EQ(Sum(a), -2.0f);
  EXPECT_EQ(Mean(a), -0.5f);
  EXPECT_EQ(MaxAbs(a), 4.0f);
}

TEST(TensorOpsTest, ArgMaxRows) {
  Tensor m(Shape{2, 3}, {0.1f, 0.9f, 0.5f, 2.0f, 1.0f, 0.0f});
  EXPECT_EQ(ArgMaxRows(m), (std::vector<size_t>{1, 0}));
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  Tensor logits = RandomTensor(Shape{5, 10}, 6);
  Tensor probs = SoftmaxRows(logits);
  for (size_t i = 0; i < 5; ++i) {
    float row_sum = 0.0f;
    for (size_t j = 0; j < 10; ++j) {
      EXPECT_GT(probs.at2(i, j), 0.0f);
      row_sum += probs.at2(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
  }
}

TEST(TensorOpsTest, SoftmaxNumericallyStableForLargeLogits) {
  Tensor logits(Shape{1, 3}, {1000.0f, 1000.0f, 900.0f});
  Tensor probs = SoftmaxRows(logits);
  EXPECT_NEAR(probs.at2(0, 0), 0.5f, 1e-4f);
  EXPECT_NEAR(probs.at2(0, 2), 0.0f, 1e-4f);
}

// Property: matmul agrees with a naive triple loop across shapes.
class MatMulSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(MatMulSweep, MatchesNaiveReference) {
  auto [m, k, n] = GetParam();
  Tensor a = RandomTensor(Shape{m, k}, m * 100 + k);
  Tensor b = RandomTensor(Shape{k, n}, k * 100 + n);
  Tensor fast = MatMul(a, b);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a.at2(i, p) * b.at2(p, j);
      ASSERT_NEAR(fast.at2(i, j), acc, 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 1),
                      std::make_tuple(4, 4, 4), std::make_tuple(2, 7, 3),
                      std::make_tuple(8, 1, 8), std::make_tuple(16, 16, 16)));

class TensorSerializeSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(TensorSerializeSweep, RoundTrips) {
  Tensor original = RandomTensor(GetParam(), 42);
  BinaryWriter writer;
  WriteTensor(&writer, original);
  BinaryReader reader(writer.buffer());
  ASSERT_OK_AND_ASSIGN(Tensor decoded, ReadTensor(&reader));
  EXPECT_TRUE(decoded.Equals(original));
  EXPECT_TRUE(reader.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Shapes, TensorSerializeSweep,
                         ::testing::Values(Shape{1}, Shape{48}, Shape{48, 4},
                                           Shape{1, 1, 1, 1}, Shape{6, 3, 5, 5},
                                           Shape{2, 3, 4}));

TEST(TensorSerializeTest, TruncatedDataFails) {
  Tensor t = RandomTensor(Shape{10}, 1);
  BinaryWriter writer;
  WriteTensor(&writer, t);
  BinaryReader reader(
      std::span<const uint8_t>(writer.buffer().data(), writer.size() - 4));
  EXPECT_TRUE(ReadTensor(&reader).status().IsCorruption());
}

TEST(TensorSerializeTest, AbsurdRankFails) {
  BinaryWriter writer;
  writer.WriteVarint(100);  // rank 100
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(ReadTensor(&reader).status().IsCorruption());
}

}  // namespace
}  // namespace mmm
