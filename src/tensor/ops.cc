#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

namespace mmm {

namespace {
void CheckSameShape(const Tensor& a, const Tensor& b) {
  MMM_DCHECK(a.shape() == b.shape());
}
}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  AddInPlace(&out, b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  SubInPlace(&out, b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  auto dst = out.mutable_data();
  auto src = b.data();
  for (size_t i = 0; i < dst.size(); ++i) dst[i] *= src[i];
  return out;
}

void AddInPlace(Tensor* a, const Tensor& b) {
  CheckSameShape(*a, b);
  auto dst = a->mutable_data();
  auto src = b.data();
  for (size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

void SubInPlace(Tensor* a, const Tensor& b) {
  CheckSameShape(*a, b);
  auto dst = a->mutable_data();
  auto src = b.data();
  for (size_t i = 0; i < dst.size(); ++i) dst[i] -= src[i];
}

void Axpy(Tensor* a, float scale, const Tensor& b) {
  CheckSameShape(*a, b);
  auto dst = a->mutable_data();
  auto src = b.data();
  for (size_t i = 0; i < dst.size(); ++i) dst[i] += scale * src[i];
}

Tensor Scale(const Tensor& a, float factor) {
  Tensor out = a;
  ScaleInPlace(&out, factor);
  return out;
}

void ScaleInPlace(Tensor* a, float factor) {
  for (float& x : a->mutable_data()) x *= factor;
}

Tensor AddScalar(const Tensor& a, float value) {
  Tensor out = a;
  for (float& x : out.mutable_data()) x += value;
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  MMM_DCHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(0));
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out(Shape{m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.mutable_data().data();
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      const float av = pa[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      float* orow = po + i * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  MMM_DCHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(1));
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  // With b^T laid out [k,n], the innermost loop runs across the n outputs
  // of row i: independent sums the compiler can vectorize, each still
  // accumulated in increasing p. No zero skip, so 0 * Inf and 0 * NaN
  // reach the sum exactly as in a dot product.
  const Tensor bt = Transpose2D(b);
  Tensor out(Shape{m, n});
  const float* pa = a.data().data();
  const float* pb = bt.data().data();
  float* po = out.mutable_data().data();
  for (size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* orow = po + i * n;
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = pb + p * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  MMM_DCHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(0) == b.dim(0));
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out(Shape{k, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.mutable_data().data();
  for (size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      float* orow = po + p * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  MMM_DCHECK(a.ndim() == 2);
  const size_t m = a.dim(0), n = a.dim(1);
  Tensor out(Shape{n, m});
  float* po = out.mutable_data().data();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) po[j * m + i] = a.at2(i, j);
  }
  return out;
}

Tensor AddRowVector(const Tensor& matrix, const Tensor& row) {
  MMM_DCHECK(matrix.ndim() == 2 && row.ndim() == 1 && matrix.dim(1) == row.dim(0));
  Tensor out = matrix;
  const size_t m = matrix.dim(0), n = matrix.dim(1);
  float* po = out.mutable_data().data();
  const float* pr = row.data().data();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) po[i * n + j] += pr[j];
  }
  return out;
}

Tensor SumRows(const Tensor& matrix) {
  MMM_DCHECK(matrix.ndim() == 2);
  const size_t m = matrix.dim(0), n = matrix.dim(1);
  Tensor out(Shape{n});
  float* po = out.mutable_data().data();
  const float* pm = matrix.data().data();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) po[j] += pm[i * n + j];
  }
  return out;
}

float Sum(const Tensor& a) {
  float acc = 0.0f;
  for (float x : a.data()) acc += x;
  return acc;
}

float Mean(const Tensor& a) {
  MMM_DCHECK(a.numel() > 0);
  return Sum(a) / static_cast<float>(a.numel());
}

float MaxAbs(const Tensor& a) {
  float best = 0.0f;
  for (float x : a.data()) best = std::max(best, std::fabs(x));
  return best;
}

std::vector<size_t> ArgMaxRows(const Tensor& matrix) {
  MMM_DCHECK(matrix.ndim() == 2);
  const size_t m = matrix.dim(0), n = matrix.dim(1);
  std::vector<size_t> out(m, 0);
  for (size_t i = 0; i < m; ++i) {
    float best = matrix.at2(i, 0);
    for (size_t j = 1; j < n; ++j) {
      if (matrix.at2(i, j) > best) {
        best = matrix.at2(i, j);
        out[i] = j;
      }
    }
  }
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  MMM_DCHECK(logits.ndim() == 2);
  const size_t m = logits.dim(0), n = logits.dim(1);
  Tensor out = logits;
  float* po = out.mutable_data().data();
  for (size_t i = 0; i < m; ++i) {
    float* row = po + i * n;
    float max_val = row[0];
    for (size_t j = 1; j < n; ++j) max_val = std::max(max_val, row[j]);
    float denom = 0.0f;
    for (size_t j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - max_val);
      denom += row[j];
    }
    for (size_t j = 0; j < n; ++j) row[j] /= denom;
  }
  return out;
}

}  // namespace mmm
