#ifndef MMM_TENSOR_OPS_H_
#define MMM_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace mmm {

/// \file
/// Dense tensor operations used by the NN substrate. All ops allocate their
/// result; *InPlace variants mutate the first argument. Shape mismatches are
/// programmer errors (MMM_DCHECK). Reductions use a fixed left-to-right
/// order, which keeps training bit-deterministic across runs — a requirement
/// for the Provenance approach's exact replay. Kernels vectorize across
/// independent outputs only, never by reordering one output's reduction, and
/// the library builds with -ffp-contract=off so no build fuses a multiply
/// and an add into an FMA: trained bytes are the same on every build.

/// \name Elementwise binary ops (equal shapes).
/// @{
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
void AddInPlace(Tensor* a, const Tensor& b);
void SubInPlace(Tensor* a, const Tensor& b);
/// a += scale * b  (the SGD update step).
void Axpy(Tensor* a, float scale, const Tensor& b);
/// @}

/// \name Scalar ops.
/// @{
Tensor Scale(const Tensor& a, float factor);
void ScaleInPlace(Tensor* a, float factor);
Tensor AddScalar(const Tensor& a, float value);
/// @}

/// Applies `fn` (float -> float) elementwise. A template, so the callable
/// inlines into the loop.
template <typename Fn>
Tensor Map(const Tensor& a, Fn&& fn) {
  Tensor out = a;
  for (float& x : out.mutable_data()) x = fn(x);
  return out;
}

/// \name Matrix ops (2-D tensors).
/// @{
/// [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// [m,k] x [n,k]^T -> [m,n] (right operand transposed, as Linear::Forward
/// holds its weight). Each output is the k-ordered sum
/// `((0 + a[i,0]*b[j,0]) + a[i,1]*b[j,1]) + ...`, computed for a whole row of
/// outputs at once.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);
/// [m,k]^T x [m,n] -> [k,n] (left operand transposed; used for weight grads).
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);
Tensor Transpose2D(const Tensor& a);
/// Adds a length-n row vector to every row of an [m,n] matrix.
Tensor AddRowVector(const Tensor& matrix, const Tensor& row);
/// Sums an [m,n] matrix over rows into a length-n vector.
Tensor SumRows(const Tensor& matrix);
/// @}

/// \name Reductions.
/// @{
float Sum(const Tensor& a);
float Mean(const Tensor& a);
float MaxAbs(const Tensor& a);
/// Index of the max element in each row of an [m,n] matrix.
std::vector<size_t> ArgMaxRows(const Tensor& matrix);
/// @}

/// Row-wise softmax of an [m,n] matrix (numerically stabilized).
Tensor SoftmaxRows(const Tensor& logits);

}  // namespace mmm

#endif  // MMM_TENSOR_OPS_H_
