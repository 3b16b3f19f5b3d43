#ifndef MMM_TENSOR_TENSOR_H_
#define MMM_TENSOR_TENSOR_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "serialize/sha256.h"

namespace mmm {

/// \brief Row-major tensor shape: up to kMaxRank dimensions, held inline.
///
/// A vector-like value that never allocates, so copying a tensor (a cache
/// hit, a reshape) copies its shape without a heap allocation, and two
/// shapes compare without chasing a pointer. Exceeding kMaxRank is a
/// programmer error and aborts via MMM_DCHECK; ReadTensor turns a stored
/// rank above it into Corruption before building a shape.
class Shape {
 public:
  /// The largest rank a shape holds (the library's tensors use at most 4).
  static constexpr size_t kMaxRank = 8;

  using value_type = size_t;
  using iterator = size_t*;
  using const_iterator = const size_t*;

  Shape() = default;
  Shape(std::initializer_list<size_t> dims) : Shape(dims.begin(), dims.end()) {}
  template <std::input_iterator It>
  Shape(It first, It last) {
    for (; first != last; ++first) push_back(static_cast<size_t>(*first));
  }

  size_t size() const { return rank_; }
  bool empty() const { return rank_ == 0; }
  /// Unchecked, like std::vector's.
  size_t operator[](size_t i) const { return dims_[i]; }
  size_t& operator[](size_t i) { return dims_[i]; }
  const size_t* begin() const { return dims_.data(); }
  const size_t* end() const { return dims_.data() + rank_; }
  size_t* begin() { return dims_.data(); }
  size_t* end() { return dims_.data() + rank_; }

  void push_back(size_t dim) {
    MMM_DCHECK(rank_ < kMaxRank);
    dims_[rank_++] = dim;
  }
  void clear() { rank_ = 0; }

  friend bool operator==(const Shape& a, const Shape& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<size_t, kMaxRank> dims_{};
  size_t rank_ = 0;
};

/// \brief Dense row-major float32 tensor.
///
/// The numeric foundation of the NN substrate. Deliberately simple: always
/// contiguous, always float32 (the paper's models are float32 — "4 Byte
/// floats", §4.2). Value semantics with a shared, copy-on-write buffer:
/// copying a tensor (or reshaping it) shares its buffer, and the first
/// write through a tensor whose buffer is shared gives that tensor a copy
/// of its own. A write can therefore never reach another tensor, and a
/// tensor handed out by a cache costs a reference-count bump. The shape is
/// held inline (Shape, at most Shape::kMaxRank dimensions), so no copy
/// allocates, and the fields a read touches (buffer, data pointer, element
/// count) come first, ahead of the shape. A span or
/// reference from a mutable accessor must not be written through after the
/// tensor is copied: the copy shares the buffer it points into. Shape
/// violations are programmer errors and abort via MMM_DCHECK; fallible I/O
/// lives in tensor/tensor_serialize.h and returns Status.
///
/// The shared buffer also carries a memo of the SHA-256 of its bytes, so a
/// buffer that many sets (or many saves of one set) share is hashed once
/// (core/blob_formats.cc, ComputeHashTable). A memo never describes stale
/// bytes, by three rules:
///  - it is published only while the buffer is shared (more than one
///    tensor holds it). Every span taken before the sharing is dead by the
///    contract above, so no write can reach the bytes without passing
///    through a mutable accessor again;
///  - once published it is readable at any time, by any holder;
///  - a mutable accessor on a sole owner clears it before handing out the
///    pointer, and on a shared buffer writes to a detached copy, which
///    starts without a memo.
/// The memo's state is an acquire/release atomic (none, busy, ready), so
/// concurrent hashers of one buffer publish race-free: one wins, the
/// others keep their own (identical) digest.
class Tensor {
 public:
  /// Constructs an empty (0-element, 0-dim) tensor.
  Tensor() = default;

  /// Constructs a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Constructs from explicit data; `data.size()` must match the shape.
  /// The vector becomes the tensor's buffer without a copy.
  Tensor(Shape shape, std::vector<float> data);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  /// A moved-from tensor is empty.
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  /// \name Factories
  /// @{
  static Tensor Zeros(Shape shape) { return Tensor(shape); }
  static Tensor Full(Shape shape, float value);
  /// 1-D tensor from values.
  static Tensor FromVector(std::vector<float> values);
  /// @}

  const Shape& shape() const { return shape_; }
  size_t ndim() const { return shape_.size(); }
  /// Total number of elements.
  size_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  /// Size of dimension `dim`.
  size_t dim(size_t d) const {
    MMM_DCHECK(d < shape_.size());
    return shape_[d];
  }

  std::span<const float> data() const { return {data_, numel_}; }
  /// Detaches a shared buffer first. Take it once outside a loop rather
  /// than writing through at()/at2()/at4() per element.
  std::span<float> mutable_data() { return {Writable(), numel_}; }

  /// \name Element access (row-major). The non-const overloads detach a
  /// shared buffer, like mutable_data().
  /// @{
  float& at(size_t i) {
    MMM_DCHECK(i < numel_);
    return Writable()[i];
  }
  float at(size_t i) const {
    MMM_DCHECK(i < numel_);
    return data_[i];
  }
  float& at2(size_t i, size_t j) {
    MMM_DCHECK(ndim() == 2 && i < shape_[0] && j < shape_[1]);
    return Writable()[i * shape_[1] + j];
  }
  float at2(size_t i, size_t j) const {
    MMM_DCHECK(ndim() == 2 && i < shape_[0] && j < shape_[1]);
    return data_[i * shape_[1] + j];
  }
  float& at4(size_t n, size_t c, size_t h, size_t w) {
    MMM_DCHECK(ndim() == 4);
    return Writable()[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float at4(size_t n, size_t c, size_t h, size_t w) const {
    MMM_DCHECK(ndim() == 4);
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  /// @}

  /// Returns a tensor with a new shape of equal numel that shares this
  /// tensor's buffer.
  Tensor Reshape(Shape new_shape) const;

  /// Fills every element with `value`.
  void Fill(float value);

  /// Exact bitwise equality of shape and data.
  bool Equals(const Tensor& other) const;

  /// True when shapes match and elements differ by at most `atol`.
  bool AllClose(const Tensor& other, float atol = 1e-6f) const;

  /// "[2x3] {1, 2, 3, ...}" (first 8 elements).
  std::string ToString() const;

  /// Number of elements implied by a shape.
  static size_t NumElements(const Shape& shape);

  /// Heap bytes a buffer takes besides its values: the shared_ptr control
  /// block (a vtable pointer and two 4-byte counts) and the Buffer header
  /// that follows it in the one allocation std::make_shared makes.
  static size_t BufferHeaderBytes();

  /// Hints the CPU to fetch the line that holds this tensor's buffer
  /// reference counts, which a copy increments. Under std::make_shared the
  /// counts are the word just before the Buffer. A hint only: no effect on
  /// any value, and a no-op for a tensor with no buffer.
  void PrefetchBuffer() const {
    if (buffer_ != nullptr) {
      __builtin_prefetch(reinterpret_cast<const void*>(
                             reinterpret_cast<uintptr_t>(buffer_.get()) -
                             sizeof(uint64_t)),
                         /*rw=*/1);
    }
  }

  /// \name Digest memo (see the class comment)
  /// @{
  /// Copies the published digest of data()'s bytes into `*digest`; false
  /// when none is published.
  bool LoadDigest(Sha256Digest* digest) const;
  /// Publishes `digest`, which must be Sha256::Hash of data()'s bytes. A
  /// no-op unless the buffer is shared and has no memo yet.
  void PublishDigest(const Sha256Digest& digest) const;
  /// @}

 private:
  /// The values plus the digest memo of their bytes.
  struct Buffer;

  /// Makes the buffer this tensor's alone (copying it if shared, clearing
  /// its memo if not) and returns its first element.
  float* Writable();

  std::shared_ptr<Buffer> buffer_;
  /// `buffer_`'s first value and value count, cached so const access is a
  /// plain pointer index.
  float* data_ = nullptr;
  size_t numel_ = 0;
  Shape shape_;
};

}  // namespace mmm

#endif  // MMM_TENSOR_TENSOR_H_
