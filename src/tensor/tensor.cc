#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "common/strings.h"

namespace mmm {

struct Tensor::Buffer {
  enum : uint8_t { kNone, kBusy, kReady };

  explicit Buffer(std::vector<float> v) : values(std::move(v)) {}

  std::vector<float> values;
  /// kNone -> kBusy (one publisher wins) -> kReady (release: `digest` is
  /// written). Only a sole owner's Writable() goes back to kNone.
  std::atomic<uint8_t> digest_state{kNone};
  Sha256Digest digest;
};

size_t Tensor::BufferHeaderBytes() {
  return sizeof(void*) + 2 * sizeof(uint32_t) + sizeof(Buffer);
}

size_t Tensor::NumElements(const Shape& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

Tensor::Tensor(Shape shape)
    : buffer_(std::make_shared<Buffer>(
          std::vector<float>(NumElements(shape), 0.0f))),
      data_(buffer_->values.data()),
      numel_(buffer_->values.size()),
      shape_(shape) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : buffer_(std::make_shared<Buffer>(std::move(data))),
      data_(buffer_->values.data()),
      numel_(buffer_->values.size()),
      shape_(shape) {
  MMM_DCHECK(numel_ == NumElements(shape_));
}

Tensor::Tensor(Tensor&& other) noexcept
    : buffer_(std::move(other.buffer_)),
      data_(std::exchange(other.data_, nullptr)),
      numel_(std::exchange(other.numel_, 0)),
      shape_(other.shape_) {
  other.shape_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  buffer_ = std::move(other.buffer_);
  data_ = std::exchange(other.data_, nullptr);
  numel_ = std::exchange(other.numel_, 0);
  shape_ = other.shape_;
  other.shape_.clear();
  return *this;
}

float* Tensor::Writable() {
  if (buffer_.use_count() > 1) {
    buffer_ = std::make_shared<Buffer>(std::vector<float>(data_, data_ + numel_));
    data_ = buffer_->values.data();
  } else if (buffer_ != nullptr) {
    // Sole owner. The last other owner may have read the buffer just
    // before dropping its reference; its release decrement pairs with
    // this fence, so the writes below cannot race those reads. (GCC's
    // TSan does not model standalone fences and warns with -Wtsan.)
    std::atomic_thread_fence(std::memory_order_acquire);
    // The caller may write through the pointer at any time from here on,
    // so the memo can no longer vouch for the bytes.
    buffer_->digest_state.store(Buffer::kNone, std::memory_order_relaxed);
  }
  return data_;
}

bool Tensor::LoadDigest(Sha256Digest* digest) const {
  if (buffer_ == nullptr ||
      buffer_->digest_state.load(std::memory_order_acquire) != Buffer::kReady) {
    return false;
  }
  *digest = buffer_->digest;
  return true;
}

void Tensor::PublishDigest(const Sha256Digest& digest) const {
  if (buffer_.use_count() < 2) return;
  uint8_t expected = Buffer::kNone;
  if (!buffer_->digest_state.compare_exchange_strong(
          expected, Buffer::kBusy, std::memory_order_acquire,
          std::memory_order_relaxed)) {
    return;
  }
  buffer_->digest = digest;
  buffer_->digest_state.store(Buffer::kReady, std::memory_order_release);
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(shape);
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(std::vector<float> values) {
  Shape shape{values.size()};
  return Tensor(shape, std::move(values));
}

Tensor Tensor::Reshape(Shape new_shape) const {
  MMM_DCHECK(NumElements(new_shape) == numel());
  // Built with the new shape, not as a copy whose shape is then replaced.
  Tensor out;
  out.shape_ = new_shape;
  out.buffer_ = buffer_;
  out.data_ = data_;
  out.numel_ = numel_;
  return out;
}

void Tensor::Fill(float value) {
  std::fill_n(Writable(), numel_, value);
}

bool Tensor::Equals(const Tensor& other) const {
  return shape_ == other.shape_ &&
         std::equal(data_, data_ + numel_, other.data_, other.data_ + other.numel_);
}

bool Tensor::AllClose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < numel_; ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > atol) return false;
  }
  return true;
}

std::string Tensor::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out += "x";
    out += std::to_string(shape_[i]);
  }
  out += "] {";
  size_t show = std::min<size_t>(8, numel_);
  for (size_t i = 0; i < show; ++i) {
    if (i > 0) out += ", ";
    out += StringFormat("%g", data_[i]);
  }
  if (numel_ > show) out += ", ...";
  out += "}";
  return out;
}

}  // namespace mmm
