#include "nn/loss.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/ops.h"

namespace mmm {

float MSELoss::Forward(const Tensor& prediction, const Tensor& target) {
  MMM_DCHECK(prediction.shape() == target.shape());
  cached_diff_ = Sub(prediction, target);
  float acc = 0.0f;
  for (float d : cached_diff_.data()) acc += d * d;
  return acc / static_cast<float>(cached_diff_.numel());
}

Tensor MSELoss::Backward() {
  float scale = 2.0f / static_cast<float>(cached_diff_.numel());
  return Scale(cached_diff_, scale);
}

float CrossEntropyLoss::Forward(const Tensor& prediction, const Tensor& target) {
  MMM_DCHECK(prediction.ndim() == 2 && target.ndim() == 1);
  MMM_DCHECK(prediction.dim(0) == target.dim(0));
  cached_softmax_ = SoftmaxRows(prediction);
  cached_target_ = target;
  const size_t batch = prediction.dim(0);
  float loss = 0.0f;
  for (size_t i = 0; i < batch; ++i) {
    auto label = static_cast<size_t>(target.at(i));
    MMM_DCHECK(label < prediction.dim(1));
    loss -= std::log(std::max(cached_softmax_.at2(i, label), 1e-12f));
  }
  return loss / static_cast<float>(batch);
}

Tensor CrossEntropyLoss::Backward() {
  const size_t batch = cached_softmax_.dim(0);
  const size_t classes = cached_softmax_.dim(1);
  Tensor grad = cached_softmax_;
  float* g = grad.mutable_data().data();
  auto labels = cached_target_.data();
  for (size_t i = 0; i < batch; ++i) {
    auto label = static_cast<size_t>(labels[i]);
    g[i * classes + label] -= 1.0f;
  }
  ScaleInPlace(&grad, 1.0f / static_cast<float>(batch));
  return grad;
}

}  // namespace mmm
