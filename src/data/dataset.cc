#include "data/dataset.h"

#include <algorithm>

namespace mmm {

TrainingData TrainingData::Head(size_t count) const {
  size_t n = std::min(count, size());
  if (n == size()) return *this;
  size_t in_sample = inputs.numel() / inputs.dim(0);
  size_t out_sample = targets.numel() / targets.dim(0);

  Shape in_shape = inputs.shape();
  in_shape[0] = n;
  Shape out_shape = targets.shape();
  out_shape[0] = n;

  std::vector<float> in_data(inputs.data().begin(),
                             inputs.data().begin() + n * in_sample);
  std::vector<float> out_data(targets.data().begin(),
                              targets.data().begin() + n * out_sample);
  return TrainingData{Tensor(in_shape, std::move(in_data)),
                      Tensor(out_shape, std::move(out_data))};
}

}  // namespace mmm
