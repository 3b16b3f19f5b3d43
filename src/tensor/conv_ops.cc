#include "tensor/conv_ops.h"

namespace mmm {

Tensor Conv2dForward(const Tensor& input, const Tensor& weight, const Tensor& bias) {
  MMM_DCHECK(input.ndim() == 4 && weight.ndim() == 4 && bias.ndim() == 1);
  const size_t n = input.dim(0), cin = input.dim(1), h = input.dim(2),
               w = input.dim(3);
  const size_t cout = weight.dim(0), k = weight.dim(2);
  MMM_DCHECK(weight.dim(1) == cin && weight.dim(3) == k && bias.dim(0) == cout);
  MMM_DCHECK(h >= k && w >= k);
  const size_t oh = h - k + 1, ow = w - k + 1;

  Tensor out(Shape{n, cout, oh, ow});
  float* po = out.mutable_data().data();
  for (size_t b = 0; b < n; ++b) {
    for (size_t oc = 0; oc < cout; ++oc) {
      const float bias_val = bias.at(oc);
      for (size_t y = 0; y < oh; ++y) {
        for (size_t x = 0; x < ow; ++x) {
          float acc = bias_val;
          for (size_t ic = 0; ic < cin; ++ic) {
            for (size_t ky = 0; ky < k; ++ky) {
              for (size_t kx = 0; kx < k; ++kx) {
                acc += input.at4(b, ic, y + ky, x + kx) * weight.at4(oc, ic, ky, kx);
              }
            }
          }
          po[((b * cout + oc) * oh + y) * ow + x] = acc;
        }
      }
    }
  }
  return out;
}

Tensor Conv2dBackward(const Tensor& input, const Tensor& weight,
                      const Tensor& grad_output, Tensor* grad_weight,
                      Tensor* grad_bias) {
  const size_t n = input.dim(0), cin = input.dim(1), h = input.dim(2),
               w = input.dim(3);
  const size_t cout = weight.dim(0), k = weight.dim(2);
  const size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  MMM_DCHECK(grad_output.dim(0) == n && grad_output.dim(1) == cout);
  MMM_DCHECK(grad_weight->shape() == weight.shape());
  MMM_DCHECK(grad_bias->ndim() == 1 && grad_bias->dim(0) == cout);

  Tensor grad_input(input.shape());
  float* gi = grad_input.mutable_data().data();
  float* gw = grad_weight->mutable_data().data();
  float* gb = grad_bias->mutable_data().data();
  for (size_t b = 0; b < n; ++b) {
    for (size_t oc = 0; oc < cout; ++oc) {
      for (size_t y = 0; y < oh; ++y) {
        for (size_t x = 0; x < ow; ++x) {
          const float go = grad_output.at4(b, oc, y, x);
          if (go == 0.0f) continue;
          gb[oc] += go;
          for (size_t ic = 0; ic < cin; ++ic) {
            for (size_t ky = 0; ky < k; ++ky) {
              for (size_t kx = 0; kx < k; ++kx) {
                gw[((oc * cin + ic) * k + ky) * k + kx] +=
                    go * input.at4(b, ic, y + ky, x + kx);
                gi[((b * cin + ic) * h + y + ky) * w + x + kx] +=
                    go * weight.at4(oc, ic, ky, kx);
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

Tensor MaxPool2dForward(const Tensor& input, std::vector<size_t>* argmax) {
  MMM_DCHECK(input.ndim() == 4);
  const size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
               w = input.dim(3);
  MMM_DCHECK(h % 2 == 0 && w % 2 == 0);
  const size_t oh = h / 2, ow = w / 2;
  Tensor out(Shape{n, c, oh, ow});
  if (argmax != nullptr) argmax->assign(out.numel(), 0);
  float* po = out.mutable_data().data();

  size_t out_index = 0;
  for (size_t b = 0; b < n; ++b) {
    for (size_t ch = 0; ch < c; ++ch) {
      for (size_t y = 0; y < oh; ++y) {
        for (size_t x = 0; x < ow; ++x) {
          float best = input.at4(b, ch, y * 2, x * 2);
          size_t best_y = y * 2, best_x = x * 2;
          for (size_t dy = 0; dy < 2; ++dy) {
            for (size_t dx = 0; dx < 2; ++dx) {
              float v = input.at4(b, ch, y * 2 + dy, x * 2 + dx);
              if (v > best) {
                best = v;
                best_y = y * 2 + dy;
                best_x = x * 2 + dx;
              }
            }
          }
          po[out_index] = best;
          if (argmax != nullptr) {
            (*argmax)[out_index] = ((b * c + ch) * h + best_y) * w + best_x;
          }
          ++out_index;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2dBackward(const Shape& input_shape, const Tensor& grad_output,
                         const std::vector<size_t>& argmax) {
  MMM_DCHECK(argmax.size() == grad_output.numel());
  Tensor grad_input(input_shape);
  auto go = grad_output.data();
  auto gi = grad_input.mutable_data();
  for (size_t i = 0; i < argmax.size(); ++i) {
    gi[argmax[i]] += go[i];
  }
  return grad_input;
}

}  // namespace mmm
