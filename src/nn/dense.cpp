#include "nn/dense.h"

#include <algorithm>
#include <cmath>

#include "nn/gemm.h"
#include "util/check.h"

namespace sidco::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : Layer(in_features, out_features) {
  util::check(in_features > 0 && out_features > 0,
              "Dense dimensions must be positive");
}

std::size_t Dense::parameter_count() const {
  return in_features() * out_features() + out_features();
}

void Dense::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.size() == parameter_count(), "Dense bind size mismatch");
  const std::size_t w = in_features() * out_features();
  weight_ = params.subspan(0, w);
  bias_ = params.subspan(w);
  grad_weight_ = grads.subspan(0, w);
  grad_bias_ = grads.subspan(w);
}

void Dense::init(util::Rng& rng) {
  // He initialization (fan-in); biases start at zero.
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_features()));
  for (float& w : weight_) w = static_cast<float>(rng.normal(0.0, stddev));
  for (float& b : bias_) b = 0.0F;
}

void Dense::forward(std::span<const float> in, std::span<float> out,
                    std::size_t batch) {
  const std::size_t ni = in_features();
  const std::size_t no = out_features();
  // y^T (no x batch) = W (no x ni) x^T, each output starting from its bias;
  // the GEMM reads x and writes y through transposed views.
  for (std::size_t b = 0; b < batch; ++b) {
    std::copy(bias_.begin(), bias_.end(), out.data() + b * no);
  }
  gemm(no, batch, ni, {weight_.data(), ni, 1}, {in.data(), 1, ni},
       {out.data(), 1, no});
}

void Dense::backward(std::span<const float> in, std::span<const float> grad_out,
                     std::span<float> grad_in, std::size_t batch) {
  const std::size_t ni = in_features();
  const std::size_t no = out_features();
  std::fill(grad_in.begin(),
            grad_in.begin() + static_cast<std::ptrdiff_t>(batch * ni), 0.0F);
  // Output-major, so each weight row is read once per call: dx[b] still sums
  // o ascending and dW[o] / db[o] still sum b ascending.
  for (std::size_t o = 0; o < no; ++o) {
    const float* w = weight_.data() + o * ni;
    float* dw = grad_weight_.data() + o * ni;
    for (std::size_t b = 0; b < batch; ++b) {
      const float g = grad_out[b * no + o];
      grad_bias_[o] += g;
      axpy(ni, g, w, grad_in.data() + b * ni);
      axpy(ni, g, in.data() + b * ni, dw);
    }
  }
}

}  // namespace sidco::nn
