#include "support/nn_reference.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace sidco::nn::reference {

namespace {
ConvShape conv_out_shape(const ConvShape& in, std::size_t out_channels,
                         std::size_t kernel, std::size_t stride,
                         std::size_t pad) {
  sidco::util::check(in.height + 2 * pad >= kernel &&
                         in.width + 2 * pad >= kernel,
                     "conv kernel larger than padded input");
  return {.channels = out_channels,
          .height = (in.height + 2 * pad - kernel) / stride + 1,
          .width = (in.width + 2 * pad - kernel) / stride + 1};
}

inline float sigmoidf(float x) { return 1.0F / (1.0F + std::exp(-x)); }
}  // namespace

// --------------------------------------------------------------------- Conv2D

Conv2D::Conv2D(ConvShape in, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad)
    : Layer(in.features(),
            conv_out_shape(in, out_channels, kernel, stride, pad).features()),
      in_(in),
      out_(conv_out_shape(in, out_channels, kernel, stride, pad)),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  util::check(stride >= 1, "conv stride must be >= 1");
}

std::size_t Conv2D::parameter_count() const {
  return out_.channels * in_.channels * kernel_ * kernel_ + out_.channels;
}

void Conv2D::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.size() == parameter_count(), "Conv2D bind size mismatch");
  const std::size_t w = out_.channels * in_.channels * kernel_ * kernel_;
  weight_ = params.subspan(0, w);
  bias_ = params.subspan(w);
  grad_weight_ = grads.subspan(0, w);
  grad_bias_ = grads.subspan(w);
}

void Conv2D::init(util::Rng& rng) {
  const double fan_in =
      static_cast<double>(in_.channels * kernel_ * kernel_);
  const double stddev = std::sqrt(2.0 / fan_in);
  for (float& w : weight_) w = static_cast<float>(rng.normal(0.0, stddev));
  for (float& b : bias_) b = 0.0F;
}

void Conv2D::forward(std::span<const float> in, std::span<float> out,
                     std::size_t batch) {
  const std::size_t ih = in_.height;
  const std::size_t iw = in_.width;
  const std::size_t oh = out_.height;
  const std::size_t ow = out_.width;
  const std::size_t cin = in_.channels;
  const std::size_t cout = out_.channels;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * in_.features();
    float* y = out.data() + b * out_.features();
    for (std::size_t co = 0; co < cout; ++co) {
      float* ychan = y + co * oh * ow;
      const float* wchan = weight_.data() + co * cin * kernel_ * kernel_;
      const float bias = bias_[co];
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          float acc = bias;
          for (std::size_t ci = 0; ci < cin; ++ci) {
            const float* xchan = x + ci * ih * iw;
            const float* wk = wchan + ci * kernel_ * kernel_;
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
              const std::ptrdiff_t ir = static_cast<std::ptrdiff_t>(r * stride_ + kr) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (ir < 0 || ir >= static_cast<std::ptrdiff_t>(ih)) continue;
              for (std::size_t kc = 0; kc < kernel_; ++kc) {
                const std::ptrdiff_t ic = static_cast<std::ptrdiff_t>(c * stride_ + kc) -
                                          static_cast<std::ptrdiff_t>(pad_);
                if (ic < 0 || ic >= static_cast<std::ptrdiff_t>(iw)) continue;
                acc += wk[kr * kernel_ + kc] *
                       xchan[static_cast<std::size_t>(ir) * iw +
                             static_cast<std::size_t>(ic)];
              }
            }
          }
          ychan[r * ow + c] = acc;
        }
      }
    }
  }
}

void Conv2D::backward(std::span<const float> in, std::span<const float> grad_out,
                      std::span<float> grad_in, std::size_t batch) {
  const std::size_t ih = in_.height;
  const std::size_t iw = in_.width;
  const std::size_t oh = out_.height;
  const std::size_t ow = out_.width;
  const std::size_t cin = in_.channels;
  const std::size_t cout = out_.channels;
  std::fill(grad_in.begin(), grad_in.begin() + static_cast<std::ptrdiff_t>(
                                                   batch * in_.features()),
            0.0F);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * in_.features();
    const float* dy = grad_out.data() + b * out_.features();
    float* dx = grad_in.data() + b * in_.features();
    for (std::size_t co = 0; co < cout; ++co) {
      const float* dychan = dy + co * oh * ow;
      const float* wchan = weight_.data() + co * cin * kernel_ * kernel_;
      float* dwchan = grad_weight_.data() + co * cin * kernel_ * kernel_;
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const float g = dychan[r * ow + c];
          if (g == 0.0F) continue;
          grad_bias_[co] += g;
          for (std::size_t ci = 0; ci < cin; ++ci) {
            const float* xchan = x + ci * ih * iw;
            float* dxchan = dx + ci * ih * iw;
            const float* wk = wchan + ci * kernel_ * kernel_;
            float* dwk = dwchan + ci * kernel_ * kernel_;
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
              const std::ptrdiff_t ir = static_cast<std::ptrdiff_t>(r * stride_ + kr) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (ir < 0 || ir >= static_cast<std::ptrdiff_t>(ih)) continue;
              for (std::size_t kc = 0; kc < kernel_; ++kc) {
                const std::ptrdiff_t ic = static_cast<std::ptrdiff_t>(c * stride_ + kc) -
                                          static_cast<std::ptrdiff_t>(pad_);
                if (ic < 0 || ic >= static_cast<std::ptrdiff_t>(iw)) continue;
                const std::size_t xi = static_cast<std::size_t>(ir) * iw +
                                       static_cast<std::size_t>(ic);
                dwk[kr * kernel_ + kc] += g * xchan[xi];
                dxchan[xi] += g * wk[kr * kernel_ + kc];
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------- Dense

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
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_features()));
  for (float& w : weight_) w = static_cast<float>(rng.normal(0.0, stddev));
  for (float& b : bias_) b = 0.0F;
}

void Dense::forward(std::span<const float> in, std::span<float> out,
                    std::size_t batch) {
  const std::size_t ni = in_features();
  const std::size_t no = out_features();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * ni;
    float* y = out.data() + b * no;
    for (std::size_t o = 0; o < no; ++o) {
      const float* w = weight_.data() + o * ni;
      float acc = bias_[o];
      for (std::size_t i = 0; i < ni; ++i) acc += w[i] * x[i];
      y[o] = acc;
    }
  }
}

void Dense::backward(std::span<const float> in, std::span<const float> grad_out,
                     std::span<float> grad_in, std::size_t batch) {
  const std::size_t ni = in_features();
  const std::size_t no = out_features();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * ni;
    const float* dy = grad_out.data() + b * no;
    float* dx = grad_in.data() + b * ni;
    for (std::size_t i = 0; i < ni; ++i) dx[i] = 0.0F;
    for (std::size_t o = 0; o < no; ++o) {
      const float g = dy[o];
      const float* w = weight_.data() + o * ni;
      float* dw = grad_weight_.data() + o * ni;
      grad_bias_[o] += g;
      for (std::size_t i = 0; i < ni; ++i) {
        dx[i] += g * w[i];
        dw[i] += g * x[i];
      }
    }
  }
}

// ----------------------------------------------------------------------- Lstm

Lstm::Lstm(std::size_t time_steps, std::size_t input_dim,
           std::size_t hidden_dim)
    : Layer(time_steps * input_dim, time_steps * hidden_dim),
      time_(time_steps),
      input_(input_dim),
      hidden_(hidden_dim) {
  util::check(time_steps > 0 && input_dim > 0 && hidden_dim > 0,
              "LSTM dimensions must be positive");
}

std::size_t Lstm::parameter_count() const {
  return 4 * hidden_ * input_ + 4 * hidden_ * hidden_ + 4 * hidden_;
}

void Lstm::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.size() == parameter_count(), "LSTM bind size mismatch");
  const std::size_t nx = 4 * hidden_ * input_;
  const std::size_t nh = 4 * hidden_ * hidden_;
  wx_ = params.subspan(0, nx);
  wh_ = params.subspan(nx, nh);
  bias_ = params.subspan(nx + nh);
  grad_wx_ = grads.subspan(0, nx);
  grad_wh_ = grads.subspan(nx, nh);
  grad_bias_ = grads.subspan(nx + nh);
}

void Lstm::init(util::Rng& rng) {
  const double sx = std::sqrt(1.0 / static_cast<double>(input_));
  const double sh = std::sqrt(1.0 / static_cast<double>(hidden_));
  for (float& w : wx_) w = static_cast<float>(rng.normal(0.0, sx));
  for (float& w : wh_) w = static_cast<float>(rng.normal(0.0, sh));
  for (std::size_t g = 0; g < 4 * hidden_; ++g) {
    bias_[g] = (g >= hidden_ && g < 2 * hidden_) ? 1.0F : 0.0F;
  }
}

void Lstm::forward(std::span<const float> in, std::span<float> out,
                   std::size_t batch) {
  const std::size_t h4 = 4 * hidden_;
  gates_.resize(batch * time_ * h4);
  cells_.resize(batch * time_ * hidden_);
  hidden_states_.resize(batch * time_ * hidden_);

  std::vector<float> z(h4);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = in.data() + b * in_features();
    float* yb = out.data() + b * out_features();
    for (std::size_t t = 0; t < time_; ++t) {
      const float* xt = xb + t * input_;
      const float* h_prev =
          t == 0 ? nullptr
                 : hidden_states_.data() + (b * time_ + (t - 1)) * hidden_;
      const float* c_prev =
          t == 0 ? nullptr : cells_.data() + (b * time_ + (t - 1)) * hidden_;

      for (std::size_t g = 0; g < h4; ++g) {
        const float* wxr = wx_.data() + g * input_;
        float acc = bias_[g];
        for (std::size_t i = 0; i < input_; ++i) acc += wxr[i] * xt[i];
        if (h_prev != nullptr) {
          const float* whr = wh_.data() + g * hidden_;
          for (std::size_t i = 0; i < hidden_; ++i) acc += whr[i] * h_prev[i];
        }
        z[g] = acc;
      }

      float* gate = gates_.data() + (b * time_ + t) * h4;
      float* cell = cells_.data() + (b * time_ + t) * hidden_;
      float* hid = hidden_states_.data() + (b * time_ + t) * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) {
        const float ig = sigmoidf(z[j]);
        const float fg = sigmoidf(z[hidden_ + j]);
        const float gg = std::tanh(z[2 * hidden_ + j]);
        const float og = sigmoidf(z[3 * hidden_ + j]);
        gate[j] = ig;
        gate[hidden_ + j] = fg;
        gate[2 * hidden_ + j] = gg;
        gate[3 * hidden_ + j] = og;
        const float c_old = c_prev == nullptr ? 0.0F : c_prev[j];
        const float c_new = fg * c_old + ig * gg;
        cell[j] = c_new;
        hid[j] = og * std::tanh(c_new);
        yb[t * hidden_ + j] = hid[j];
      }
    }
  }
}

void Lstm::backward(std::span<const float> in, std::span<const float> grad_out,
                    std::span<float> grad_in, std::size_t batch) {
  const std::size_t h4 = 4 * hidden_;
  std::vector<float> dh(hidden_);
  std::vector<float> dc(hidden_);
  std::vector<float> dz(h4);
  std::fill(grad_in.begin(),
            grad_in.begin() + static_cast<std::ptrdiff_t>(batch * in_features()),
            0.0F);

  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = in.data() + b * in_features();
    const float* dyb = grad_out.data() + b * out_features();
    float* dxb = grad_in.data() + b * in_features();
    std::fill(dh.begin(), dh.end(), 0.0F);
    std::fill(dc.begin(), dc.end(), 0.0F);

    for (std::size_t t = time_; t-- > 0;) {
      const float* gate = gates_.data() + (b * time_ + t) * h4;
      const float* cell = cells_.data() + (b * time_ + t) * hidden_;
      const float* c_prev =
          t == 0 ? nullptr : cells_.data() + (b * time_ + (t - 1)) * hidden_;
      const float* h_prev =
          t == 0 ? nullptr
                 : hidden_states_.data() + (b * time_ + (t - 1)) * hidden_;
      const float* xt = xb + t * input_;

      for (std::size_t j = 0; j < hidden_; ++j) {
        const float ig = gate[j];
        const float fg = gate[hidden_ + j];
        const float gg = gate[2 * hidden_ + j];
        const float og = gate[3 * hidden_ + j];
        const float tc = std::tanh(cell[j]);
        const float dh_total = dh[j] + dyb[t * hidden_ + j];
        const float dc_total = dc[j] + dh_total * og * (1.0F - tc * tc);
        const float c_old = c_prev == nullptr ? 0.0F : c_prev[j];

        dz[j] = dc_total * gg * ig * (1.0F - ig);
        dz[hidden_ + j] = dc_total * c_old * fg * (1.0F - fg);
        dz[2 * hidden_ + j] = dc_total * ig * (1.0F - gg * gg);
        dz[3 * hidden_ + j] = dh_total * tc * og * (1.0F - og);
        dc[j] = dc_total * fg;
      }

      std::fill(dh.begin(), dh.end(), 0.0F);
      for (std::size_t g = 0; g < h4; ++g) {
        const float gz = dz[g];
        if (gz == 0.0F) continue;
        grad_bias_[g] += gz;
        float* dwxr = grad_wx_.data() + g * input_;
        const float* wxr = wx_.data() + g * input_;
        float* dxt = dxb + t * input_;
        for (std::size_t i = 0; i < input_; ++i) {
          dwxr[i] += gz * xt[i];
          dxt[i] += gz * wxr[i];
        }
        if (h_prev != nullptr) {
          float* dwhr = grad_wh_.data() + g * hidden_;
          const float* whr = wh_.data() + g * hidden_;
          for (std::size_t i = 0; i < hidden_; ++i) {
            dwhr[i] += gz * h_prev[i];
            dh[i] += gz * whr[i];
          }
        }
      }
    }
  }
}

}  // namespace sidco::nn::reference
