#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "nn/gemm.h"
#include "nn/scratch.h"
#include "util/check.h"

namespace sidco::nn {

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

/// The outputs o < outputs whose tap lands inside the image along one axis,
/// 0 <= o * stride + first < extent, as the range [lo, hi).
std::pair<std::size_t, std::size_t> inside(std::size_t outputs,
                                           std::size_t stride,
                                           std::ptrdiff_t first,
                                           std::size_t extent) {
  const auto st = static_cast<std::ptrdiff_t>(stride);
  const auto ceil_div = [st](std::ptrdiff_t a) {
    return a <= 0 ? 0 : (a + st - 1) / st;
  };
  const std::ptrdiff_t lo = ceil_div(-first);
  const std::ptrdiff_t hi =
      std::min(static_cast<std::ptrdiff_t>(outputs),
               ceil_div(static_cast<std::ptrdiff_t>(extent) - first));
  return {static_cast<std::size_t>(lo),
          static_cast<std::size_t>(std::max(lo, hi))};
}

/// im2col of one sample: col[(c * K + kr) * K + kc][r * out.width + q] =
/// x[c][r * stride + kr - pad][q * stride + kc - pad], 0 in the padding.
void im2col(const float* x, const ConvShape& in, std::size_t kernel,
            std::size_t stride, std::size_t pad, const ConvShape& out,
            float* col) {
  const std::size_t pixels = out.height * out.width;
  std::fill(col, col + in.channels * kernel * kernel * pixels, 0.0F);
  const auto spad = static_cast<std::ptrdiff_t>(pad);
  float* tap = col;
  for (std::size_t c = 0; c < in.channels; ++c) {
    const float* plane = x + c * in.height * in.width;
    for (std::size_t kr = 0; kr < kernel; ++kr) {
      const std::ptrdiff_t r_first = static_cast<std::ptrdiff_t>(kr) - spad;
      const auto [r_lo, r_hi] = inside(out.height, stride, r_first, in.height);
      for (std::size_t kc = 0; kc < kernel; ++kc, tap += pixels) {
        const std::ptrdiff_t q_first = static_cast<std::ptrdiff_t>(kc) - spad;
        const auto [q_lo, q_hi] = inside(out.width, stride, q_first, in.width);
        for (std::size_t r = r_lo; r < r_hi; ++r) {
          const auto ir = static_cast<std::size_t>(
              static_cast<std::ptrdiff_t>(r * stride) + r_first);
          const float* src = plane + ir * in.width;
          float* dst = tap + r * out.width;
          for (std::size_t q = q_lo; q < q_hi; ++q) {
            dst[q] = src[static_cast<std::ptrdiff_t>(q * stride) + q_first];
          }
        }
      }
    }
  }
}
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
  const std::size_t taps = in_.channels * kernel_ * kernel_;
  const std::size_t pixels = out_.height * out_.width;
  const Scratch col(ScratchSlot::kIm2col, taps * pixels);
  for (std::size_t b = 0; b < batch; ++b) {
    im2col(in.data() + b * in_.features(), in_, kernel_, stride_, pad_, out_,
           col.data());
    float* y = out.data() + b * out_.features();
    for (std::size_t co = 0; co < out_.channels; ++co) {
      std::fill(y + co * pixels, y + (co + 1) * pixels, bias_[co]);
    }
    gemm(out_.channels, pixels, taps, {weight_.data(), taps, 1},
         {col.data(), pixels, 1}, {y, pixels, 1});
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

// ------------------------------------------------------------------ MaxPool2D

MaxPool2D::MaxPool2D(ConvShape in)
    : Layer(in.features(), in.channels * (in.height / 2) * (in.width / 2)),
      in_(in),
      out_{.channels = in.channels,
           .height = in.height / 2,
           .width = in.width / 2} {
  util::check(in.height % 2 == 0 && in.width % 2 == 0,
              "MaxPool2D requires even input dims");
}

void MaxPool2D::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.empty() && grads.empty(), "pooling owns no parameters");
}

void MaxPool2D::forward(std::span<const float> in, std::span<float> out,
                        std::size_t batch) {
  argmax_.resize(batch * out_.features());
  const std::size_t ih = in_.height;
  const std::size_t iw = in_.width;
  const std::size_t oh = out_.height;
  const std::size_t ow = out_.width;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * in_.features();
    float* y = out.data() + b * out_.features();
    std::uint32_t* am = argmax_.data() + b * out_.features();
    for (std::size_t ch = 0; ch < in_.channels; ++ch) {
      const float* xc = x + ch * ih * iw;
      float* yc = y + ch * oh * ow;
      std::uint32_t* amc = am + ch * oh * ow;
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const std::size_t base = (2 * r) * iw + 2 * c;
          std::size_t best = base;
          float best_v = xc[base];
          const std::size_t candidates[3] = {base + 1, base + iw, base + iw + 1};
          for (std::size_t cand : candidates) {
            if (xc[cand] > best_v) {
              best_v = xc[cand];
              best = cand;
            }
          }
          yc[r * ow + c] = best_v;
          amc[r * ow + c] = static_cast<std::uint32_t>(ch * ih * iw + best);
        }
      }
    }
  }
}

void MaxPool2D::backward(std::span<const float> /*in*/,
                         std::span<const float> grad_out,
                         std::span<float> grad_in, std::size_t batch) {
  std::fill(grad_in.begin(), grad_in.begin() + static_cast<std::ptrdiff_t>(
                                                   batch * in_.features()),
            0.0F);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dy = grad_out.data() + b * out_.features();
    float* dx = grad_in.data() + b * in_.features();
    const std::uint32_t* am = argmax_.data() + b * out_.features();
    for (std::size_t o = 0; o < out_.features(); ++o) dx[am[o]] += dy[o];
  }
}

// --------------------------------------------------------------- GlobalAvgPool

GlobalAvgPool::GlobalAvgPool(ConvShape in)
    : Layer(in.features(), in.channels), in_(in) {}

void GlobalAvgPool::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.empty() && grads.empty(), "pooling owns no parameters");
}

void GlobalAvgPool::forward(std::span<const float> in, std::span<float> out,
                            std::size_t batch) {
  const std::size_t area = in_.height * in_.width;
  const float inv = 1.0F / static_cast<float>(area);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * in_.features();
    float* y = out.data() + b * in_.channels;
    for (std::size_t ch = 0; ch < in_.channels; ++ch) {
      const float* xc = x + ch * area;
      float acc = 0.0F;
      for (std::size_t i = 0; i < area; ++i) acc += xc[i];
      y[ch] = acc * inv;
    }
  }
}

void GlobalAvgPool::backward(std::span<const float> /*in*/,
                             std::span<const float> grad_out,
                             std::span<float> grad_in, std::size_t batch) {
  const std::size_t area = in_.height * in_.width;
  const float inv = 1.0F / static_cast<float>(area);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dy = grad_out.data() + b * in_.channels;
    float* dx = grad_in.data() + b * in_.features();
    for (std::size_t ch = 0; ch < in_.channels; ++ch) {
      const float g = dy[ch] * inv;
      float* dxc = dx + ch * area;
      for (std::size_t i = 0; i < area; ++i) dxc[i] = g;
    }
  }
}

// -------------------------------------------------------------- ResidualBlock

ResidualBlock::ResidualBlock(ConvShape in, std::size_t out_channels,
                             std::size_t stride)
    : Layer(in.features(),
            conv_out_shape(in, out_channels, 3, stride, 1).features()),
      in_(in),
      out_(conv_out_shape(in, out_channels, 3, stride, 1)) {
  conv1_ = std::make_unique<Conv2D>(in, out_channels, 3, stride, 1);
  conv2_ = std::make_unique<Conv2D>(conv1_->out_shape(), out_channels, 3, 1, 1);
  if (stride != 1 || out_channels != in.channels) {
    skip_ = std::make_unique<Conv2D>(in, out_channels, 1, stride, 0);
  }
}

std::size_t ResidualBlock::parameter_count() const {
  return conv1_->parameter_count() + conv2_->parameter_count() +
         (skip_ ? skip_->parameter_count() : 0);
}

void ResidualBlock::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.size() == parameter_count(),
              "ResidualBlock bind size mismatch");
  std::size_t offset = 0;
  auto take = [&](Layer& layer) {
    const std::size_t n = layer.parameter_count();
    layer.bind(params.subspan(offset, n), grads.subspan(offset, n));
    offset += n;
  };
  take(*conv1_);
  take(*conv2_);
  if (skip_) take(*skip_);
}

void ResidualBlock::init(util::Rng& rng) {
  conv1_->init(rng);
  conv2_->init(rng);
  if (skip_) skip_->init(rng);
}

void ResidualBlock::forward(std::span<const float> in, std::span<float> out,
                            std::size_t batch) {
  const std::size_t mid = batch * conv1_->out_features();
  const std::size_t fin = batch * out_features();
  act1_.resize(mid);
  pass1_.resize(mid);
  pass2_.resize(fin);

  conv1_->forward(in, act1_, batch);
  for (std::size_t i = 0; i < mid; ++i) {
    const float pre = act1_[i];
    pass1_[i] = pre <= 0.0F ? 0 : 1;
    act1_[i] = pre > 0.0F ? pre : 0.0F;
  }
  conv2_->forward(act1_, out, batch);
  std::span<const float> skip_out = in;
  std::optional<Scratch> projected;
  if (skip_) {
    projected.emplace(ScratchSlot::kResidualSkip, fin);
    skip_->forward(in, projected->span(), batch);
    skip_out = projected->span();
  }
  for (std::size_t i = 0; i < fin; ++i) {
    const float s = out[i] + skip_out[i];
    out[i] = s > 0.0F ? s : 0.0F;
    pass2_[i] = s > 0.0F ? 1 : 0;
  }
}

void ResidualBlock::backward(std::span<const float> in,
                             std::span<const float> grad_out,
                             std::span<float> grad_in, std::size_t batch) {
  const std::size_t mid = batch * conv1_->out_features();
  const std::size_t fin = batch * out_features();

  // Through the final relu: d(sum) = grad_out * relu'(sum).
  const Scratch sum(ScratchSlot::kResidualSum, fin);
  const std::span<float> dsum = sum.span();
  for (std::size_t i = 0; i < fin; ++i) {
    dsum[i] = pass2_[i] != 0 ? grad_out[i] : 0.0F;
  }

  // Branch 1: conv2 <- relu <- conv1.
  const Scratch act(ScratchSlot::kResidualAct, mid);
  const std::span<float> dact1 = act.span();
  conv2_->backward(act1_, dsum, dact1, batch);
  for (std::size_t i = 0; i < mid; ++i) {
    if (pass1_[i] == 0) dact1[i] = 0.0F;
  }
  conv1_->backward(in, dact1, grad_in, batch);

  // Branch 2 (skip): add its input-gradient contribution.
  if (skip_) {
    const Scratch skip_in(ScratchSlot::kResidualIn, batch * in_features());
    const std::span<float> dskip = skip_in.span();
    skip_->backward(in, dsum, dskip, batch);
    for (std::size_t i = 0; i < dskip.size(); ++i) grad_in[i] += dskip[i];
  } else {
    for (std::size_t i = 0; i < fin; ++i) grad_in[i] += dsum[i];
  }
}

}  // namespace sidco::nn
