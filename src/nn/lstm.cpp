#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "nn/gemm.h"
#include "nn/scratch.h"
#include "util/check.h"

namespace sidco::nn {

namespace {
inline float sigmoidf(float x) { return 1.0F / (1.0F + std::exp(-x)); }
}  // namespace

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
    // Forget-gate bias (second gate block) starts at 1 to ease training.
    bias_[g] = (g >= hidden_ && g < 2 * hidden_) ? 1.0F : 0.0F;
  }
}

void Lstm::forward(std::span<const float> in, std::span<float> out,
                   std::size_t batch) {
  const std::size_t h4 = 4 * hidden_;
  gates_.resize(batch * time_ * h4);
  cells_.resize(batch * time_ * hidden_);
  hidden_states_.resize(batch * time_ * hidden_);

  const Scratch gates(ScratchSlot::kLstmGates, h4);
  float* z = gates.data();
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
  const Scratch hidden_grad(ScratchSlot::kLstmHidden, hidden_);
  const Scratch cell_grad(ScratchSlot::kLstmCell, hidden_);
  const Scratch gate_grad(ScratchSlot::kLstmGateGrad, h4);
  float* dh = hidden_grad.data();
  float* dc = cell_grad.data();
  float* dz = gate_grad.data();
  std::fill(grad_in.begin(),
            grad_in.begin() + static_cast<std::ptrdiff_t>(batch * in_features()),
            0.0F);

  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = in.data() + b * in_features();
    const float* dyb = grad_out.data() + b * out_features();
    float* dxb = grad_in.data() + b * in_features();
    std::fill(dh, dh + hidden_, 0.0F);
    std::fill(dc, dc + hidden_, 0.0F);

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

        dz[j] = dc_total * gg * ig * (1.0F - ig);                    // d i
        dz[hidden_ + j] = dc_total * c_old * fg * (1.0F - fg);       // d f
        dz[2 * hidden_ + j] = dc_total * ig * (1.0F - gg * gg);      // d g
        dz[3 * hidden_ + j] = dh_total * tc * og * (1.0F - og);      // d o
        dc[j] = dc_total * fg;  // flows to t-1
      }

      // Parameter gradients and input/hidden gradients.
      std::fill(dh, dh + hidden_, 0.0F);
      for (std::size_t g = 0; g < h4; ++g) {
        const float gz = dz[g];
        if (gz == 0.0F) continue;
        grad_bias_[g] += gz;
        axpy(input_, gz, xt, grad_wx_.data() + g * input_);
        axpy(input_, gz, wx_.data() + g * input_, dxb + t * input_);
        if (h_prev != nullptr) {
          axpy(hidden_, gz, h_prev, grad_wh_.data() + g * hidden_);
          axpy(hidden_, gz, wh_.data() + g * hidden_, dh);
        }
      }
    }
  }
}

// ------------------------------------------------------------------ Embedding

Embedding::Embedding(std::size_t time_steps, std::size_t vocab,
                     std::size_t dim)
    : Layer(time_steps, time_steps * dim),
      time_(time_steps),
      vocab_(vocab),
      dim_(dim) {
  util::check(vocab > 0 && dim > 0, "embedding dims must be positive");
}

std::size_t Embedding::parameter_count() const { return vocab_ * dim_; }

void Embedding::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.size() == parameter_count(),
              "Embedding bind size mismatch");
  table_ = params;
  grad_table_ = grads;
}

void Embedding::init(util::Rng& rng) {
  const double stddev = std::sqrt(1.0 / static_cast<double>(dim_));
  for (float& w : table_) w = static_cast<float>(rng.normal(0.0, stddev));
}

void Embedding::forward(std::span<const float> in, std::span<float> out,
                        std::size_t batch) {
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < time_; ++t) {
      const auto id = static_cast<std::size_t>(in[b * time_ + t]);
      SIDCO_DCHECK(id < vocab_, "embedding id out of range");
      const float* row = table_.data() + id * dim_;
      float* y = out.data() + (b * time_ + t) * dim_;
      std::copy(row, row + dim_, y);
    }
  }
}

void Embedding::backward(std::span<const float> in,
                         std::span<const float> grad_out,
                         std::span<float> grad_in, std::size_t batch) {
  // Ids are not differentiable; grad_in is zeroed for interface uniformity.
  std::fill(grad_in.begin(),
            grad_in.begin() + static_cast<std::ptrdiff_t>(batch * time_), 0.0F);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < time_; ++t) {
      const auto id = static_cast<std::size_t>(in[b * time_ + t]);
      float* row = grad_table_.data() + id * dim_;
      const float* dy = grad_out.data() + (b * time_ + t) * dim_;
      for (std::size_t e = 0; e < dim_; ++e) row[e] += dy[e];
    }
  }
}

// -------------------------------------------------------------- TimeDistributed

TimeDistributed::TimeDistributed(std::unique_ptr<Layer> inner,
                                 std::size_t time_steps)
    : Layer(time_steps * inner->in_features(),
            time_steps * inner->out_features()),
      inner_(std::move(inner)),
      time_(time_steps) {
  util::check(time_steps > 0, "time steps must be positive");
}

std::size_t TimeDistributed::parameter_count() const {
  return inner_->parameter_count();
}

void TimeDistributed::bind(std::span<float> params, std::span<float> grads) {
  inner_->bind(params, grads);
}

void TimeDistributed::init(util::Rng& rng) { inner_->init(rng); }

void TimeDistributed::forward(std::span<const float> in, std::span<float> out,
                              std::size_t batch) {
  inner_->forward(in, out, batch * time_);
}

void TimeDistributed::backward(std::span<const float> in,
                               std::span<const float> grad_out,
                               std::span<float> grad_in, std::size_t batch) {
  inner_->backward(in, grad_out, grad_in, batch * time_);
}

}  // namespace sidco::nn
