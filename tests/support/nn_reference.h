// Frozen reference implementations of the NN layers that run on nn::gemm.
//
// These are the plain loop nests of Conv2D, Dense and Lstm as they were
// before any of them was routed through nn::gemm / nn::axpy, kept verbatim
// as the oracle for tests/test_nn_gemm.cpp.  The library layers promise
// results value-identical to these (same terms, same order, same rounding),
// so the suite compares them element for element; parts the library still
// computes with the same loops (Conv2D backward, the LSTM gates) are
// compared too, so moving them later has its oracle waiting.  Do not
// optimise this file: its whole value is that it does not change.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/conv2d.h"
#include "nn/layer.h"

namespace sidco::nn::reference {

/// Naive 7-deep convolution: (Cout, Cin, K, K) weights, symmetric zero
/// padding, scatter-form backward that skips zero output gradients.
class Conv2D final : public Layer {
 public:
  Conv2D(ConvShape in, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad);

  [[nodiscard]] ConvShape out_shape() const { return out_; }
  [[nodiscard]] std::size_t parameter_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& rng) override;
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  ConvShape in_;
  ConvShape out_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  std::span<float> weight_;
  std::span<float> bias_;
  std::span<float> grad_weight_;
  std::span<float> grad_bias_;
};

/// y = W x + b with one dot-product loop per output.
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features);

  [[nodiscard]] std::size_t parameter_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& rng) override;
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  std::span<float> weight_;
  std::span<float> bias_;
  std::span<float> grad_weight_;
  std::span<float> grad_bias_;
};

/// LSTM over full sequences, one sample and one time step at a time.
class Lstm final : public Layer {
 public:
  Lstm(std::size_t time_steps, std::size_t input_dim, std::size_t hidden_dim);

  [[nodiscard]] std::size_t parameter_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& rng) override;
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  std::size_t time_;
  std::size_t input_;
  std::size_t hidden_;
  std::span<float> wx_;
  std::span<float> wh_;
  std::span<float> bias_;
  std::span<float> grad_wx_;
  std::span<float> grad_wh_;
  std::span<float> grad_bias_;
  std::vector<float> gates_;
  std::vector<float> cells_;
  std::vector<float> hidden_states_;
};

}  // namespace sidco::nn::reference
