// 2D convolution, max pooling, global average pooling, and a pre-activation
// residual block — the building blocks of the ResNet/VGG proxy models.
//
// Tensors are (batch, C, H, W) row-major flattened into the generic
// (batch, features) buffers.
//
// Conv2D's forward pass runs on nn::gemm, one sample at a time: the sample
// is unfolded (im2col) into per-thread scratch in (Cin*K*K, pixel) layout,
// each output starts from its bias and sums its taps (ci, kr, kc) in
// ascending order — the order of the loop nest it replaced, so outputs are
// bit-identical to it (a padding tap adds a zero product).  The backward
// pass keeps that loop nest (ROADMAP.md says why).
// The frozen loop nests are in tests/support/nn_reference.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.h"

namespace sidco::nn {

struct ConvShape {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  [[nodiscard]] std::size_t features() const { return channels * height * width; }
};

class Conv2D final : public Layer {
 public:
  /// 3x3 (or kxk) convolution with `stride` and symmetric zero padding `pad`.
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
  std::span<float> weight_;  // (Cout, Cin, K, K)
  std::span<float> bias_;    // (Cout)
  std::span<float> grad_weight_;
  std::span<float> grad_bias_;
};

class MaxPool2D final : public Layer {
 public:
  /// 2x2 max pooling with stride 2 (input dims must be even).
  explicit MaxPool2D(ConvShape in);

  [[nodiscard]] ConvShape out_shape() const { return out_; }
  [[nodiscard]] std::size_t parameter_count() const override { return 0; }
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& /*rng*/) override {}
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  ConvShape in_;
  ConvShape out_;
  std::vector<std::uint32_t> argmax_;  // cached per forward
};

class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(ConvShape in);

  [[nodiscard]] std::size_t parameter_count() const override { return 0; }
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& /*rng*/) override {}
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  ConvShape in_;
};

/// Basic residual block: out = relu(conv2(relu(conv1(x))) + skip(x)).
/// When `stride` is 2 (or channels change) the skip path is a 1x1 strided
/// convolution, as in He et al.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(ConvShape in, std::size_t out_channels, std::size_t stride);

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
  std::unique_ptr<Conv2D> conv1_;
  std::unique_ptr<Conv2D> conv2_;
  std::unique_ptr<Conv2D> skip_;  // nullptr for identity skip
  // Forward caches (sized on demand for the largest batch seen): conv2's
  // input, and which gradients each relu lets through — a byte per element
  // rather than the pre-activations, since backward needs only their signs.
  std::vector<float> act1_;           // relu(conv1)
  std::vector<std::uint8_t> pass1_;   // !(conv1 output <= 0)
  std::vector<std::uint8_t> pass2_;   // conv2 output + skip > 0
};

}  // namespace sidco::nn
