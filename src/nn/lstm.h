// LSTM layer over full sequences with truncated-BPTT backward, plus helpers
// for sequence models (Embedding, TimeDistributed adapter).
//
// Sequence tensors are (batch, time, dim) row-major flattened.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace sidco::nn {

/// Single LSTM layer: (B, T, D_in) -> (B, T, H).  Gate order i, f, g, o;
/// forget-gate bias initialised to 1.  State is reset at each sequence start
/// (stateless across batches).  The backward row updates run on nn::axpy, in
/// the order of the loops in tests/support/nn_reference.cpp, so results are
/// bit-identical to them.
class Lstm final : public Layer {
 public:
  Lstm(std::size_t time_steps, std::size_t input_dim, std::size_t hidden_dim);

  [[nodiscard]] std::size_t hidden_dim() const { return hidden_; }
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
  std::span<float> wx_;  // (4H, D_in)
  std::span<float> wh_;  // (4H, H)
  std::span<float> bias_;  // (4H)
  std::span<float> grad_wx_;
  std::span<float> grad_wh_;
  std::span<float> grad_bias_;
  // Forward caches, sized (batch, time, ...) on demand.
  std::vector<float> gates_;  // (B, T, 4H) post-nonlinearity [i f g o]
  std::vector<float> cells_;  // (B, T, H)
  std::vector<float> hidden_states_;  // (B, T, H)
};

/// Token embedding: input (B, T) of ids stored as floats, output (B, T, E).
class Embedding final : public Layer {
 public:
  Embedding(std::size_t time_steps, std::size_t vocab, std::size_t dim);

  [[nodiscard]] std::size_t parameter_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& rng) override;
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  std::size_t time_;
  std::size_t vocab_;
  std::size_t dim_;
  std::span<float> table_;  // (V, E)
  std::span<float> grad_table_;
};

/// Applies `inner` independently at each of `time_steps` positions by folding
/// time into the batch dimension (buffers are contiguous, so this is free).
class TimeDistributed final : public Layer {
 public:
  TimeDistributed(std::unique_ptr<Layer> inner, std::size_t time_steps);

  [[nodiscard]] std::size_t parameter_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& rng) override;
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  std::unique_ptr<Layer> inner_;
  std::size_t time_;
};

}  // namespace sidco::nn
