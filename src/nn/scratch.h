// Per-thread scratch buffers shared by the NN layers.
//
// A worker runs its layers one at a time on one thread, and no layer keeps
// scratch contents from one call to the next.  So one set of buffers per
// thread serves every layer of every model on that thread: the process holds
// the largest layer's scratch once per thread, not every layer's.  Buffers
// only grow, so once a model has run a forward and backward pass at its
// batch size, further passes allocate nothing.  Per-layer buffers would
// hold every layer's scratch at once: on the ResNet20 proxy's three-worker
// training session that measured about 3.3 MB more peak RSS.
#pragma once

#include <cstddef>
#include <span>

namespace sidco::nn {

/// One buffer per purpose.  Two slots are never the same memory, so a layer
/// may hold several at once, and a block may hold some while its inner
/// layers take others.
enum class ScratchSlot : std::size_t {
  kIm2col,        // Conv2D forward: unfolded input of one sample
  kResidualSkip,  // ResidualBlock forward: skip-path output
  kResidualSum,   // ResidualBlock backward: gradient of the pre-relu sum
  kResidualAct,   // ResidualBlock backward: gradient of relu(conv1)
  kResidualIn,    // ResidualBlock backward: skip-path input gradient
  kLstmGates,     // Lstm forward: one step's gate pre-activations
  kLstmHidden,    // Lstm backward: hidden-state gradient carry
  kLstmCell,      // Lstm backward: cell-state gradient carry
  kLstmGateGrad,  // Lstm backward: gate pre-activation gradients
  kCount,
};

/// Exclusive use of the calling thread's buffer for `slot`, grown to at
/// least `size` floats, until this object is destroyed; contents are
/// unspecified.  Taking a slot that is already held on the same thread fails
/// a check rather than handing the same memory out twice.
class Scratch {
 public:
  Scratch(ScratchSlot slot, std::size_t size);
  ~Scratch();
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  [[nodiscard]] std::span<float> span() const { return span_; }
  [[nodiscard]] float* data() const { return span_.data(); }

 private:
  ScratchSlot slot_;
  std::span<float> span_;
};

}  // namespace sidco::nn
