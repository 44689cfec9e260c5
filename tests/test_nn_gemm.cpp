// Differential suite for the GEMM-backed NN layers.
//
// nn::gemm promises the reduction order of a plain loop (one rounded
// multiply and one rounded add per term, terms in ascending order, starting
// from the value already in C), and Conv2D / Dense / Lstm /
// TimeDistributed(Dense) promise results equal to the loop nests kept
// frozen in tests/support/nn_reference.cpp.  Every comparison here runs
// under each level in util::simd::available() and requires:
//   - forward outputs and parameter gradients: bit-identical;
//   - input gradients: equal per element (==).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/gemm.h"
#include "nn/lstm.h"
#include "nn/scratch.h"
#include "support/nn_reference.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/simd.h"

namespace sidco {
namespace {

namespace simd = util::simd;

class LevelGuard {
 public:
  explicit LevelGuard(simd::Level level) : prev_(simd::active()) {
    simd::set_active(level);
  }
  ~LevelGuard() { simd::set_active(prev_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level prev_;
};

std::vector<float> normal_vector(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

/// Index of the first element whose bit pattern differs, or -1.
std::ptrdiff_t first_bit_mismatch(const std::vector<float>& a,
                                  const std::vector<float>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

/// Index of the first element that compares unequal, or -1.
std::ptrdiff_t first_value_mismatch(const std::vector<float>& a,
                                    const std::vector<float>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

// ----------------------------------------------------------------- GEMM alone

/// The contract, written as the loop it promises to equal.
void naive_gemm(std::size_t m, std::size_t n, std::size_t k,
                nn::ConstMatrixView a, nn::ConstMatrixView b,
                nn::MatrixView c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = c.data[i * c.row_stride + j * c.col_stride];
      for (std::size_t p = 0; p < k; ++p) {
        const float prod = a.data[i * a.row_stride + p * a.col_stride] *
                           b.data[p * b.row_stride + j * b.col_stride];
        acc = acc + prod;
      }
      c.data[i * c.row_stride + j * c.col_stride] = acc;
    }
  }
}

/// Runs one GEMM shape with every combination of transposed operands; C
/// sits inside a larger buffer so writes outside the m x n window show.
void check_gemm_shape(std::size_t m, std::size_t n, std::size_t k,
                      std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<float> a = normal_vector(m * k, rng);
  const std::vector<float> b = normal_vector(k * n, rng);
  const std::size_t pad = 3;
  const std::vector<float> c0 = normal_vector((m + pad) * (n + pad), rng);
  for (int variant = 0; variant < 8; ++variant) {
    const bool a_t = (variant & 1) != 0;
    const bool b_t = (variant & 2) != 0;
    const bool c_t = (variant & 4) != 0;
    const nn::ConstMatrixView av =
        a_t ? nn::ConstMatrixView{a.data(), 1, m} : nn::ConstMatrixView{a.data(), k, 1};
    const nn::ConstMatrixView bv =
        b_t ? nn::ConstMatrixView{b.data(), 1, k} : nn::ConstMatrixView{b.data(), n, 1};
    std::vector<float> want = c0;
    std::vector<float> got = c0;
    const auto view = [&](std::vector<float>& buf) {
      return c_t ? nn::MatrixView{buf.data(), 1, m + pad}
                 : nn::MatrixView{buf.data(), n + pad, 1};
    };
    naive_gemm(m, n, k, av, bv, view(want));
    nn::gemm(m, n, k, av, bv, view(got));
    EXPECT_EQ(first_bit_mismatch(want, got), -1)
        << "m=" << m << " n=" << n << " k=" << k << " variant=" << variant
        << " level=" << simd::name(simd::active());
  }
}

TEST(NnGemm, MatchesThePlainLoopAtEveryShapeAndLevel) {
  // 1 and the 4 x 16 register tile's tails, and the 256-deep k-block's.
  const std::size_t ms[] = {1, 3, 4, 5, 9};
  const std::size_t ns[] = {1, 7, 15, 16, 17, 40};
  const std::size_t ks[] = {1, 2, 255, 256, 257, 600};
  for (simd::Level level : simd::available()) {
    LevelGuard guard(level);
    std::uint64_t seed = 1;
    for (std::size_t m : ms) {
      for (std::size_t n : ns) {
        for (std::size_t k : ks) check_gemm_shape(m, n, k, seed++);
      }
    }
  }
}

TEST(NnGemm, EmptyDimensionsLeaveCUntouched) {
  std::vector<float> c = {1.0F, 2.0F, 3.0F};
  const std::vector<float> a = {5.0F, 6.0F};
  for (simd::Level level : simd::available()) {
    LevelGuard guard(level);
    nn::gemm(0, 3, 2, {a.data(), 2, 1}, {a.data(), 3, 1}, {c.data(), 3, 1});
    nn::gemm(1, 0, 2, {a.data(), 2, 1}, {a.data(), 3, 1}, {c.data(), 3, 1});
    nn::gemm(1, 3, 0, {a.data(), 2, 1}, {a.data(), 3, 1}, {c.data(), 3, 1});
    EXPECT_EQ(c, (std::vector<float>{1.0F, 2.0F, 3.0F}));
  }
}

TEST(NnGemm, AxpyMatchesThePlainLoopAtLaneTails) {
  for (simd::Level level : simd::available()) {
    LevelGuard guard(level);
    for (std::size_t n : {0, 1, 7, 8, 9, 31, 100}) {
      util::Rng rng(n + 11);
      const std::vector<float> x = normal_vector(n + 1, rng);
      const std::vector<float> y0 = normal_vector(n + 1, rng);
      const float alpha = static_cast<float>(rng.normal(0.0, 1.0));
      std::vector<float> want = y0;
      for (std::size_t i = 0; i < n; ++i) {
        const float prod = alpha * x[i];
        want[i] = want[i] + prod;
      }
      std::vector<float> got = y0;
      nn::axpy(n, alpha, x.data(), got.data());
      EXPECT_EQ(first_bit_mismatch(want, got), -1)
          << "n=" << n << " level=" << simd::name(level);
    }
  }
}

// ------------------------------------------------------- layers vs the oracle

/// Parameters and gradient arenas of one layer under test.  Gradients start
/// non-zero so the accumulate-into path is what gets compared.
struct Bound {
  std::vector<float> params;
  std::vector<float> grads;
};

/// Runs forward + backward of `layer` and `oracle` (same shapes) on the same
/// parameters, input and output gradient, and compares everything.
void compare_with_oracle(nn::Layer& layer, nn::Layer& oracle,
                         std::size_t batch, std::uint64_t seed,
                         const std::string& what) {
  ASSERT_EQ(layer.parameter_count(), oracle.parameter_count()) << what;
  ASSERT_EQ(layer.in_features(), oracle.in_features()) << what;
  ASSERT_EQ(layer.out_features(), oracle.out_features()) << what;
  util::Rng rng(seed);
  const std::vector<float> params = normal_vector(layer.parameter_count(), rng);
  const std::vector<float> grads = normal_vector(layer.parameter_count(), rng);
  const std::vector<float> input =
      normal_vector(batch * layer.in_features(), rng);
  std::vector<float> grad_out =
      normal_vector(batch * layer.out_features(), rng);
  // Exact zeros exercise the oracle's skipped terms.
  for (std::size_t i = 0; i < grad_out.size(); i += 5) grad_out[i] = 0.0F;

  Bound mine{params, grads};
  Bound theirs{params, grads};
  layer.bind(mine.params, mine.grads);
  oracle.bind(theirs.params, theirs.grads);

  std::vector<float> out_mine(batch * layer.out_features());
  std::vector<float> out_theirs(out_mine.size());
  layer.forward(input, out_mine, batch);
  oracle.forward(input, out_theirs, batch);
  EXPECT_EQ(first_bit_mismatch(out_mine, out_theirs), -1)
      << what << ": forward output";

  // Grad-in starts as garbage: layers overwrite it.
  std::vector<float> dx_mine(batch * layer.in_features(), 7.0F);
  std::vector<float> dx_theirs(dx_mine.size(), -7.0F);
  layer.backward(input, grad_out, dx_mine, batch);
  oracle.backward(input, grad_out, dx_theirs, batch);
  EXPECT_EQ(first_value_mismatch(dx_mine, dx_theirs), -1)
      << what << ": input gradient";
  EXPECT_EQ(first_bit_mismatch(mine.grads, theirs.grads), -1)
      << what << ": parameter gradients";
}

std::string level_tag(const std::string& what, std::size_t batch) {
  return what + " batch=" + std::to_string(batch) +
         " level=" + simd::name(simd::active());
}

struct ConvCase {
  nn::ConvShape in;
  std::size_t out_channels;
  std::size_t kernel;
  std::size_t stride;
  std::size_t pad;
};

std::string conv_name(const ConvCase& c) {
  return "Conv2D " + std::to_string(c.in.channels) + "x" +
         std::to_string(c.in.height) + "x" + std::to_string(c.in.width) +
         " -> " + std::to_string(c.out_channels) + " k" +
         std::to_string(c.kernel) + " s" + std::to_string(c.stride) + " p" +
         std::to_string(c.pad);
}

TEST(NnGemmLayers, Conv2DMatchesTheOracle) {
  const ConvCase cases[] = {
      // 3x3 stride 1, odd H and W, channels off the 4-row tile.
      {{.channels = 3, .height = 7, .width = 9}, 5, 3, 1, 1},
      // 3x3 stride 2, even and odd sizes.
      {{.channels = 4, .height = 8, .width = 8}, 6, 3, 2, 1},
      {{.channels = 5, .height = 9, .width = 7}, 7, 3, 2, 1},
      // 1x1 (stride 1 and the residual skip's stride 2).
      {{.channels = 6, .height = 5, .width = 5}, 9, 1, 1, 0},
      {{.channels = 5, .height = 7, .width = 5}, 9, 1, 2, 0},
      // 5x5 with odd H and W, padded and unpadded, stride 2.
      {{.channels = 2, .height = 7, .width = 5}, 3, 5, 1, 2},
      {{.channels = 3, .height = 9, .width = 11}, 4, 5, 1, 0},
      {{.channels = 2, .height = 9, .width = 7}, 5, 5, 2, 1},
      // Cin * K * K = 306 taps: more than one 256-deep k-block.
      {{.channels = 34, .height = 6, .width = 5}, 17, 3, 1, 1},
      // ResNet20-proxy shapes.
      {{.channels = 8, .height = 16, .width = 16}, 8, 3, 1, 1},
      {{.channels = 16, .height = 8, .width = 8}, 32, 3, 2, 1},
  };
  for (simd::Level level : simd::available()) {
    LevelGuard guard(level);
    std::uint64_t seed = 100;
    for (const ConvCase& c : cases) {
      for (std::size_t batch : {1, 3}) {
        nn::Conv2D layer(c.in, c.out_channels, c.kernel, c.stride, c.pad);
        nn::reference::Conv2D oracle(c.in, c.out_channels, c.kernel, c.stride,
                                     c.pad);
        compare_with_oracle(layer, oracle, batch, seed++,
                            level_tag(conv_name(c), batch));
      }
    }
  }
}

TEST(NnGemmLayers, DenseMatchesTheOracle) {
  struct Shape {
    std::size_t in;
    std::size_t out;
  };
  const Shape shapes[] = {{1, 1}, {37, 19}, {300, 5}, {64, 50}};
  for (simd::Level level : simd::available()) {
    LevelGuard guard(level);
    std::uint64_t seed = 200;
    for (const Shape& s : shapes) {
      for (std::size_t batch : {1, 3, 8, 16}) {
        nn::Dense layer(s.in, s.out);
        nn::reference::Dense oracle(s.in, s.out);
        compare_with_oracle(
            layer, oracle, batch, seed++,
            level_tag("Dense " + std::to_string(s.in) + "->" +
                          std::to_string(s.out),
                      batch));
      }
    }
  }
}

TEST(NnGemmLayers, LstmMatchesTheOracle) {
  struct Shape {
    std::size_t time;
    std::size_t input;
    std::size_t hidden;
  };
  // The last is the LSTM-PTB proxy's second layer.
  const Shape shapes[] = {{1, 3, 2}, {5, 7, 6}, {4, 17, 9}, {16, 96, 96}};
  for (simd::Level level : simd::available()) {
    LevelGuard guard(level);
    std::uint64_t seed = 300;
    for (const Shape& s : shapes) {
      for (std::size_t batch : {1, 3, 8}) {
        nn::Lstm layer(s.time, s.input, s.hidden);
        nn::reference::Lstm oracle(s.time, s.input, s.hidden);
        compare_with_oracle(
            layer, oracle, batch, seed++,
            level_tag("Lstm T=" + std::to_string(s.time) + " D=" +
                          std::to_string(s.input) + " H=" +
                          std::to_string(s.hidden),
                      batch));
      }
    }
  }
}

TEST(NnGemmLayers, TimeDistributedDenseMatchesTheOracle) {
  for (simd::Level level : simd::available()) {
    LevelGuard guard(level);
    std::uint64_t seed = 400;
    for (std::size_t batch : {1, 3, 8}) {
      nn::TimeDistributed layer(std::make_unique<nn::Dense>(11, 13), 4);
      nn::TimeDistributed oracle(
          std::make_unique<nn::reference::Dense>(11, 13), 4);
      compare_with_oracle(layer, oracle, batch, seed++,
                          level_tag("TimeDistributed(Dense 11->13) T=4", batch));
    }
  }
}

TEST(NnGemmLayers, ScratchFollowsTheBatchSize) {
  // One layer object through batches 3, 1, 5: scratch sized for the larger
  // batch must not leak into the smaller one.
  for (simd::Level level : simd::available()) {
    LevelGuard guard(level);
    nn::Conv2D conv({.channels = 3, .height = 6, .width = 6}, 4, 3, 2, 1);
    nn::reference::Conv2D conv_ref({.channels = 3, .height = 6, .width = 6}, 4,
                                   3, 2, 1);
    nn::Lstm lstm(3, 5, 4);
    nn::reference::Lstm lstm_ref(3, 5, 4);
    std::uint64_t seed = 500;
    for (std::size_t batch : {3, 1, 5}) {
      compare_with_oracle(conv, conv_ref, batch, seed++,
                          level_tag("Conv2D reuse", batch));
      compare_with_oracle(lstm, lstm_ref, batch, seed++,
                          level_tag("Lstm reuse", batch));
    }
  }
}

TEST(NnScratch, ASlotIsHeldByOneUserAtATime) {
  {
    const nn::Scratch held(nn::ScratchSlot::kIm2col, 8);
    EXPECT_THROW(nn::Scratch(nn::ScratchSlot::kIm2col, 8), util::CheckError);
    // Another slot is other memory and stays available.
    const nn::Scratch other(nn::ScratchSlot::kResidualSum, 8);
    EXPECT_NE(held.data(), other.data());
  }
  // Released on destruction.
  EXPECT_NO_THROW(nn::Scratch(nn::ScratchSlot::kIm2col, 8));
}

}  // namespace
}  // namespace sidco
