// Single-threaded fp32 GEMM and axpy for the NN layers.
//
// One cache-blocked, register-tiled kernel serves the GEMM-shaped layer
// loops: Conv2D's forward pass (weights x im2col of the input) and Dense's
// forward pass (weights x the transposed batch).  Dense's and the LSTM's
// backward row updates use axpy().
//
// Reduction-order contract: every output element is computed exactly as the
// plain loop
//
//     for (p = 0; p < k; ++p) c = c + (a[i][p] * b[p][j]);
//
// would compute it — one rounded multiply and one rounded add per term, in
// ascending p, starting from the value already in C.  Blocking over k stores
// C and reloads it, which does not reorder anything; there is no fused
// multiply-add and no split accumulator.  Callers therefore get results
// value-identical to the naive loop nests they replace, at every dispatch
// level: the AVX2 micro-kernel (4 x 16 tile) and its scalar twin perform the
// same operations per element.  The level comes from util::simd; levels
// without a micro-kernel of their own (scalar, NEON) run the scalar twin.
//
// Nothing here allocates or starts threads: the B panel lives on the stack,
// and a training worker already owns a core.
#pragma once

#include <cstddef>

namespace sidco::nn {

/// Read-only strided matrix: element (i, j) is data[i * row_stride +
/// j * col_stride].  A transposed operand is the same buffer with the two
/// strides swapped.
struct ConstMatrixView {
  const float* data;
  std::size_t row_stride;
  std::size_t col_stride;
};

/// Writable strided matrix, same addressing as ConstMatrixView.
struct MatrixView {
  float* data;
  std::size_t row_stride;
  std::size_t col_stride;
};

/// C(i, j) += sum over p < k of A(i, p) * B(p, j), for i < m and j < n, in
/// the order stated above.  A is m x k, B is k x n, C is m x n; C must not
/// alias A or B.  Any of m, n, k may be 0 (C is left as it is).
void gemm(std::size_t m, std::size_t n, std::size_t k, ConstMatrixView a,
          ConstMatrixView b, MatrixView c);

/// y[i] = y[i] + alpha * x[i] for i < n: one rounded multiply and one
/// rounded add per element, at every dispatch level.
void axpy(std::size_t n, float alpha, const float* x, float* y);

}  // namespace sidco::nn
