#include "nn/gemm.h"

#include <algorithm>

#include "util/simd.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SIDCO_GEMM_X86 1
#endif

namespace sidco::nn {

namespace {

// Register tile (rows of C x columns of C) and the k-block depth.  A B panel
// of kKc x kNr floats (16 KiB) stays in L1 while every row tile of A streams
// past it.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;
constexpr std::size_t kKc = 256;

/// Row pointers of one A tile (rows past m repeat a valid row; their results
/// are discarded), a kc x kNr panel of B (row p at panel + p * ldb) and a C
/// tile with unit column stride.
struct Tile {
  const float* a[kMr];
  std::size_t a_cs;
  const float* panel;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
};

using MicroKernel = void (*)(std::size_t kc, const Tile& t);

void kernel_scalar(std::size_t kc, const Tile& t) {
  float acc[kMr][kNr];
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t j = 0; j < kNr; ++j) acc[i][j] = t.c[i * t.ldc + j];
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* bp = t.panel + p * t.ldb;
    for (std::size_t i = 0; i < kMr; ++i) {
      const float av = t.a[i][p * t.a_cs];
      for (std::size_t j = 0; j < kNr; ++j) {
        const float prod = av * bp[j];
        acc[i][j] = acc[i][j] + prod;
      }
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t j = 0; j < kNr; ++j) t.c[i * t.ldc + j] = acc[i][j];
  }
}

void axpy_scalar(std::size_t n, float alpha, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) {
    const float prod = alpha * x[i];
    y[i] = y[i] + prod;
  }
}

#if defined(SIDCO_GEMM_X86)
// AVX2 only (no "fma" target): _mm256_mul_ps then _mm256_add_ps round
// exactly like the scalar twin's multiply and add.
__attribute__((target("avx2"))) void kernel_avx2(std::size_t kc,
                                                 const Tile& t) {
  float* c0 = t.c;
  float* c1 = c0 + t.ldc;
  float* c2 = c1 + t.ldc;
  float* c3 = c2 + t.ldc;
  __m256 c00 = _mm256_loadu_ps(c0), c01 = _mm256_loadu_ps(c0 + 8);
  __m256 c10 = _mm256_loadu_ps(c1), c11 = _mm256_loadu_ps(c1 + 8);
  __m256 c20 = _mm256_loadu_ps(c2), c21 = _mm256_loadu_ps(c2 + 8);
  __m256 c30 = _mm256_loadu_ps(c3), c31 = _mm256_loadu_ps(c3 + 8);
  const float* a0 = t.a[0];
  const float* a1 = t.a[1];
  const float* a2 = t.a[2];
  const float* a3 = t.a[3];
  const std::size_t cs = t.a_cs;
  const float* bp = t.panel;
  for (std::size_t p = 0; p < kc; ++p, bp += t.ldb) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    const std::size_t off = p * cs;
    __m256 av = _mm256_broadcast_ss(a0 + off);
    c00 = _mm256_add_ps(c00, _mm256_mul_ps(av, b0));
    c01 = _mm256_add_ps(c01, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a1 + off);
    c10 = _mm256_add_ps(c10, _mm256_mul_ps(av, b0));
    c11 = _mm256_add_ps(c11, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a2 + off);
    c20 = _mm256_add_ps(c20, _mm256_mul_ps(av, b0));
    c21 = _mm256_add_ps(c21, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a3 + off);
    c30 = _mm256_add_ps(c30, _mm256_mul_ps(av, b0));
    c31 = _mm256_add_ps(c31, _mm256_mul_ps(av, b1));
  }
  _mm256_storeu_ps(c0, c00);
  _mm256_storeu_ps(c0 + 8, c01);
  _mm256_storeu_ps(c1, c10);
  _mm256_storeu_ps(c1 + 8, c11);
  _mm256_storeu_ps(c2, c20);
  _mm256_storeu_ps(c2 + 8, c21);
  _mm256_storeu_ps(c3, c30);
  _mm256_storeu_ps(c3 + 8, c31);
}

__attribute__((target("avx2"))) void axpy_avx2(std::size_t n, float alpha,
                                               const float* x, float* y) {
  const __m256 a = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(a, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  axpy_scalar(n - i, alpha, x + i, y + i);
}
#endif  // SIDCO_GEMM_X86

MicroKernel select_kernel() {
#if defined(SIDCO_GEMM_X86)
  if (util::simd::active() == util::simd::Level::kAvx2) return kernel_avx2;
#endif
  return kernel_scalar;
}

/// Copies B(p0 .. p0+kc, j0 .. j0+nr) into a kc x kNr panel, zero-filling
/// the columns past nr.
void pack_panel(ConstMatrixView b, std::size_t p0, std::size_t kc,
                std::size_t j0, std::size_t nr, float* panel) {
  if (nr < kNr) std::fill(panel, panel + kc * kNr, 0.0F);
  const float* base = b.data + p0 * b.row_stride + j0 * b.col_stride;
  if (b.col_stride == 1) {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = base + p * b.row_stride;
      std::copy(src, src + nr, panel + p * kNr);
    }
    return;
  }
  for (std::size_t j = 0; j < nr; ++j) {
    const float* src = base + j * b.col_stride;
    for (std::size_t p = 0; p < kc; ++p) {
      panel[p * kNr + j] = src[p * b.row_stride];
    }
  }
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, ConstMatrixView a,
          ConstMatrixView b, MatrixView c) {
  if (m == 0 || n == 0 || k == 0) return;
  const MicroKernel kernel = select_kernel();
  alignas(32) float panel[kKc * kNr];
  alignas(32) float edge[kMr * kNr];
  for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
    const std::size_t nr = std::min(kNr, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      Tile t{};
      if (nr == kNr && b.col_stride == 1) {
        // Full-width strip of a row-major B: the kernel reads it in place.
        t.panel = b.data + p0 * b.row_stride + j0;
        t.ldb = b.row_stride;
      } else {
        pack_panel(b, p0, kc, j0, nr, panel);
        t.panel = panel;
        t.ldb = kNr;
      }
      t.a_cs = a.col_stride;
      for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
        const std::size_t mr = std::min(kMr, m - i0);
        for (std::size_t i = 0; i < kMr; ++i) {
          t.a[i] = a.data + (i0 + std::min(i, mr - 1)) * a.row_stride +
                   p0 * a.col_stride;
        }
        float* ct = c.data + i0 * c.row_stride + j0 * c.col_stride;
        if (mr == kMr && nr == kNr && c.col_stride == 1) {
          t.c = ct;
          t.ldc = c.row_stride;
          kernel(kc, t);
          continue;
        }
        // Edge or strided C: run the tile on a contiguous copy.
        t.c = edge;
        t.ldc = kNr;
        std::fill(edge, edge + kMr * kNr, 0.0F);
        for (std::size_t i = 0; i < mr; ++i) {
          for (std::size_t j = 0; j < nr; ++j) {
            edge[i * kNr + j] = ct[i * c.row_stride + j * c.col_stride];
          }
        }
        kernel(kc, t);
        for (std::size_t i = 0; i < mr; ++i) {
          for (std::size_t j = 0; j < nr; ++j) {
            ct[i * c.row_stride + j * c.col_stride] = edge[i * kNr + j];
          }
        }
      }
    }
  }
}

void axpy(std::size_t n, float alpha, const float* x, float* y) {
#if defined(SIDCO_GEMM_X86)
  if (util::simd::active() == util::simd::Level::kAvx2) {
    axpy_avx2(n, alpha, x, y);
    return;
  }
#endif
  axpy_scalar(n, alpha, x, y);
}

}  // namespace sidco::nn
