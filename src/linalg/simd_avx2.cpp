// AVX2+FMA tier (simd.hpp). Reductions keep one ymm accumulator whose
// four lanes ARE the canonical 4-lane shape: vfmadd on lane l advances
// acc_l with a single rounding, and the horizontal combine
// (lo+hi then lane0+lane1) is exactly (a0+a2)+(a1+a3). Elementwise
// kernels use vmul+vadd — never vfmadd — so each element's rounding
// chain matches the scalar multiply+add loops.
//
// Compiled with -mavx2 -mfma -ffp-contract=off on x86; elsewhere the
// table collapses to the SSE2 tier.
#include <cmath>
#include <cstddef>

#include "linalg/simd_impl.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace essex::la::simd::detail {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// (a0+a2)+(a1+a3) for acc = [a0, a1, a2, a3].
inline double hsum_canonical(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // [a0+a2, a1+a3]
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double avx2_dot(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4)
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), acc);
  double s = hsum_canonical(acc);
  for (std::size_t i = nv; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

double avx2_sumsq(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    acc = _mm256_fmadd_pd(xi, xi, acc);
  }
  double s = hsum_canonical(acc);
  for (std::size_t i = nv; i < n; ++i) s = std::fma(x[i], x[i], s);
  return s;
}

void avx2_dot_block(const double* const* cols, std::size_t ncols,
                    const double* x, std::size_t n, double* out) {
  // One accumulator register per column; x is streamed exactly once.
  __m256d acc[kDotBlockCols];
  for (std::size_t w = 0; w < ncols; ++w) acc[w] = _mm256_setzero_pd();
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    for (std::size_t w = 0; w < ncols; ++w)
      acc[w] = _mm256_fmadd_pd(_mm256_loadu_pd(cols[w] + i), xv, acc[w]);
  }
  for (std::size_t w = 0; w < ncols; ++w) {
    double s = hsum_canonical(acc[w]);
    for (std::size_t i = nv; i < n; ++i) s = std::fma(cols[w][i], x[i], s);
    out[w] = s;
  }
}

void avx2_pair_dots(const double* x, const double* y, std::size_t n,
                    double* alpha, double* beta, double* gamma) {
  __m256d aa = _mm256_setzero_pd(), bb = _mm256_setzero_pd(),
          gg = _mm256_setzero_pd();
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    aa = _mm256_fmadd_pd(xi, xi, aa);
    bb = _mm256_fmadd_pd(yi, yi, bb);
    gg = _mm256_fmadd_pd(xi, yi, gg);
  }
  double sa = hsum_canonical(aa);
  double sb = hsum_canonical(bb);
  double sg = hsum_canonical(gg);
  for (std::size_t i = nv; i < n; ++i) {
    sa = std::fma(x[i], x[i], sa);
    sb = std::fma(y[i], y[i], sb);
    sg = std::fma(x[i], y[i], sg);
  }
  *alpha = sa;
  *beta = sb;
  *gamma = sg;
}

void avx2_axpy(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (std::size_t i = nv; i < n; ++i) y[i] += a * x[i];
}

void avx2_scale(double* x, double s, std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), sv));
  for (std::size_t i = nv; i < n; ++i) x[i] *= s;
}

void avx2_rotate(double c, double s, double* x, double* y, std::size_t n) {
  const __m256d cv = _mm256_set1_pd(c), sv = _mm256_set1_pd(s);
  const std::size_t nv = n - n % 4;
  for (std::size_t i = 0; i < nv; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(
        x + i, _mm256_sub_pd(_mm256_mul_pd(cv, xi), _mm256_mul_pd(sv, yi)));
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_mul_pd(sv, xi), _mm256_mul_pd(cv, yi)));
  }
  for (std::size_t i = nv; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// 8-row panels, 16-column j-tiles: the four ymm C accumulators for a
// tile stay in registers across the whole panel, so each C element is
// loaded/stored once per panel instead of once per row; the last < 16
// columns take narrower vectors the same way. Row order per
// element stays ascending, contributions stay vmul+vadd with the
// a[r,i]==0 skip — bitwise identical to scalar_atb_update.
void avx2_atb_update(const double* a, const double* b, double* c,
                     std::size_t rows, std::size_t p, std::size_t n) {
  constexpr std::size_t kRowPanel = 8;
  const std::size_t n16 = n - n % 16;
  for (std::size_t lo = 0; lo < rows; lo += kRowPanel) {
    const std::size_t panel = (lo + kRowPanel <= rows) ? kRowPanel : rows - lo;
    for (std::size_t i = 0; i < p; ++i) {
      double ai[kRowPanel];
      for (std::size_t r = 0; r < panel; ++r) ai[r] = a[(lo + r) * p + i];
      double* crow = c + i * n;
      std::size_t j = 0;
      for (; j < n16; j += 16) {
        __m256d c0 = _mm256_loadu_pd(crow + j);
        __m256d c1 = _mm256_loadu_pd(crow + j + 4);
        __m256d c2 = _mm256_loadu_pd(crow + j + 8);
        __m256d c3 = _mm256_loadu_pd(crow + j + 12);
        for (std::size_t r = 0; r < panel; ++r) {
          if (ai[r] == 0.0) continue;
          const __m256d av = _mm256_set1_pd(ai[r]);
          const double* brow = b + (lo + r) * n + j;
          c0 = _mm256_add_pd(c0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
          c1 = _mm256_add_pd(c1, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4)));
          c2 = _mm256_add_pd(c2, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 8)));
          c3 = _mm256_add_pd(c3, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 12)));
        }
        _mm256_storeu_pd(crow + j, c0);
        _mm256_storeu_pd(crow + j + 4, c1);
        _mm256_storeu_pd(crow + j + 8, c2);
        _mm256_storeu_pd(crow + j + 12, c3);
      }
      // Fewer than 16 columns left (all of them for the thin AᵀB of two
      // subspaces): 4-wide, then 2-wide, then one column at a time.
      for (; j + 4 <= n; j += 4) {
        __m256d c0 = _mm256_loadu_pd(crow + j);
        for (std::size_t r = 0; r < panel; ++r) {
          if (ai[r] == 0.0) continue;
          const __m256d bv = _mm256_loadu_pd(b + (lo + r) * n + j);
          c0 = _mm256_add_pd(c0, _mm256_mul_pd(_mm256_set1_pd(ai[r]), bv));
        }
        _mm256_storeu_pd(crow + j, c0);
      }
      for (; j + 2 <= n; j += 2) {
        __m128d c0 = _mm_loadu_pd(crow + j);
        for (std::size_t r = 0; r < panel; ++r) {
          if (ai[r] == 0.0) continue;
          const __m128d bv = _mm_loadu_pd(b + (lo + r) * n + j);
          c0 = _mm_add_pd(c0, _mm_mul_pd(_mm_set1_pd(ai[r]), bv));
        }
        _mm_storeu_pd(crow + j, c0);
      }
      for (; j < n; ++j) {
        double acc = crow[j];
        for (std::size_t r = 0; r < panel; ++r) {
          if (ai[r] == 0.0) continue;
          acc += ai[r] * b[(lo + r) * n + j];
        }
        crow[j] = acc;
      }
    }
  }
}

void avx2_ab_row(const double* arow, const double* b, double* crow,
                 std::size_t k, std::size_t n) {
  // 16-wide j-tiles with the output held in registers across all k
  // stored rows (q ascending per element, vmul+vadd, zero rows skipped).
  const std::size_t n16 = n - n % 16;
  std::size_t j = 0;
  for (; j < n16; j += 16) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    __m256d c1 = _mm256_loadu_pd(crow + j + 4);
    __m256d c2 = _mm256_loadu_pd(crow + j + 8);
    __m256d c3 = _mm256_loadu_pd(crow + j + 12);
    for (std::size_t q = 0; q < k; ++q) {
      const double aq = arow[q];
      if (aq == 0.0) continue;
      const __m256d av = _mm256_set1_pd(aq);
      const double* brow = b + q * n + j;
      c0 = _mm256_add_pd(c0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
      c1 = _mm256_add_pd(c1, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4)));
      c2 = _mm256_add_pd(c2, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 8)));
      c3 = _mm256_add_pd(c3, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 12)));
    }
    _mm256_storeu_pd(crow + j, c0);
    _mm256_storeu_pd(crow + j + 4, c1);
    _mm256_storeu_pd(crow + j + 8, c2);
    _mm256_storeu_pd(crow + j + 12, c3);
  }
  for (; j < n; ++j) {
    double acc = crow[j];
    for (std::size_t q = 0; q < k; ++q) {
      const double aq = arow[q];
      if (aq == 0.0) continue;
      acc += aq * b[q * n + j];
    }
    crow[j] = acc;
  }
}

// Four rows (one ymm per output column) against a group of W ≤
// kRowBlockCols output columns: W accumulators stay in registers across
// all n stored columns, each column contributes one 4-row load, and the
// finished block goes through the post multiply and out to U once.
// No vector type crosses the call boundary: a function with a 256-bit
// parameter returns without vzeroupper, and a dirty upper ymm state
// would slow every legacy-SSE instruction the thread runs afterwards.
template <std::size_t W>
void row_block_group(const double* const* cols, std::size_t n, std::size_t i,
                     double s, const double* v, std::size_t ldv,
                     const double* post, double* out, std::size_t r) {
  const __m256d scale = _mm256_set1_pd(s);
  __m256d acc[W];
#pragma GCC unroll 8
  for (std::size_t q = 0; q < W; ++q) acc[q] = _mm256_setzero_pd();
  for (std::size_t c = 0; c < n; ++c) {
    const __m256d a = _mm256_mul_pd(_mm256_loadu_pd(cols[c] + i), scale);
    const double* vrow = v + c * ldv;
#pragma GCC unroll 8
    for (std::size_t q = 0; q < W; ++q)
      acc[q] = _mm256_add_pd(acc[q],
                             _mm256_mul_pd(a, _mm256_broadcast_sd(vrow + q)));
  }
  alignas(32) double tile[W][4];
#pragma GCC unroll 8
  for (std::size_t q = 0; q < W; ++q) {
    if (post != nullptr)
      acc[q] = _mm256_mul_pd(acc[q], _mm256_broadcast_sd(post + q));
    _mm256_store_pd(tile[q], acc[q]);
  }
  for (std::size_t l = 0; l < 4; ++l) {
    double* orow = out + (i + l) * r;
#pragma GCC unroll 8
    for (std::size_t q = 0; q < W; ++q) orow[q] = tile[q][l];
  }
}

using RowBlockGroupFn = void (*)(const double* const*, std::size_t,
                                 std::size_t, double, const double*,
                                 std::size_t, const double*, double*,
                                 std::size_t);

constexpr RowBlockGroupFn kRowBlockGroups[kRowBlockCols] = {
    row_block_group<1>, row_block_group<2>, row_block_group<3>,
    row_block_group<4>, row_block_group<5>, row_block_group<6>,
    row_block_group<7>, row_block_group<8>,
};

void avx2_row_block_matmul(const double* const* cols, std::size_t n,
                           std::size_t lo, std::size_t hi, double scale,
                           const double* v, std::size_t ldv, std::size_t r,
                           const double* post, double* out) {
  const std::size_t hi4 = hi - (hi - lo) % 4;
  for (std::size_t i = lo; i < hi4; i += 4) {
    for (std::size_t j0 = 0; j0 < r; j0 += kRowBlockCols) {
      const std::size_t w = r - j0 < kRowBlockCols ? r - j0 : kRowBlockCols;
      kRowBlockGroups[w - 1](cols, n, i, scale, v + j0, ldv,
                             post != nullptr ? post + j0 : nullptr,
                             out + j0, r);
    }
  }
  // Rows left over after the last full vector: the scalar reference.
  scalar_row_block_matmul(cols, n, hi4, hi, scale, v, ldv, r, post, out);
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table = {
      avx2_dot,    avx2_sumsq,      avx2_dot_block, avx2_pair_dots,
      avx2_axpy,   avx2_scale,      avx2_rotate,    avx2_atb_update,
      avx2_ab_row, avx2_row_block_matmul,
  };
  return table;
}

#else  // !(__AVX2__ && __FMA__)

const KernelTable& avx2_table() { return sse2_table(); }

#endif

}  // namespace essex::la::simd::detail
