// SSE2 tier (simd.hpp): 2-wide vectorization of the elementwise
// kernels only. SSE2 has no fused multiply-add, and the canonical
// reduction shape is defined in terms of single-rounded fma lanes, so
// every reduction entry delegates to the scalar reference — bitwise
// identity is preserved by construction, and pre-FMA machines still get
// the bulk of the bandwidth win (rotations, rank-1 row updates, U=A·V).
//
// Compiled with -msse2 -ffp-contract=off on x86; elsewhere the table
// collapses to the scalar reference.
#include <cstddef>

#include "linalg/simd_impl.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace essex::la::simd::detail {

#if defined(__SSE2__)

namespace {

void sse2_axpy(double a, const double* x, double* y, std::size_t n) {
  const __m128d av = _mm_set1_pd(a);
  const std::size_t nv = n - n % 2;
  for (std::size_t i = 0; i < nv; i += 2) {
    const __m128d yi = _mm_loadu_pd(y + i);
    const __m128d xi = _mm_loadu_pd(x + i);
    _mm_storeu_pd(y + i, _mm_add_pd(yi, _mm_mul_pd(av, xi)));
  }
  for (std::size_t i = nv; i < n; ++i) y[i] += a * x[i];
}

void sse2_scale(double* x, double s, std::size_t n) {
  const __m128d sv = _mm_set1_pd(s);
  const std::size_t nv = n - n % 2;
  for (std::size_t i = 0; i < nv; i += 2)
    _mm_storeu_pd(x + i, _mm_mul_pd(_mm_loadu_pd(x + i), sv));
  for (std::size_t i = nv; i < n; ++i) x[i] *= s;
}

void sse2_rotate(double c, double s, double* x, double* y, std::size_t n) {
  const __m128d cv = _mm_set1_pd(c), sv = _mm_set1_pd(s);
  const std::size_t nv = n - n % 2;
  for (std::size_t i = 0; i < nv; i += 2) {
    const __m128d xi = _mm_loadu_pd(x + i);
    const __m128d yi = _mm_loadu_pd(y + i);
    _mm_storeu_pd(x + i, _mm_sub_pd(_mm_mul_pd(cv, xi), _mm_mul_pd(sv, yi)));
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_mul_pd(sv, xi), _mm_mul_pd(cv, yi)));
  }
  for (std::size_t i = nv; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// 8-row panel / register-tiled AᵀB update, the same blocking as the
// AVX2 tier but with 2-wide lanes. Per output element the row order is
// ascending and each contribution is multiply+add with the zero-row
// skip — bitwise identical to scalar_atb_update.
void sse2_atb_update(const double* a, const double* b, double* c,
                     std::size_t rows, std::size_t p, std::size_t n) {
  constexpr std::size_t kRowPanel = 8;
  const std::size_t n8 = n - n % 8;
  for (std::size_t lo = 0; lo < rows; lo += kRowPanel) {
    const std::size_t panel = (lo + kRowPanel <= rows) ? kRowPanel : rows - lo;
    for (std::size_t i = 0; i < p; ++i) {
      double ai[kRowPanel];
      for (std::size_t r = 0; r < panel; ++r) ai[r] = a[(lo + r) * p + i];
      double* crow = c + i * n;
      std::size_t j = 0;
      for (; j < n8; j += 8) {
        __m128d c0 = _mm_loadu_pd(crow + j);
        __m128d c1 = _mm_loadu_pd(crow + j + 2);
        __m128d c2 = _mm_loadu_pd(crow + j + 4);
        __m128d c3 = _mm_loadu_pd(crow + j + 6);
        for (std::size_t r = 0; r < panel; ++r) {
          if (ai[r] == 0.0) continue;
          const __m128d av = _mm_set1_pd(ai[r]);
          const double* brow = b + (lo + r) * n + j;
          c0 = _mm_add_pd(c0, _mm_mul_pd(av, _mm_loadu_pd(brow)));
          c1 = _mm_add_pd(c1, _mm_mul_pd(av, _mm_loadu_pd(brow + 2)));
          c2 = _mm_add_pd(c2, _mm_mul_pd(av, _mm_loadu_pd(brow + 4)));
          c3 = _mm_add_pd(c3, _mm_mul_pd(av, _mm_loadu_pd(brow + 6)));
        }
        _mm_storeu_pd(crow + j, c0);
        _mm_storeu_pd(crow + j + 2, c1);
        _mm_storeu_pd(crow + j + 4, c2);
        _mm_storeu_pd(crow + j + 6, c3);
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

void sse2_ab_row(const double* arow, const double* b, double* crow,
                 std::size_t k, std::size_t n) {
  for (std::size_t q = 0; q < k; ++q) {
    const double aq = arow[q];
    if (aq == 0.0) continue;
    sse2_axpy(aq, b + q * n, crow, n);
  }
}

// The AVX2 tier's row-block leaf with 2-row lanes: W ≤ kRowBlockCols
// xmm accumulators, mul then add, the post multiply after the sum.
template <std::size_t W>
void row_block_group(const double* const* cols, std::size_t n, std::size_t i,
                     double s, const double* v, std::size_t ldv,
                     const double* post, double* out, std::size_t r) {
  const __m128d scale = _mm_set1_pd(s);
  __m128d acc[W];
#pragma GCC unroll 8
  for (std::size_t q = 0; q < W; ++q) acc[q] = _mm_setzero_pd();
  for (std::size_t c = 0; c < n; ++c) {
    const __m128d a = _mm_mul_pd(_mm_loadu_pd(cols[c] + i), scale);
    const double* vrow = v + c * ldv;
#pragma GCC unroll 8
    for (std::size_t q = 0; q < W; ++q)
      acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(a, _mm_set1_pd(vrow[q])));
  }
  double* row0 = out + i * r;
  double* row1 = row0 + r;
#pragma GCC unroll 8
  for (std::size_t q = 0; q < W; ++q) {
    if (post != nullptr) acc[q] = _mm_mul_pd(acc[q], _mm_set1_pd(post[q]));
    _mm_storel_pd(row0 + q, acc[q]);
    _mm_storeh_pd(row1 + q, acc[q]);
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

void sse2_row_block_matmul(const double* const* cols, std::size_t n,
                           std::size_t lo, std::size_t hi, double scale,
                           const double* v, std::size_t ldv, std::size_t r,
                           const double* post, double* out) {
  const std::size_t hi2 = hi - (hi - lo) % 2;
  for (std::size_t i = lo; i < hi2; i += 2) {
    for (std::size_t j0 = 0; j0 < r; j0 += kRowBlockCols) {
      const std::size_t w = r - j0 < kRowBlockCols ? r - j0 : kRowBlockCols;
      kRowBlockGroups[w - 1](cols, n, i, scale, v + j0, ldv,
                             post != nullptr ? post + j0 : nullptr,
                             out + j0, r);
    }
  }
  scalar_row_block_matmul(cols, n, hi2, hi, scale, v, ldv, r, post, out);
}

}  // namespace

const KernelTable& sse2_table() {
  static const KernelTable table = {
      // Reductions: canonical scalar reference (no SSE2 fma — see top).
      scalar_dot, scalar_sumsq, scalar_dot_block, scalar_pair_dots,
      // Elementwise: 2-wide.
      sse2_axpy, sse2_scale, sse2_rotate, sse2_atb_update, sse2_ab_row,
      sse2_row_block_matmul,
  };
  return table;
}

#else  // !__SSE2__

const KernelTable& sse2_table() { return scalar_table(); }

#endif

}  // namespace essex::la::simd::detail
