// Internal glue between the SIMD dispatch layer and its per-tier
// translation units. Each tier TU is compiled with exactly the ISA
// flags of its tier (see src/linalg/CMakeLists.txt) plus
// -ffp-contract=off, so the compiler can neither fuse the elementwise
// multiply+adds nor un-fuse the explicit fmas — the bitwise contract in
// simd.hpp survives any optimisation level.
//
// Not installed; include only from src/linalg/simd*.cpp and tests that
// need a specific tier's raw table.
#pragma once

#include "linalg/simd.hpp"

namespace essex::la::simd::detail {

/// Canonical reference table (simd.hpp rules 1+2, std::fma reductions).
const KernelTable& scalar_table();

/// SSE2: vectorized elementwise kernels, scalar-reference reductions.
/// Falls back to scalar_table() entries when not compiled for x86 SSE2.
const KernelTable& sse2_table();

/// AVX2+FMA everywhere. Falls back to sse2_table() entries when the
/// toolchain could not target AVX2.
const KernelTable& avx2_table();

// Scalar reference kernels, exposed so the SSE2 tier can reuse the
// canonical reductions and so the property tests can pin any tier
// against the reference directly.
double scalar_dot(const double* x, const double* y, std::size_t n);
double scalar_sumsq(const double* x, std::size_t n);
void scalar_dot_block(const double* const* cols, std::size_t ncols,
                      const double* x, std::size_t n, double* out);
void scalar_pair_dots(const double* x, const double* y, std::size_t n,
                      double* alpha, double* beta, double* gamma);
void scalar_axpy(double a, const double* x, double* y, std::size_t n);
void scalar_scale(double* x, double s, std::size_t n);
void scalar_rotate(double c, double s, double* x, double* y, std::size_t n);
void scalar_atb_update(const double* a, const double* b, double* c,
                       std::size_t rows, std::size_t p, std::size_t n);
void scalar_ab_row(const double* arow, const double* b, double* crow,
                   std::size_t k, std::size_t n);
void scalar_row_block_matmul(const double* const* cols, std::size_t n,
                             std::size_t lo, std::size_t hi, double scale,
                             const double* v, std::size_t ldv, std::size_t r,
                             const double* post, double* out);

}  // namespace essex::la::simd::detail
