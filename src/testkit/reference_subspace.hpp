// ESSEX testkit: the frozen reference milestone subspace check.
//
// Verbatim copies of the differ's U = A·V·Σ⁻¹ recovery and the mode sign
// convention as they stood before the recovery became one row-block pass
// (DESIGN.md §20): columns_matmul streamed the whole m×r output once per
// stored column, a second, column-strided pass applied Σ⁻¹, and the sign
// convention scanned each column separately. subspace_from_view,
// la::columns_matmul and la::canonicalize_column_signs must reproduce
// these bit for bit; tests/test_simd.cpp holds them to that and
// bench/bench_subspace_check times the new path against this one. Do not
// optimise this file — its memory traffic and its exact expression order
// are the point.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "esse/differ.hpp"
#include "linalg/gram.hpp"
#include "linalg/matrix.hpp"

namespace essex::testkit {

/// Reference for la::columns_matmul: out(i,j) += (cols[c][i]·scale)·v(c,j)
/// one stored column at a time, then, when col_scale is given, a strided
/// pass multiplying column j by col_scale[j].
la::Matrix reference_columns_matmul(std::span<const la::ColSpan> cols,
                                    const la::Matrix& v, std::size_t r,
                                    double scale,
                                    std::span<const double> col_scale = {});

/// Reference for la::canonicalize_column_signs: one scan per column.
std::vector<int> reference_canonicalize_column_signs(la::Matrix& m);

/// The modes and sigmas of the reference check.
struct ReferenceSubspace {
  la::Matrix modes;
  la::Vector sigmas;
};

/// Reference for esse::subspace_from_view on a tall view (n ≤ m): the
/// cached-Gram eigensolve, reference_columns_matmul with its strided
/// Σ⁻¹ pass, and the per-column sign convention.
ReferenceSubspace reference_subspace_from_view(const esse::AnomalyView& view,
                                               double variance_fraction,
                                               std::size_t max_rank);

}  // namespace essex::testkit
