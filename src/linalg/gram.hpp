// ESSEX: incremental Gram-matrix kernels over append-only column storage.
//
// The continuously-running differ (paper §4.1, Fig. 4) absorbs ensemble
// members one at a time; the AᵀA product its method-of-snapshots SVD
// needs therefore grows by exactly one symmetric border per member.
// These kernels compute that border — the dot products of the new column
// against every stored column — instead of rebuilding the whole n×n
// product, so a convergence check over an append-only anomaly store
// drops from O(m·n²) to a small n×n eigensolve plus U = A·V.
//
// Columns live as contiguous spans (arena-backed in the differ — the
// in-process analogue of the paper's per-member result files), so every
// kernel here takes a span of column spans rather than a packed Matrix.
// All dot products go through the canonical reduction shape of the SIMD
// dispatch layer (simd.hpp), so a border entry is bitwise identical to
// la::dot of the two columns on every dispatch tier.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "linalg/matrix.hpp"

namespace essex::la {

/// Read-only handle to one stored column.
using ColSpan = std::span<const double>;

/// One contiguous run [begin, begin + len) of rows inside a packed
/// column. A tile's owned rows are a list of such runs (one per
/// variable × z-level × row of cells — see ocean/tiling.hpp).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t len = 0;
};

/// One shard's row set: the contiguous runs a single tile owns.
using RunList = std::vector<IndexRange>;

/// Sharded dot product: each shard's partial is the canonical reduction
/// over its runs (run-major, each run through the canonical dot shape),
/// and the partials are summed in shard order. The reduction shape is
/// therefore fixed by the tiling alone — independent of thread count and
/// of where the shards are eventually computed — which is what lets the
/// determinism contract (DESIGN.md §10) survive a future distributed
/// column store. The shards must cover each row at most once.
double dot_sharded(ColSpan a, ColSpan b, std::span<const RunList> shards);

/// Sharded self-product: dot_sharded(a, a, shards) with the sumsq
/// kernel per run.
double sumsq_sharded(ColSpan a, std::span<const RunList> shards);

/// Sharded Gram border: out[i] = dot_sharded(cols[i], new_col, shards)
/// for every stored column; with `pool` the stored columns are spread
/// across the workers (each entry's reduction shape is unchanged).
/// `out` must hold cols.size() doubles.
void gram_append_sharded(std::span<const ColSpan> cols, ColSpan new_col,
                         std::span<const RunList> shards, double* out,
                         ThreadPool* pool = nullptr);

/// The new Gram border: out[i] = cols[i]·new_col for every stored
/// column. Blocked over small groups of columns so `new_col` streams
/// through cache once per group instead of once per column; with `pool`
/// the groups are spread across the workers. `out` must hold
/// cols.size() doubles. All columns must share new_col's length.
void gram_append(std::span<const ColSpan> cols, ColSpan new_col, double* out,
                 ThreadPool* pool = nullptr);

/// Fused border batch for full rebuilds: `group` holds g consecutive new
/// columns (their storage positions follow the `cached` columns), and
/// rows[w] receives group[w]'s whole border row of cached.size()+w+1
/// entries — the dots against every cached column, against the earlier
/// group members, and the self-product. Each cached column is streamed
/// from memory ONCE for the whole group (the group stays cache-hot)
/// instead of once per new column; every entry is still bitwise equal to
/// the one-column gram_append path.
void gram_border_rows(std::span<const ColSpan> cached,
                      std::span<const ColSpan> group,
                      std::span<double* const> rows,
                      ThreadPool* pool = nullptr);

/// Full symmetric Gram build G = scale · AᵀA over column storage (the
/// forced-recompute path, e.g. after a smoother rewrites past columns):
/// fused borders over column groups, mirrored into the upper triangle.
Matrix gram_from_columns(std::span<const ColSpan> cols, double scale = 1.0,
                         ThreadPool* pool = nullptr);

/// U = scale · A·V over column storage, first `r` columns of V only:
/// out(i,j) = Σ_c (cols[c][i] · scale) · v(c,j) for j < r ≤ v.cols(),
/// then multiplied by col_scale[j] when col_scale is given (r entries;
/// the Σ⁻¹ of a method-of-snapshots SVD). v must have cols.size() rows.
/// One pass over the rows reads every column once and writes U once
/// (simd.hpp row_block_matmul); with `pool` the rows are partitioned
/// across the workers.
Matrix columns_matmul(std::span<const ColSpan> cols, const Matrix& v,
                      std::size_t r, double scale = 1.0,
                      ThreadPool* pool = nullptr,
                      std::span<const double> col_scale = {});

}  // namespace essex::la
