#include "linalg/gram.hpp"

#include <algorithm>
#include <future>

#include "common/error.hpp"
#include "linalg/simd.hpp"

namespace essex::la {

namespace {

// Columns per fused dot block: the dispatch layer streams one pass of
// the shared operand through up to this many accumulator sets.
constexpr std::size_t kColBlock = simd::kDotBlockCols;

// Serial blocked border over the column range [lo, hi).
void gram_append_range(std::span<const ColSpan> cols, ColSpan new_col,
                       double* out, std::size_t lo, std::size_t hi) {
  const auto& kern = simd::kernels();
  const std::size_t m = new_col.size();
  const double* x = new_col.data();
  for (std::size_t b0 = lo; b0 < hi; b0 += kColBlock) {
    const std::size_t b1 = std::min(hi, b0 + kColBlock);
    const std::size_t width = b1 - b0;
    const double* c[kColBlock] = {};
    for (std::size_t w = 0; w < width; ++w) c[w] = cols[b0 + w].data();
    kern.dot_block(c, width, x, m, out + b0);
  }
}

}  // namespace

void gram_append(std::span<const ColSpan> cols, ColSpan new_col, double* out,
                 ThreadPool* pool) {
  const std::size_t k = cols.size();
  for (const ColSpan& c : cols) {
    ESSEX_REQUIRE(c.size() == new_col.size(),
                  "gram_append column length mismatch");
  }
  if (k == 0) return;
  if (pool == nullptr || pool->thread_count() <= 1 || k < 2 * kColBlock) {
    gram_append_range(cols, new_col, out, 0, k);
    return;
  }
  // Hand whole column blocks to the workers; each block is independent.
  const std::size_t blocks = (k + kColBlock - 1) / kColBlock;
  const std::size_t chunks = std::min(blocks, pool->thread_count());
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  const std::size_t per = (blocks + chunks - 1) / chunks;
  for (std::size_t c0 = 0; c0 < blocks; c0 += per) {
    const std::size_t lo = c0 * kColBlock;
    const std::size_t hi = std::min(k, (c0 + per) * kColBlock);
    futs.push_back(pool->submit(
        [&, lo, hi] { gram_append_range(cols, new_col, out, lo, hi); }));
  }
  for (auto& f : futs) f.get();
}

void gram_border_rows(std::span<const ColSpan> cached,
                      std::span<const ColSpan> group,
                      std::span<double* const> rows, ThreadPool* pool) {
  const std::size_t k = cached.size();
  const std::size_t g = group.size();
  ESSEX_REQUIRE(rows.size() == g, "gram_border_rows row count mismatch");
  if (g == 0) return;
  const std::size_t m = group.front().size();
  for (const ColSpan& c : cached)
    ESSEX_REQUIRE(c.size() == m, "gram_border_rows column length mismatch");
  for (const ColSpan& c : group)
    ESSEX_REQUIRE(c.size() == m, "gram_border_rows column length mismatch");

  const auto& kern = simd::kernels();

  // Dots against the cached columns: for each cached column one fused
  // dot_block per kColBlock-wide slice of the group, so the cached
  // column is streamed from memory once per slice (once total for the
  // differ's ≤kColBlock batches) while the slice stays cache-hot.
  // dot_block(group, cached_i) is bitwise dot(cached_i, group_w): the
  // canonical fma lanes commute their multiplicands.
  auto against_cached = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b0 = 0; b0 < g; b0 += kColBlock) {
      const std::size_t width = std::min(g - b0, kColBlock);
      const double* c[kColBlock] = {};
      for (std::size_t w = 0; w < width; ++w) c[w] = group[b0 + w].data();
      double tmp[kColBlock];
      for (std::size_t i = lo; i < hi; ++i) {
        kern.dot_block(c, width, cached[i].data(), m, tmp);
        for (std::size_t w = 0; w < width; ++w) rows[b0 + w][i] = tmp[w];
      }
    }
  };

  const std::size_t threads = pool ? pool->thread_count() : 1;
  if (pool == nullptr || threads <= 1 || k < 2 * kColBlock) {
    against_cached(0, k);
  } else {
    std::vector<std::future<void>> futs;
    const std::size_t per = (k + threads - 1) / threads;
    for (std::size_t lo = 0; lo < k; lo += per) {
      const std::size_t hi = std::min(k, lo + per);
      futs.push_back(pool->submit([&, lo, hi] { against_cached(lo, hi); }));
    }
    for (auto& f : futs) f.get();
  }

  // Intra-group triangle (earlier group members + the self product):
  // small — at most kColBlock rows of at most kColBlock entries.
  for (std::size_t w = 0; w < g; ++w) {
    for (std::size_t b0 = 0; b0 <= w; b0 += kColBlock) {
      const std::size_t width = std::min(w + 1 - b0, kColBlock);
      const double* c[kColBlock] = {};
      for (std::size_t u = 0; u < width; ++u) c[u] = group[b0 + u].data();
      kern.dot_block(c, width, group[w].data(), m, rows[w] + k + b0);
    }
  }
}

double dot_sharded(ColSpan a, ColSpan b, std::span<const RunList> shards) {
  ESSEX_REQUIRE(a.size() == b.size(), "dot_sharded column length mismatch");
  const auto& kern = simd::kernels();
  double total = 0.0;
  for (const RunList& runs : shards) {
    double partial = 0.0;
    for (const IndexRange& r : runs) {
      ESSEX_REQUIRE(r.begin + r.len <= a.size(),
                    "dot_sharded run out of range");
      partial += kern.dot(a.data() + r.begin, b.data() + r.begin, r.len);
    }
    total += partial;
  }
  return total;
}

double sumsq_sharded(ColSpan a, std::span<const RunList> shards) {
  const auto& kern = simd::kernels();
  double total = 0.0;
  for (const RunList& runs : shards) {
    double partial = 0.0;
    for (const IndexRange& r : runs) {
      ESSEX_REQUIRE(r.begin + r.len <= a.size(),
                    "sumsq_sharded run out of range");
      partial += kern.sumsq(a.data() + r.begin, r.len);
    }
    total += partial;
  }
  return total;
}

void gram_append_sharded(std::span<const ColSpan> cols, ColSpan new_col,
                         std::span<const RunList> shards, double* out,
                         ThreadPool* pool) {
  const std::size_t k = cols.size();
  if (k == 0) return;
  auto run_cols = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = dot_sharded(cols[i], new_col, shards);
  };
  const std::size_t threads = pool ? pool->thread_count() : 1;
  if (pool == nullptr || threads <= 1 || k < 2 * threads) {
    run_cols(0, k);
    return;
  }
  std::vector<std::future<void>> futs;
  const std::size_t per = (k + threads - 1) / threads;
  for (std::size_t lo = 0; lo < k; lo += per) {
    const std::size_t hi = std::min(k, lo + per);
    futs.push_back(pool->submit([&, lo, hi] { run_cols(lo, hi); }));
  }
  for (auto& f : futs) f.get();
}

Matrix gram_from_columns(std::span<const ColSpan> cols, double scale,
                         ThreadPool* pool) {
  const std::size_t n = cols.size();
  Matrix g(n, n);
  std::vector<Vector> row_store;
  row_store.reserve(n);
  for (std::size_t j = 0; j < n; ++j) row_store.emplace_back(j + 1);
  for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const std::size_t width = std::min(n - j0, kColBlock);
    std::vector<double*> rows(width);
    for (std::size_t w = 0; w < width; ++w) rows[w] = row_store[j0 + w].data();
    gram_border_rows(cols.first(j0), cols.subspan(j0, width), rows, pool);
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i <= j; ++i) {
      const double v = row_store[j][i] * scale;
      g(j, i) = v;
      g(i, j) = v;
    }
  }
  return g;
}

Matrix columns_matmul(std::span<const ColSpan> cols, const Matrix& v,
                      std::size_t r, double scale, ThreadPool* pool,
                      std::span<const double> col_scale) {
  const std::size_t n = cols.size();
  ESSEX_REQUIRE(v.rows() == n, "columns_matmul: V row count mismatch");
  ESSEX_REQUIRE(r <= v.cols(), "columns_matmul: r exceeds V columns");
  ESSEX_REQUIRE(col_scale.empty() || col_scale.size() == r,
                "columns_matmul: col_scale must hold r entries");
  const std::size_t m = n ? cols.front().size() : 0;
  std::vector<const double*> bases;
  bases.reserve(n);
  for (const ColSpan& c : cols) {
    ESSEX_REQUIRE(c.size() == m, "columns_matmul column length mismatch");
    bases.push_back(c.data());
  }
  Matrix out(m, r);
  if (m == 0 || r == 0) return out;

  const double* post = col_scale.empty() ? nullptr : col_scale.data();
  auto run_rows = [&](std::size_t lo, std::size_t hi) {
    simd::kernels().row_block_matmul(bases.data(), n, lo, hi, scale,
                                     v.data().data(), v.cols(), r, post,
                                     out.data().data());
  };

  const std::size_t threads = pool ? pool->thread_count() : 1;
  if (pool == nullptr || threads <= 1 || m < 2 * threads) {
    run_rows(0, m);
    return out;
  }
  std::vector<std::future<void>> futs;
  const std::size_t per = (m + threads - 1) / threads;
  for (std::size_t lo = 0; lo < m; lo += per) {
    const std::size_t hi = std::min(m, lo + per);
    futs.push_back(pool->submit([&, lo, hi] { run_rows(lo, hi); }));
  }
  for (auto& f : futs) f.get();
  return out;
}

}  // namespace essex::la
