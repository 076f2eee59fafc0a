#include "testkit/reference_subspace.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "esse/error_subspace.hpp"
#include "linalg/eig_sym.hpp"

namespace essex::testkit {

la::Matrix reference_columns_matmul(std::span<const la::ColSpan> cols,
                                    const la::Matrix& v, std::size_t r,
                                    double scale,
                                    std::span<const double> col_scale) {
  const std::size_t n = cols.size();
  ESSEX_REQUIRE(v.rows() == n, "reference_columns_matmul: V row mismatch");
  ESSEX_REQUIRE(r <= v.cols(), "reference_columns_matmul: r exceeds V");
  ESSEX_REQUIRE(col_scale.empty() || col_scale.size() == r,
                "reference_columns_matmul: col_scale must hold r entries");
  const std::size_t m = n ? cols.front().size() : 0;
  la::Matrix out(m, r);
  if (m == 0 || r == 0) return out;
  double* o = out.data().data();
  const double* vd = v.data().data();
  const std::size_t vcols = v.cols();
  for (std::size_t c = 0; c < n; ++c) {
    const double* col = cols[c].data();
    const double* vrow = vd + c * vcols;
    for (std::size_t i = 0; i < m; ++i) {
      const double a = col[i] * scale;
      double* orow = o + i * r;
      for (std::size_t j = 0; j < r; ++j) orow[j] += a * vrow[j];
    }
  }
  if (!col_scale.empty()) {
    for (std::size_t j = 0; j < r; ++j) {
      const double inv = col_scale[j];
      for (std::size_t i = 0; i < m; ++i) out(i, j) *= inv;
    }
  }
  return out;
}

std::vector<int> reference_canonicalize_column_signs(la::Matrix& m) {
  std::vector<int> signs(m.cols(), 1);
  for (std::size_t j = 0; j < m.cols(); ++j) {
    double best = 0.0;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const double mag = std::fabs(m(i, j));
      if (mag > best) {  // strict: ties keep the first (lowest) index
        best = mag;
        best_i = i;
      }
    }
    if (best > 0.0 && m(best_i, j) < 0.0) {
      signs[j] = -1;
      for (std::size_t i = 0; i < m.rows(); ++i) m(i, j) = -m(i, j);
    }
  }
  return signs;
}

ReferenceSubspace reference_subspace_from_view(const esse::AnomalyView& view,
                                               double variance_fraction,
                                               std::size_t max_rank) {
  const std::size_t n = view.count();
  ESSEX_REQUIRE(n >= 2, "need at least two members for a spread estimate");
  ESSEX_REQUIRE(n <= view.state_dim,
                "reference_subspace_from_view covers tall views only");
  const la::EigSym eig = la::eig_sym(view.gram());
  la::Vector s(n);
  for (std::size_t j = 0; j < n; ++j)
    s[j] = std::sqrt(std::max(eig.eigenvalues[j], 0.0));
  const std::size_t r =
      esse::ErrorSubspace::truncation_rank(s, variance_fraction, max_rank);
  std::vector<la::ColSpan> cols;
  cols.reserve(n);
  for (const esse::AnomalyColumn& c : view.columns) cols.push_back(c.anomaly);
  const double scale = 1.0 / std::sqrt(static_cast<double>(n - 1));
  la::Vector inv(r);
  for (std::size_t j = 0; j < r; ++j)
    inv[j] = (s[j] > 1e-300) ? 1.0 / s[j] : 0.0;
  ReferenceSubspace out;
  out.modes = reference_columns_matmul(cols, eig.eigenvectors, r, scale, inv);
  reference_canonicalize_column_signs(out.modes);
  out.sigmas.assign(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(r));
  return out;
}

}  // namespace essex::testkit
