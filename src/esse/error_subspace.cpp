#include "esse/error_subspace.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace essex::esse {

ErrorSubspace::ErrorSubspace(la::Matrix modes, la::Vector sigmas)
    : sigmas_(std::move(sigmas)) {
  ESSEX_REQUIRE(modes.cols() == sigmas_.size(),
                "mode count must match sigma count");
  for (std::size_t i = 0; i < sigmas_.size(); ++i) {
    ESSEX_REQUIRE(sigmas_[i] >= 0.0, "sigmas must be non-negative");
    if (i > 0) {
      ESSEX_REQUIRE(sigmas_[i] <= sigmas_[i - 1] * (1.0 + 1e-12),
                    "sigmas must be descending");
    }
  }
  // P = E Λ Eᵀ is invariant under per-mode sign flips, so every producer
  // (SVD, eigensolve, analysis update, file load) funnels through one
  // canonical convention here. This is what keeps serialized subspaces —
  // and the convergence coefficient's inputs — bit-stable across runs.
  la::canonicalize_column_signs(modes);
  modes_ = std::make_shared<const la::Matrix>(std::move(modes));
}

const la::Matrix& ErrorSubspace::modes() const {
  static const la::Matrix kNoModes;
  return modes_ ? *modes_ : kNoModes;
}

std::size_t ErrorSubspace::truncation_rank(const la::Vector& s,
                                           double variance_fraction,
                                           std::size_t max_rank) {
  ESSEX_REQUIRE(variance_fraction > 0.0 && variance_fraction <= 1.0,
                "variance fraction must lie in (0,1]");
  double total = 0.0;
  for (double sv : s) total += sv * sv;
  std::size_t k = 0;
  double acc = 0.0;
  while (k < s.size() && (total == 0.0 ? k == 0 : acc < variance_fraction * total)) {
    acc += s[k] * s[k];
    ++k;
  }
  if (max_rank > 0) k = std::min(k, max_rank);
  k = std::max<std::size_t>(k, 1);
  k = std::min(k, s.size());
  return k;
}

ErrorSubspace ErrorSubspace::from_svd(const la::Matrix& u, const la::Vector& s,
                                      double variance_fraction,
                                      std::size_t max_rank) {
  ESSEX_REQUIRE(u.cols() == s.size(), "SVD factor shape mismatch");
  const std::size_t k = truncation_rank(s, variance_fraction, max_rank);
  la::Vector sig(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k));
  return ErrorSubspace(u.first_cols(k), std::move(sig));
}

double ErrorSubspace::total_variance() const {
  double t = 0.0;
  for (double s : sigmas_) t += s * s;
  return t;
}

double ErrorSubspace::variance_fraction(std::size_t k) const {
  const double total = total_variance();
  if (total == 0.0) return 1.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < std::min(k, sigmas_.size()); ++i)
    acc += sigmas_[i] * sigmas_[i];
  return acc / total;
}

ErrorSubspace ErrorSubspace::truncated(std::size_t k) const {
  if (k >= rank()) return *this;
  la::Vector sig(sigmas_.begin(), sigmas_.begin() + static_cast<std::ptrdiff_t>(k));
  return ErrorSubspace(modes().first_cols(k), std::move(sig));
}

la::Vector ErrorSubspace::project(const la::Vector& x) const {
  ESSEX_REQUIRE(x.size() == dim(), "project: dimension mismatch");
  return la::matvec_t(modes(), x);
}

la::Vector ErrorSubspace::expand(const la::Vector& coeffs) const {
  ESSEX_REQUIRE(coeffs.size() == rank(), "expand: rank mismatch");
  return la::matvec(modes(), coeffs);
}

la::Vector ErrorSubspace::marginal_stddev() const {
  const la::Matrix& e = modes();
  la::Vector sd(dim(), 0.0);
  for (std::size_t i = 0; i < dim(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < rank(); ++j) {
      const double x = e(i, j) * sigmas_[j];
      s += x * x;
    }
    sd[i] = std::sqrt(s);
  }
  return sd;
}

la::Vector ErrorSubspace::sample(Rng& rng) const {
  la::Vector coeffs(rank());
  for (std::size_t j = 0; j < rank(); ++j)
    coeffs[j] = sigmas_[j] * rng.normal();
  return expand(coeffs);
}

double subspace_similarity(const ErrorSubspace& a, const ErrorSubspace& b) {
  ESSEX_REQUIRE(a.dim() == b.dim(),
                "subspace similarity: dimension mismatch");
  if (a.empty() || b.empty()) return 0.0;
  // Cross-Gramian G = Eᴬᵀ Eᴮ (ka × kb).
  const la::Matrix g = la::matmul_at_b(a.modes(), b.modes());
  double num = 0.0;
  for (std::size_t i = 0; i < a.rank(); ++i) {
    const double la2 = a.sigmas()[i] * a.sigmas()[i];
    for (std::size_t j = 0; j < b.rank(); ++j) {
      const double lb2 = b.sigmas()[j] * b.sigmas()[j];
      num += la2 * lb2 * g(i, j) * g(i, j);
    }
  }
  double da = 0.0, db = 0.0;
  for (double s : a.sigmas()) da += s * s * s * s;
  for (double s : b.sigmas()) db += s * s * s * s;
  if (da == 0.0 || db == 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

}  // namespace essex::esse
