// ESSEX: the error subspace (paper §3).
//
// ESSE represents the dominant forecast uncertainty as a rank-k
// factorisation of the error covariance, P ≈ E Λ Eᵀ, with E the
// orthonormal error modes (left singular vectors of the normalised
// ensemble anomaly matrix) and Λ = diag(σ²) their variances. The
// similarity coefficient between two subspaces is the paper's convergence
// test: grow the ensemble until the subspace stops rotating.
#pragma once

#include <cstddef>
#include <memory>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace essex::esse {

/// Rank-k error subspace: orthonormal modes with per-mode standard
/// deviations (singular values of the normalised anomaly matrix).
///
/// Immutable once built: the m×k modes are held behind a shared pointer
/// to const, so copying a subspace (a convergence test keeping the
/// previous milestone's, a forecast result keeping the converged one)
/// costs O(1) and every copy reads the same bytes.
class ErrorSubspace {
 public:
  ErrorSubspace() = default;

  /// `modes` is m×k with orthonormal columns; `sigmas` holds the k
  /// non-negative singular values in descending order. Mode signs are
  /// free (P = E Λ Eᵀ either way) and are pinned to the canonical
  /// convention of la::canonicalize_column_signs on construction, so two
  /// mathematically-equal subspaces serialize to identical bytes.
  ErrorSubspace(la::Matrix modes, la::Vector sigmas);

  /// Build from an SVD of a normalised anomaly matrix, truncating to the
  /// smallest rank capturing `variance_fraction` of total variance (and
  /// at most `max_rank` modes).
  static ErrorSubspace from_svd(const la::Matrix& u, const la::Vector& s,
                                double variance_fraction = 0.99,
                                std::size_t max_rank = 0);

  /// The rank from_svd would retain for singular values `s` (descending):
  /// smallest k capturing `variance_fraction` of Σs², capped at
  /// `max_rank` (0 = uncapped), at least 1. Exposed so callers that build
  /// U incrementally can truncate *before* paying for the full U = A·V.
  static std::size_t truncation_rank(const la::Vector& s,
                                     double variance_fraction,
                                     std::size_t max_rank);

  std::size_t dim() const { return modes_ ? modes_->rows() : 0; }
  std::size_t rank() const { return sigmas_.size(); }
  bool empty() const { return sigmas_.empty(); }

  const la::Matrix& modes() const;
  const la::Vector& sigmas() const { return sigmas_; }

  /// Total variance tr(P) = Σ σ².
  double total_variance() const;

  /// Fraction of this subspace's variance captured by its first k modes.
  double variance_fraction(std::size_t k) const;

  /// Truncate to at most k modes.
  ErrorSubspace truncated(std::size_t k) const;

  /// Coefficients of x in the subspace basis: Eᵀ x.
  la::Vector project(const la::Vector& x) const;

  /// Reconstruct E c from subspace coefficients.
  la::Vector expand(const la::Vector& coeffs) const;

  /// Marginal standard deviation of each state element:
  /// sqrt(diag(E Λ Eᵀ)).
  la::Vector marginal_stddev() const;

  /// Draw a random state-space sample with covariance E Λ Eᵀ.
  la::Vector sample(Rng& rng) const;

 private:
  std::shared_ptr<const la::Matrix> modes_;  // m × k, orthonormal columns
  la::Vector sigmas_;  // k, descending
};

/// Weighted subspace similarity coefficient ρ ∈ [0, 1] following
/// Lermusiaux & Robinson (1999): 1 when the subspaces coincide mode-for-
/// mode with identical spectra, → 0 for orthogonal subspaces.
///
///   ρ(A,B) = Σ_{ij} λᴬᵢ λᴮⱼ (eᴬᵢ·eᴮⱼ)² / sqrt(Σ λᴬ² · Σ λᴮ²),
///
/// with λ = σ². Both subspaces must share the state dimension.
double subspace_similarity(const ErrorSubspace& a, const ErrorSubspace& b);

}  // namespace essex::esse
