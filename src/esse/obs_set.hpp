// ESSEX: the assimilation-ready observation set.
//
// The unified analyze() entry point (analysis.hpp) consumes one shape of
// observation regardless of where it came from: a sparse linear stencil
// on the packed state plus a value, a noise variance and — when known —
// a horizontal position for localization. Adapters lower both existing
// front ends onto it: obs::ObsOperator (gridded interpolation stencils,
// positioned) and the generic LinearObservation list (arbitrary joint
// states, unpositioned). Unpositioned entries are visible to every tile,
// untapered — the only defensible default when no geometry is attached.
//
// The stencil evaluation order is part of the contract: apply()/
// apply_mode() accumulate in stencil order, exactly as ObsOperator and
// the historical linear-observation loop did, so the global analysis
// path stays bitwise identical through the adapters.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/observation.hpp"

namespace essex::esse {

/// A generic linear scalar observation on an arbitrary state vector:
/// y = Σ weight·x[index] + ε with ε ~ N(0, variance). Lets callers (e.g.
/// the coupled physical–acoustical assimilation of §2.2) reuse the ESSE
/// update on joint states that are not ocean grids.
struct LinearObservation {
  std::vector<std::pair<std::size_t, double>> stencil;
  double value = 0;
  double variance = 1.0;
};

/// One observation in assimilation form.
struct ObsEntry {
  std::vector<std::pair<std::size_t, double>> stencil;
  double value = 0;
  double variance = 1.0;  ///< diagonal R entry, must be positive
  bool positioned = false;  ///< has a horizontal location for localization
  double x_km = 0;
  double y_km = 0;
};

/// The observation batch one analyze() call assimilates.
class ObsSet {
 public:
  ObsSet() = default;
  explicit ObsSet(std::vector<ObsEntry> entries)
      : entries_(std::move(entries)) {}

  /// Positioned entries from a gridded measurement operator.
  static ObsSet from_operator(const obs::ObsOperator& h);

  /// Unpositioned entries from generic linear observations.
  static ObsSet from_linear(const std::vector<LinearObservation>& obs);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const ObsEntry& entry(std::size_t i) const { return entries_[i]; }
  const std::vector<ObsEntry>& entries() const { return entries_; }

  /// H_i·x (stencil-order accumulation). Indices must be inside x.
  double apply_entry(std::size_t i, const la::Vector& x) const;

  /// H_i applied to column `col` of a matrix of packed-state rows.
  double apply_mode(std::size_t i, const la::Matrix& modes,
                    std::size_t col) const;

  /// d = yᵒ − H·x over the whole set.
  la::Vector innovations(const la::Vector& x) const;

 private:
  std::vector<ObsEntry> entries_;
};

/// The same observations in *canonical* order: a total content order
/// (stencil, then value, variance and position, compared exactly), so
/// any permutation of the same entries sorts to one sequence — entries
/// with identical content are interchangeable, so even their relative
/// order cannot change a serial sweep. This is what makes the
/// order-dependent ESRF method arrival-invariant (DESIGN.md §16): the
/// result depends on the *set*, never on how the batch was assembled.
ObsSet canonical_obs_order(const ObsSet& obs);

}  // namespace essex::esse
