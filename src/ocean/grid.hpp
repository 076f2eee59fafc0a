// ESSEX: structured ocean grid.
//
// A regional lon/lat/z grid in the style of HOPS regional domains: uniform
// horizontal spacing in kilometres, a small set of z-levels, and a 2-D
// land/sea mask (the paper's Monterey Bay domain has the Californian coast
// on its eastern edge).
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace essex::ocean {

/// Regional structured grid. ix runs east, iy runs north, iz runs down
/// (iz = 0 is the surface level).
class Grid3D {
 public:
  /// Uniform grid: nx×ny horizontal points spaced dx/dy kilometres,
  /// `depths` z-levels in metres (ascending, depths[0] is the surface
  /// level depth, usually 0).
  Grid3D(std::size_t nx, std::size_t ny, double dx_km, double dy_km,
         std::vector<double> depths);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return depths_.size(); }

  double dx_km() const { return dx_km_; }
  double dy_km() const { return dy_km_; }
  const std::vector<double>& depths() const { return depths_; }

  /// Total horizontal points.
  std::size_t horizontal_points() const { return nx_ * ny_; }

  /// Total 3-D points.
  std::size_t points() const { return nx_ * ny_ * depths_.size(); }

  // The three accessors below sit in the header so the model's stencil
  // loops, which call them for every cell of every step, inline them.

  /// Flatten a 3-D index (row-major: iz slowest, then iy, then ix).
  std::size_t index(std::size_t ix, std::size_t iy, std::size_t iz) const {
    ESSEX_ASSERT(ix < nx_ && iy < ny_ && iz < depths_.size(),
                 "grid index out of range");
    return (iz * ny_ + iy) * nx_ + ix;
  }

  /// Flatten a horizontal index.
  std::size_t hindex(std::size_t ix, std::size_t iy) const {
    ESSEX_ASSERT(ix < nx_ && iy < ny_, "grid hindex out of range");
    return iy * nx_ + ix;
  }

  /// Land/sea mask: true = water. Defaults to all water.
  bool is_water(std::size_t ix, std::size_t iy) const {
    return water_[hindex(ix, iy)] != 0;
  }
  void set_land(std::size_t ix, std::size_t iy);

  /// Count of water columns.
  std::size_t water_columns() const;

  /// Index of the z-level closest to `depth_m`.
  std::size_t level_near_depth(double depth_m) const;

 private:
  std::size_t nx_, ny_;
  double dx_km_, dy_km_;
  std::vector<double> depths_;
  std::vector<char> water_;  // 1 = water
};

}  // namespace essex::ocean
