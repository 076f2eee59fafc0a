#include "ocean/grid.hpp"

#include <cmath>

#include "common/error.hpp"

namespace essex::ocean {

Grid3D::Grid3D(std::size_t nx, std::size_t ny, double dx_km, double dy_km,
               std::vector<double> depths)
    : nx_(nx),
      ny_(ny),
      dx_km_(dx_km),
      dy_km_(dy_km),
      depths_(std::move(depths)),
      water_(nx * ny, 1) {
  ESSEX_REQUIRE(nx >= 3 && ny >= 3, "grid needs at least 3x3 points");
  ESSEX_REQUIRE(dx_km > 0 && dy_km > 0, "grid spacing must be positive");
  ESSEX_REQUIRE(!depths_.empty(), "grid needs at least one z-level");
  for (std::size_t k = 1; k < depths_.size(); ++k) {
    ESSEX_REQUIRE(depths_[k] > depths_[k - 1],
                  "z-levels must be strictly increasing");
  }
}

void Grid3D::set_land(std::size_t ix, std::size_t iy) {
  water_[hindex(ix, iy)] = 0;
}

std::size_t Grid3D::water_columns() const {
  std::size_t n = 0;
  for (char w : water_) n += (w != 0);
  return n;
}

std::size_t Grid3D::level_near_depth(double depth_m) const {
  std::size_t best = 0;
  double best_d = std::fabs(depths_[0] - depth_m);
  for (std::size_t k = 1; k < depths_.size(); ++k) {
    const double d = std::fabs(depths_[k] - depth_m);
    if (d < best_d) {
      best = k;
      best_d = d;
    }
  }
  return best;
}

}  // namespace essex::ocean
