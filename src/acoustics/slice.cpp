#include "acoustics/slice.hpp"

#include <algorithm>
#include <cmath>

#include "acoustics/sound_speed.hpp"
#include "common/error.hpp"

namespace essex::acoustics {

double SliceGeometry::length_km() const {
  const double dx = x1_km - x0_km;
  const double dy = y1_km - y0_km;
  return std::sqrt(dx * dx + dy * dy);
}

double SliceGeometry::range_step_m() const {
  return length_km() * 1000.0 / static_cast<double>(n_range - 1);
}

double SliceGeometry::depth_step_m() const {
  return max_depth_m / static_cast<double>(n_depth - 1);
}

double SoundSpeedSlice::temperature_at(std::size_t ir, std::size_t iz) const {
  ESSEX_ASSERT(ir < geometry.n_range && iz < geometry.n_depth,
               "slice index out of range");
  return t[ir * geometry.n_depth + iz];
}

double SoundSpeedSlice::dcdz(std::size_t ir, std::size_t iz) const {
  const std::size_t nz = geometry.n_depth;
  const double dz = geometry.depth_step_m();
  if (iz == 0) return (at(ir, 1) - at(ir, 0)) / dz;
  if (iz + 1 >= nz) return (at(ir, nz - 1) - at(ir, nz - 2)) / dz;
  return (at(ir, iz + 1) - at(ir, iz - 1)) / (2.0 * dz);
}

namespace {

/// Bilinear horizontal + linear vertical sample of a 3-D field.
double sample_field(const ocean::Grid3D& grid, const std::vector<double>& f,
                    double x_km, double y_km, double depth_m) {
  const double fx = std::clamp(x_km / grid.dx_km(), 0.0,
                               static_cast<double>(grid.nx() - 1));
  const double fy = std::clamp(y_km / grid.dy_km(), 0.0,
                               static_cast<double>(grid.ny() - 1));
  const auto ix0 = static_cast<std::size_t>(fx);
  const auto iy0 = static_cast<std::size_t>(fy);
  const std::size_t ix1 = std::min(ix0 + 1, grid.nx() - 1);
  const std::size_t iy1 = std::min(iy0 + 1, grid.ny() - 1);
  const double ax = fx - static_cast<double>(ix0);
  const double ay = fy - static_cast<double>(iy0);

  const auto& depths = grid.depths();
  std::size_t iz0 = 0;
  while (iz0 + 1 < depths.size() && depths[iz0 + 1] <= depth_m) ++iz0;
  const std::size_t iz1 = std::min(iz0 + 1, depths.size() - 1);
  double az = 0.0;
  if (iz1 > iz0) {
    az = std::clamp((depth_m - depths[iz0]) / (depths[iz1] - depths[iz0]),
                    0.0, 1.0);
  }

  auto level = [&](std::size_t iz) {
    double s = 0.0, w = 0.0;
    auto corner = [&](std::size_t jx, std::size_t jy, double wt) {
      if (!grid.is_water(jx, jy) || wt <= 0.0) return;
      s += wt * f[grid.index(jx, jy, iz)];
      w += wt;
    };
    corner(ix0, iy0, (1 - ax) * (1 - ay));
    corner(ix1, iy0, ax * (1 - ay));
    corner(ix0, iy1, (1 - ax) * ay);
    corner(ix1, iy1, ax * ay);
    if (w <= 0.0) {
      // Entirely on land: fall back to the nearest water value at this
      // level by scanning outward along x (slices should avoid land, but
      // never produce NaNs if they clip a headland).
      for (std::size_t d = 1; d < grid.nx(); ++d) {
        if (ix0 >= d && grid.is_water(ix0 - d, iy0))
          return f[grid.index(ix0 - d, iy0, iz)];
        if (ix0 + d < grid.nx() && grid.is_water(ix0 + d, iy0))
          return f[grid.index(ix0 + d, iy0, iz)];
      }
      return 0.0;
    }
    return s / w;
  };

  const double v0 = level(iz0);
  if (iz1 == iz0) return v0;
  const double v1 = level(iz1);
  return v0 * (1 - az) + v1 * az;
}

}  // namespace

SoundSpeedSlice extract_slice(const ocean::Grid3D& grid,
                              const ocean::OceanState& state,
                              const SliceGeometry& geom) {
  ESSEX_REQUIRE(geom.n_range >= 2 && geom.n_depth >= 2,
                "slice needs at least 2x2 points");
  ESSEX_REQUIRE(geom.length_km() > 0, "slice endpoints coincide");
  SoundSpeedSlice out;
  out.geometry = geom;
  out.c.resize(geom.n_range * geom.n_depth);
  out.t.resize(geom.n_range * geom.n_depth);
  for (std::size_t ir = 0; ir < geom.n_range; ++ir) {
    const double s = static_cast<double>(ir) /
                     static_cast<double>(geom.n_range - 1);
    const double x = geom.x0_km + s * (geom.x1_km - geom.x0_km);
    const double y = geom.y0_km + s * (geom.y1_km - geom.y0_km);
    for (std::size_t iz = 0; iz < geom.n_depth; ++iz) {
      const double depth = geom.max_depth_m * static_cast<double>(iz) /
                           static_cast<double>(geom.n_depth - 1);
      const double t = sample_field(grid, state.temperature, x, y, depth);
      const double sal = sample_field(grid, state.salinity, x, y, depth);
      out.t[ir * geom.n_depth + iz] = t;
      out.c[ir * geom.n_depth + iz] = mackenzie_sound_speed(t, sal, depth);
    }
  }
  return out;
}

}  // namespace essex::acoustics
