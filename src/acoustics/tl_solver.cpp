#include "acoustics/tl_solver.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "acoustics/sound_speed.hpp"
#include "common/error.hpp"

namespace essex::acoustics {

double TLField::at(std::size_t ir, std::size_t iz) const {
  ESSEX_ASSERT(ir < geometry.n_range && iz < geometry.n_depth,
               "TL index out of range");
  return tl[ir * geometry.n_depth + iz];
}

Field2D TLField::to_field() const {
  Field2D f;
  f.nx = geometry.n_range;
  f.ny = geometry.n_depth;
  f.values.resize(f.nx * f.ny);
  f.x0 = 0;
  f.x1 = geometry.length_km();
  f.y0 = 0;
  f.y1 = geometry.max_depth_m;
  // Field2D is (ix, iy)-indexed row-major with iy rows; transpose from
  // our (ir, iz) layout.
  for (std::size_t ir = 0; ir < f.nx; ++ir)
    for (std::size_t iz = 0; iz < f.ny; ++iz)
      f.values[iz * f.nx + ir] = tl[ir * geometry.n_depth + iz];
  return f;
}

namespace {

/// The range half of the bilinear sound-speed interpolation at one march
/// position, shared by the step's three depth samples.
struct RangeSample {
  std::size_t ir0, ir1;
  double ar;
};

RangeSample range_sample(const SliceGeometry& g, double dr, double range_m) {
  const double fr = std::clamp(range_m / dr, 0.0,
                               static_cast<double>(g.n_range - 1));
  const auto ir0 = static_cast<std::size_t>(fr);
  return {ir0, std::min(ir0 + 1, g.n_range - 1),
          fr - static_cast<double>(ir0)};
}

/// Bilinear sound speed at (rs, depth_m). Same expression order as a
/// single-point interpolation, so sharing `rs` changes no bit. `inline`
/// because GCC otherwise leaves the step's three calls out of line.
inline double c_at(const SoundSpeedSlice& s, const RangeSample& rs,
                   double dz, double depth_m) {
  const SliceGeometry& g = s.geometry;
  const double fz = std::clamp(depth_m / dz, 0.0,
                               static_cast<double>(g.n_depth - 1));
  const auto iz0 = static_cast<std::size_t>(fz);
  const std::size_t iz1 = std::min(iz0 + 1, g.n_depth - 1);
  const double ar = rs.ar;
  const double az = fz - static_cast<double>(iz0);
  return s.at(rs.ir0, iz0) * (1 - ar) * (1 - az) +
         s.at(rs.ir1, iz0) * ar * (1 - az) +
         s.at(rs.ir0, iz1) * (1 - ar) * az + s.at(rs.ir1, iz1) * ar * az;
}

}  // namespace

TLField compute_tl(const SoundSpeedSlice& slice, const TLParams& params) {
  const SliceGeometry& g = slice.geometry;
  ESSEX_REQUIRE(params.n_rays >= 3, "need at least 3 rays");
  ESSEX_REQUIRE(params.source_depth_m >= 0 &&
                    params.source_depth_m <= g.max_depth_m,
                "source depth outside the slice");
  ESSEX_REQUIRE(params.frequency_khz > 0, "frequency must be positive");
  // Each check is written so that NaN fails it too. A zero beam width
  // would deposit no intensity anywhere and leave max_tl_db in every cell.
  ESSEX_REQUIRE(std::isfinite(params.beam_width_m) && params.beam_width_m > 0,
                "TLParams::beam_width_m must be finite and positive");
  ESSEX_REQUIRE(params.max_angle_deg > 0 && params.max_angle_deg < 90,
                "TLParams::max_angle_deg must lie in (0, 90)");
  ESSEX_REQUIRE(std::isfinite(params.max_tl_db) && params.max_tl_db > 0,
                "TLParams::max_tl_db must be finite and positive");
  ESSEX_REQUIRE(std::isfinite(params.bottom_loss_db) &&
                    params.bottom_loss_db >= 0,
                "TLParams::bottom_loss_db must be finite and non-negative");
  ESSEX_REQUIRE(std::isfinite(params.surface_loss_db) &&
                    params.surface_loss_db >= 0,
                "TLParams::surface_loss_db must be finite and non-negative");
  // A NaN or zero sound speed would march a ray to a NaN range.
  ESSEX_REQUIRE(std::all_of(slice.c.begin(), slice.c.end(),
                            [](double c) { return std::isfinite(c) && c > 0; }),
                "slice sound speeds must be finite and positive");

  const double dr = g.range_step_m();
  const double dz = g.depth_step_m();
  const double half_dz = 0.5 * dz;
  const double max_range = g.length_km() * 1000.0;
  const double alpha_db_per_m =
      thorp_attenuation_db_per_km(params.frequency_khz) / 1000.0;
  const auto n_depth = static_cast<long>(g.n_depth);

  // Intensity accumulation grid (linear power units relative to 1 m).
  std::vector<double> intensity(g.n_range * g.n_depth, 0.0);

  const double a0 = params.max_angle_deg * std::numbers::pi / 180.0;
  // Per-ray solid-angle weight: fan of n_rays over 2*a0.
  const double ray_weight = 2.0 * a0 / static_cast<double>(params.n_rays);

  const double march = 0.5 * std::min(dr, dz);  // ray marching step (m)

  // Gaussian vertical beam: width and half-extent in cells.
  const double w2 = params.beam_width_m * params.beam_width_m;
  const double two_w2 = 2.0 * w2;
  const long spread =
      std::max(1L, std::lround(2.0 * params.beam_width_m / dz));

  for (std::size_t k = 0; k < params.n_rays; ++k) {
    double theta = -a0 + 2.0 * a0 * static_cast<double>(k) /
                             static_cast<double>(params.n_rays - 1);
    // Carried from each position update into the next Snell update; a
    // reflection negates theta, and cos(-x) == cos(x) bit for bit.
    double cos_theta = std::cos(theta);
    double r = 0.0;
    double z = params.source_depth_m;
    double loss_db = 0.0;  // accumulated boundary + absorption loss

    while (r < max_range && loss_db < params.max_tl_db) {
      // Snell ray marching: dθ/ds = -(cosθ/c)·∂c/∂z (downward z), with
      // ∂c/∂z a centred difference over one cell, clipped to the slice.
      const RangeSample rs = range_sample(g, dr, r);
      const double c = c_at(slice, rs, dz, z);
      const double zm = std::max(z - half_dz, 0.0);
      const double zp = std::min(z + half_dz, g.max_depth_m);
      const double grad =
          zp <= zm ? 0.0
                   : (c_at(slice, rs, dz, zp) - c_at(slice, rs, dz, zm)) /
                         (zp - zm);
      theta += -(cos_theta / c) * grad * march;
      // Keep the ray marching forward.
      theta = std::clamp(theta, -1.2, 1.2);
      cos_theta = std::cos(theta);
      r += cos_theta * march;
      z += std::sin(theta) * march;

      // Boundary reflections.
      if (z < 0.0) {
        z = -z;
        theta = -theta;
        loss_db += params.surface_loss_db;
      } else if (z > g.max_depth_m) {
        z = 2.0 * g.max_depth_m - z;
        theta = -theta;
        loss_db += params.bottom_loss_db;
      }
      loss_db += alpha_db_per_m * march;

      // Deposit intensity: cylindrical spreading 1/r with a Gaussian
      // vertical beam profile, over the beam's cells inside the slice.
      if (r < march) continue;
      const auto ir = static_cast<std::size_t>(
          std::clamp(r / dr, 0.0, static_cast<double>(g.n_range - 1)));
      const double amp = std::pow(10.0, -loss_db / 10.0) / r * ray_weight;
      const long izc = std::lround(z / dz);
      const long iz_lo = std::max(izc - spread, 0L);
      const long iz_hi = std::min(izc + spread, n_depth - 1);
      double* column = intensity.data() + ir * g.n_depth;
      for (long izl = iz_lo; izl <= iz_hi; ++izl) {
        const double zc = static_cast<double>(izl) * dz;
        const double dist = zc - z;
        const double wgt = std::exp(-dist * dist / two_w2);
        column[izl] += amp * wgt;
      }
    }
  }

  // Normalise deposition so a cell crossed by the full fan at range r has
  // intensity ≈ 1/r: divide by the Gaussian mass per cell column.
  const double gauss_mass =
      params.beam_width_m * std::sqrt(2.0 * std::numbers::pi) / dz;

  TLField out;
  out.geometry = g;
  out.tl.resize(intensity.size());
  for (std::size_t i = 0; i < intensity.size(); ++i) {
    const double inorm = intensity[i] / (gauss_mass * 2.0 * a0);
    out.tl[i] = (inorm > 0)
                    ? std::min(-10.0 * std::log10(inorm), params.max_tl_db)
                    : params.max_tl_db;
  }
  return out;
}

TLField compute_broadband_tl(const SoundSpeedSlice& slice,
                             const TLParams& params,
                             const std::vector<double>& frequencies_khz) {
  ESSEX_REQUIRE(!frequencies_khz.empty(),
                "broadband TL needs at least one frequency");
  std::vector<double> mean_intensity;
  TLField first;
  for (std::size_t f = 0; f < frequencies_khz.size(); ++f) {
    TLParams p = params;
    p.frequency_khz = frequencies_khz[f];
    TLField tl = compute_tl(slice, p);
    if (f == 0) {
      first = tl;
      mean_intensity.assign(tl.tl.size(), 0.0);
    }
    for (std::size_t i = 0; i < tl.tl.size(); ++i)
      mean_intensity[i] += std::pow(10.0, -tl.tl[i] / 10.0);
  }
  TLField out;
  out.geometry = first.geometry;
  out.tl.resize(mean_intensity.size());
  const double inv_n = 1.0 / static_cast<double>(frequencies_khz.size());
  for (std::size_t i = 0; i < mean_intensity.size(); ++i) {
    const double ii = mean_intensity[i] * inv_n;
    out.tl[i] = (ii > 0) ? std::min(-10.0 * std::log10(ii), params.max_tl_db)
                         : params.max_tl_db;
  }
  return out;
}

}  // namespace essex::acoustics
