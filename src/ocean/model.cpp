#include "ocean/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace essex::ocean {

namespace {

/// Visit the cells of one row in order: `fast(x_lo, x_hi)` for each
/// interior run, `general(ix)` for every cell outside the runs.
template <typename Run, typename Fast, typename General>
void walk_row(const Run* first, const Run* last, std::size_t nx, Fast&& fast,
              General&& general) {
  std::size_t ix = 0;
  for (const Run* r = first; r != last; ++r) {
    for (; ix < r->x_lo; ++ix) general(ix);
    fast(r->x_lo, r->x_hi);
    ix = r->x_hi;
  }
  for (; ix < nx; ++ix) general(ix);
}

}  // namespace

struct OceanModel::Scratch {
  std::vector<double> temperature, salinity, ssh;  ///< next-step fields
  std::vector<double> pattern, smoothed;           ///< stochastic forcing
};

OceanModel::OceanModel(const Grid3D& grid, const ModelParams& params,
                       const WindForcing& forcing,
                       const OceanState& climatology)
    : grid_(grid), params_(params), forcing_(forcing),
      climatology_(climatology) {
  ESSEX_REQUIRE(climatology.temperature.size() == grid.points(),
                "climatology does not match grid");
  ESSEX_REQUIRE(params.coriolis_f > 0, "Coriolis parameter must be > 0");
  ESSEX_REQUIRE(params.mixed_layer_m > 0, "mixed layer depth must be > 0");

  const std::size_t nx = grid_.nx(), ny = grid_.ny();
  auto interior = [&](std::size_t ix, std::size_t iy) {
    return ix >= 1 && ix + 1 < nx && iy >= 1 && iy + 1 < ny &&
           grid_.is_water(ix, iy) && grid_.is_water(ix - 1, iy) &&
           grid_.is_water(ix + 1, iy) && grid_.is_water(ix, iy - 1) &&
           grid_.is_water(ix, iy + 1);
  };
  row_runs_.assign(ny + 1, 0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx;) {
      if (!interior(ix, iy)) {
        ++ix;
        continue;
      }
      const std::size_t lo = ix;
      while (ix < nx && interior(ix, iy)) ++ix;
      runs_.push_back({lo, ix});
    }
    row_runs_[iy + 1] = runs_.size();
  }
}

double OceanModel::max_stable_dt_hours() const {
  const double dx_m = std::min(grid_.dx_km(), grid_.dy_km()) * 1000.0;
  // Advective CFL with the velocity cap, plus a diffusive limit.
  const double adv_dt = 0.4 * dx_m / std::max(params_.geostrophic_cap, 0.01);
  const double dif_dt = 0.2 * dx_m * dx_m / std::max(params_.kappa_h, 1e-6);
  return std::min(adv_dt, dif_dt) / 3600.0;
}

void OceanModel::diagnose_currents(OceanState& state, double t_hours) const {
  const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const double dx_m = grid_.dx_km() * 1000.0;
  const double dy_m = grid_.dy_km() * 1000.0;
  const double gf = params_.gravity / params_.coriolis_f;
  const WindStress tau = forcing_.at(t_hours);
  // Ekman surface velocity (rotated 90° right of the wind in the northern
  // hemisphere), decaying with depth over the mixed layer.
  const double ek_scale =
      1.0 / (params_.rho0 * params_.coriolis_f * params_.mixed_layer_m);
  const double ue = tau.tau_y * ek_scale;   // 90° to the right
  const double ve = -tau.tau_x * ek_scale;
  const double cap = params_.geostrophic_cap;
  // An interior cell's centred differences span two cells (xp - xm == 2
  // in the general path), so its denominators are these.
  const double two_dx = 2.0 * dx_m;
  const double two_dy = 2.0 * dy_m;

  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double depth = grid_.depths()[iz];
    const double ek_decay = std::exp(-depth / params_.mixed_layer_m);
    // Geostrophic shear decays with depth too (1.5-layer reduced gravity).
    const double geo_decay = std::exp(-depth / 150.0);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const std::size_t row = grid_.index(0, iy, iz);
      const std::size_t hrow = grid_.hindex(0, iy);
      auto interior = [&](std::size_t lo, std::size_t hi) {
        const double* e = state.ssh.data() + hrow;
        const double* es = e - nx;
        const double* en = e + nx;
        double* __restrict u = state.u.data() + row;
        double* __restrict v = state.v.data() + row;
        for (std::size_t ix = lo; ix < hi; ++ix) {
          const double detadx = (e[ix + 1] - e[ix - 1]) / two_dx;
          const double detady = (en[ix] - es[ix]) / two_dy;
          double ug = -gf * detady * geo_decay;
          double vg = gf * detadx * geo_decay;
          ug += ue * ek_decay;
          vg += ve * ek_decay;
          u[ix] = std::clamp(ug, -cap, cap);
          v[ix] = std::clamp(vg, -cap, cap);
        }
      };
      auto general = [&](std::size_t ix) {
        const std::size_t id = row + ix;
        if (!grid_.is_water(ix, iy)) {
          state.u[id] = 0.0;
          state.v[id] = 0.0;
          return;
        }
        // Centred SSH gradients with one-sided fallback at edges/land.
        auto ssh_at = [&](std::size_t jx, std::size_t jy) {
          if (!grid_.is_water(jx, jy)) return state.ssh[grid_.hindex(ix, iy)];
          return state.ssh[grid_.hindex(jx, jy)];
        };
        const std::size_t xm = (ix > 0) ? ix - 1 : ix;
        const std::size_t xp = (ix + 1 < nx) ? ix + 1 : ix;
        const std::size_t ym = (iy > 0) ? iy - 1 : iy;
        const std::size_t yp = (iy + 1 < ny) ? iy + 1 : iy;
        const double detadx =
            (ssh_at(xp, iy) - ssh_at(xm, iy)) /
            (static_cast<double>(xp - xm) * dx_m);
        const double detady =
            (ssh_at(ix, yp) - ssh_at(ix, ym)) /
            (static_cast<double>(yp - ym) * dy_m);
        double ug = -gf * detady * geo_decay;
        double vg = gf * detadx * geo_decay;
        ug += ue * ek_decay;
        vg += ve * ek_decay;
        state.u[id] = std::clamp(ug, -cap, cap);
        state.v[id] = std::clamp(vg, -cap, cap);
      };
      walk_row(row_begin(iy), row_end(iy), nx, interior, general);
    }
  }
}

namespace {

/// One Jacobi smoothing pass over the interior cells [lo, hi) of a
/// horizontal row, pointers at the row's first cell. All four neighbours
/// are water, so the general pass's sum runs centre, west, east, south,
/// north and its weight is 1 + 1 + 1 + 1 + 1 = 5 exactly.
void smooth_run(const double* f, double* __restrict out, std::size_t lo,
                std::size_t hi, std::size_t nx) {
  const double* fs = f - nx;
  const double* fn = f + nx;
  for (std::size_t i = lo; i < hi; ++i) {
    double sum = f[i];
    sum += f[i - 1];
    sum += f[i + 1];
    sum += fs[i];
    sum += fn[i];
    out[i] = sum / 5.0;
  }
}

/// Loop-invariant coefficients of the interior tracer stencil on one
/// level. Each product is rounded once here exactly as the general path
/// rounds it per cell, so hoisting it keeps the update bitwise.
struct TracerCoeffs {
  double dt, dx_m, dy_m, dx2, dy2, kappa_h, kappa_v;
  /// Vertical neighbour offsets; a missing neighbour (surface, bottom)
  /// is the cell itself, offset 0, like the general path's fallback.
  std::size_t up, dn;
  double dz_up2, dz_dn2;
};

/// Tracer update of the interior cells [lo, hi) of one row: `f`, `u`,
/// `v` and `out` point at the row's first cell. No bounds or land
/// checks, upwind picks as selects: the loop vectorizes. Same expression
/// order as the general path in OceanModel::advance.
template <bool kVertical>
void tracer_run(const double* f, double* __restrict out, const double* u,
                const double* v, std::size_t lo, std::size_t hi,
                std::size_t nx, const TracerCoeffs& c) {
  const double dt = c.dt, dx_m = c.dx_m, dy_m = c.dy_m;
  const double dx2 = c.dx2, dy2 = c.dy2;
  const double kappa_h = c.kappa_h, kappa_v = c.kappa_v;
  const double dz_up2 = c.dz_up2, dz_dn2 = c.dz_dn2;
  const double* fs = f - nx;
  const double* fn = f + nx;
  const double* fu = f - c.up;
  const double* fd = f + c.dn;
  for (std::size_t i = lo; i < hi; ++i) {
    const double fc = f[i];
    const double uu = u[i];
    const double vv = v[i];
    // Both one-sided differences are formed before the upwind select:
    // FP operations inside a ?: arm would keep the loop from vectorizing.
    const double dw = fc - f[i - 1], de = f[i + 1] - fc;
    const double ds = fc - fs[i], dn = fn[i] - fc;
    double adv = 0.0;
    adv += uu * (uu > 0 ? dw : de) / dx_m;
    adv += vv * (vv > 0 ? ds : dn) / dy_m;
    const double lap = (f[i + 1] - 2 * fc + f[i - 1]) / dx2 +
                       (fn[i] - 2 * fc + fs[i]) / dy2;
    double vdiff = 0.0;
    if constexpr (kVertical) {
      vdiff = kappa_v * ((fd[i] - fc) / dz_dn2 - (fc - fu[i]) / dz_up2);
    }
    out[i] = fc + dt * (-adv + kappa_h * lap + vdiff);
  }
}

/// Loop-invariant coefficients of the interior SSH stencil.
struct SshCoeffs {
  double dt, dx_m, dy_m, dx2, dy2, kappa_h, ssh_damping;
};

/// SSH update of the interior cells [lo, hi) of one row, pointers at the
/// row's first cell; the counterpart of tracer_run. An interior cell's
/// east neighbour is water, so it is never coastal: its wind term is the
/// general path's 0.0, kept in the sum so signed zeros round the same.
void ssh_run(const double* e, double* __restrict out, const double* u,
             const double* v, std::size_t lo, std::size_t hi, std::size_t nx,
             const SshCoeffs& c) {
  const double dt = c.dt, dx_m = c.dx_m, dy_m = c.dy_m;
  const double dx2 = c.dx2, dy2 = c.dy2;
  const double kappa_h = c.kappa_h, ssh_damping = c.ssh_damping;
  const double wind_term = 0.0;
  const double* es = e - nx;
  const double* en = e + nx;
  for (std::size_t i = lo; i < hi; ++i) {
    const double uu = u[i];
    const double vv = v[i];
    const double ec = e[i];
    const double dw = ec - e[i - 1], de = e[i + 1] - ec;
    const double ds = ec - es[i], dn = en[i] - ec;
    double adv = 0.0;
    adv += uu * (uu > 0 ? dw : de) / dx_m;
    adv += vv * (vv > 0 ? ds : dn) / dy_m;
    const double lap = (e[i + 1] - 2 * ec + e[i - 1]) / dx2 +
                       (en[i] - 2 * ec + es[i]) / dy2;
    out[i] = ec + dt * (-adv + kappa_h * lap + wind_term - ssh_damping * ec);
  }
}

}  // namespace

void OceanModel::apply_stochastic_forcing(OceanState& state, double dt_hours,
                                          Rng& rng, Scratch& scratch) const {
  const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const double sqrt_dt = std::sqrt(dt_hours);

  // Spatially-correlated horizontal noise pattern shared by T and SSH,
  // produced by smoothing white noise. Smoothing shrinks the variance, so
  // re-normalise to unit RMS afterwards.
  std::vector<double>& pattern = scratch.pattern;
  pattern.resize(grid_.horizontal_points());
  for (auto& x : pattern) x = rng.normal();

  // One Jacobi smoothing pass (water points only) through `out`. Land
  // cells are never written, so `out` starts as a copy of the pattern and
  // keeps its land values pass after pass.
  auto smooth_pass = [&](std::vector<double>& f, std::vector<double>& out) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const std::size_t hrow = grid_.hindex(0, iy);
      auto interior = [&](std::size_t lo, std::size_t hi) {
        smooth_run(f.data() + hrow, out.data() + hrow, lo, hi, nx);
      };
      auto general = [&](std::size_t ix) {
        if (!grid_.is_water(ix, iy)) return;
        double sum = f[hrow + ix];
        double w = 1.0;
        auto acc = [&](std::size_t jx, std::size_t jy) {
          if (grid_.is_water(jx, jy)) {
            sum += f[grid_.hindex(jx, jy)];
            w += 1.0;
          }
        };
        if (ix > 0) acc(ix - 1, iy);
        if (ix + 1 < nx) acc(ix + 1, iy);
        if (iy > 0) acc(ix, iy - 1);
        if (iy + 1 < ny) acc(ix, iy + 1);
        out[hrow + ix] = sum / w;
      };
      walk_row(row_begin(iy), row_end(iy), nx, interior, general);
    }
    f.swap(out);
  };
  scratch.smoothed = pattern;
  for (std::size_t p = 0; p < params_.noise_smooth_passes; ++p)
    smooth_pass(pattern, scratch.smoothed);
  double rms = 0.0;
  for (double x : pattern) rms += x * x;
  rms = std::sqrt(rms / static_cast<double>(pattern.size()));
  if (rms > 0) {
    for (auto& x : pattern) x /= rms;
  }

  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double depth = grid_.depths()[iz];
    const double decay = std::exp(-depth / 100.0);  // surface intensified
    const double amp = params_.noise_temp * sqrt_dt * decay;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        if (!grid_.is_water(ix, iy)) continue;
        state.temperature[grid_.index(ix, iy, iz)] +=
            amp * pattern[grid_.hindex(ix, iy)];
      }
    }
  }
  const double amp_ssh = params_.noise_ssh * sqrt_dt;
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix)
      if (grid_.is_water(ix, iy))
        state.ssh[grid_.hindex(ix, iy)] += amp_ssh * pattern[grid_.hindex(ix, iy)];
}

void OceanModel::relax_boundaries(OceanState& state, double dt_seconds) const {
  const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const std::size_t w = params_.boundary_width;
  const std::size_t far = nx + ny;  // "no open edge this way"
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      if (!grid_.is_water(ix, iy)) continue;
      // Distance (in cells) to the nearest OPEN edge: an edge cell that
      // is itself water. A coastline edge (land, e.g. the Californian
      // coast on the east) is not an open boundary and gets no sponge.
      const std::size_t d_w = grid_.is_water(0, iy) ? ix : far;
      const std::size_t d_e = grid_.is_water(nx - 1, iy) ? nx - 1 - ix : far;
      const std::size_t d_s = grid_.is_water(ix, 0) ? iy : far;
      const std::size_t d_n = grid_.is_water(ix, ny - 1) ? ny - 1 - iy : far;
      const std::size_t d = std::min(std::min(d_w, d_e), std::min(d_s, d_n));
      if (d >= w) continue;
      const double strength = params_.boundary_relax_rate * dt_seconds *
                              (1.0 - static_cast<double>(d) /
                                         static_cast<double>(w));
      const double a = std::clamp(strength, 0.0, 1.0);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const std::size_t id = grid_.index(ix, iy, iz);
        state.temperature[id] +=
            a * (climatology_.temperature[id] - state.temperature[id]);
        state.salinity[id] +=
            a * (climatology_.salinity[id] - state.salinity[id]);
      }
      const std::size_t hid = grid_.hindex(ix, iy);
      state.ssh[hid] += a * (climatology_.ssh[hid] - state.ssh[hid]);
    }
  }
}

void OceanModel::step(OceanState& state, double t_hours, double dt_hours,
                      Rng* rng) const {
  Scratch scratch;
  advance(state, t_hours, dt_hours, rng, scratch, /*currents_fresh=*/false);
}

void OceanModel::advance(OceanState& state, double t_hours, double dt_hours,
                         Rng* rng, Scratch& scratch,
                         bool currents_fresh) const {
  ESSEX_REQUIRE(dt_hours > 0, "step requires a positive dt");
  ESSEX_REQUIRE(dt_hours <= max_stable_dt_hours() * (1.0 + 1e-9),
                "step dt exceeds the stable limit");
  ESSEX_REQUIRE(state.temperature.size() == grid_.points(),
                "state does not match the model grid");

  const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const double dt = dt_hours * 3600.0;  // seconds
  const double dx_m = grid_.dx_km() * 1000.0;
  const double dy_m = grid_.dy_km() * 1000.0;
  const double dx2 = dx_m * dx_m;
  const double dy2 = dy_m * dy_m;

  if (!currents_fresh) diagnose_currents(state, t_hours);

  const WindStress tau = forcing_.at(t_hours);

  // The new fields are written into scratch and swapped in. A step never
  // writes a land cell, so after the first step the scratch fields (the
  // previous step's state) already carry the state's land values and
  // only their water cells need writing.
  if (scratch.temperature.empty()) {
    scratch.temperature = state.temperature;
    scratch.salinity = state.salinity;
    scratch.ssh = state.ssh;
  }
  std::vector<double>& newT = scratch.temperature;
  std::vector<double>& newS = scratch.salinity;
  std::vector<double>& newSsh = scratch.ssh;

  // --- tracer advection-diffusion (upwind + Laplacian), level by level ---
  const std::size_t plane = nx * ny;
  const auto run_tracer = nz > 1 ? tracer_run<true> : tracer_run<false>;
  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double dz_up =
        (iz > 0) ? grid_.depths()[iz] - grid_.depths()[iz - 1] : 1.0;
    const double dz_dn =
        (iz + 1 < nz) ? grid_.depths()[iz + 1] - grid_.depths()[iz] : 1.0;
    const TracerCoeffs coeffs{dt,
                              dx_m,
                              dy_m,
                              dx2,
                              dy2,
                              params_.kappa_h,
                              params_.kappa_v,
                              (iz > 0) ? plane : 0,
                              (iz + 1 < nz) ? plane : 0,
                              dz_up * dz_up,
                              dz_dn * dz_dn};
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const std::size_t row = grid_.index(0, iy, iz);
      auto interior = [&](std::size_t lo, std::size_t hi) {
        const double* u = state.u.data() + row;
        const double* v = state.v.data() + row;
        run_tracer(state.temperature.data() + row, newT.data() + row, u, v,
                   lo, hi, nx, coeffs);
        run_tracer(state.salinity.data() + row, newS.data() + row, u, v, lo,
                   hi, nx, coeffs);
      };
      auto general = [&](std::size_t ix) {
        if (!grid_.is_water(ix, iy)) return;
        const std::size_t id = row + ix;
        const double uu = state.u[id];
        const double vv = state.v[id];

        auto tracer_step = [&](const std::vector<double>& f,
                               std::vector<double>& out) {
          const double fc = f[id];
          auto fat = [&](std::size_t jx, std::size_t jy) {
            if (jx >= nx || jy >= ny || !grid_.is_water(jx, jy)) return fc;
            return f[grid_.index(jx, jy, iz)];
          };
          // Upwind advection.
          double adv = 0.0;
          if (uu > 0) {
            adv += uu * (fc - fat(ix - 1, iy)) / dx_m;  // ix-1 wraps to huge => fc
          } else {
            adv += uu * (fat(ix + 1, iy) - fc) / dx_m;
          }
          if (vv > 0) {
            adv += vv * (fc - fat(ix, iy - 1)) / dy_m;
          } else {
            adv += vv * (fat(ix, iy + 1) - fc) / dy_m;
          }
          // Horizontal diffusion.
          const double lap =
              (fat(ix + 1, iy) - 2 * fc + fat(ix - 1, iy)) / dx2 +
              (fat(ix, iy + 1) - 2 * fc + fat(ix, iy - 1)) / dy2;
          // Vertical diffusion.
          double vdiff = 0.0;
          if (nz > 1) {
            const double fz_up = (iz > 0) ? f[id - plane] : fc;
            const double fz_dn = (iz + 1 < nz) ? f[id + plane] : fc;
            vdiff = params_.kappa_v * ((fz_dn - fc) / coeffs.dz_dn2 -
                                       (fc - fz_up) / coeffs.dz_up2);
          }
          out[id] = fc + dt * (-adv + params_.kappa_h * lap + vdiff);
        };
        tracer_step(state.temperature, newT);
        tracer_step(state.salinity, newS);
      };
      walk_row(row_begin(iy), row_end(iy), nx, interior, general);
    }
  }

  // --- coastal upwelling: equatorward wind lifts deep water along the
  // eastern/land boundary (cold, salty water entrained upward) ---
  const double equatorward = std::max(-tau.tau_y, 0.0);
  if (equatorward > 0 && nz > 1) {
    const double w_up = params_.upwelling_efficiency * equatorward;  // m/s
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        if (!grid_.is_water(ix, iy)) continue;
        // A column is "coastal" if land lies within two cells to the east.
        bool coastal = false;
        for (std::size_t k = 1; k <= 2 && !coastal; ++k) {
          if (ix + k >= nx) break;
          coastal = !grid_.is_water(ix + k, iy);
        }
        if (!coastal) continue;
        for (std::size_t iz = 0; iz + 1 < nz; ++iz) {
          const std::size_t id = grid_.index(ix, iy, iz);
          const std::size_t below = grid_.index(ix, iy, iz + 1);
          const double dz =
              grid_.depths()[iz + 1] - grid_.depths()[iz];
          const double frac = std::clamp(w_up * dt / dz, 0.0, 0.5);
          newT[id] += frac * (state.temperature[below] - state.temperature[id]);
          newS[id] += frac * (state.salinity[below] - state.salinity[id]);
        }
      }
    }
  }

  // --- SSH: advection by surface flow, wind-stress input, damping,
  // diffusion ---
  const SshCoeffs ssh_coeffs{dt,  dx_m, dy_m, dx2, dy2, params_.kappa_h,
                             params_.ssh_damping};
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const std::size_t hrow = grid_.hindex(0, iy);
    auto interior = [&](std::size_t lo, std::size_t hi) {
      // Surface level: the row's 3-D index equals its horizontal one.
      ssh_run(state.ssh.data() + hrow, newSsh.data() + hrow,
              state.u.data() + hrow, state.v.data() + hrow, lo, hi, nx,
              ssh_coeffs);
    };
    auto general = [&](std::size_t ix) {
      if (!grid_.is_water(ix, iy)) return;
      const std::size_t hid = hrow + ix;
      const double uu = state.u[hid];  // surface level: index == hindex
      const double vv = state.v[hid];
      const double ec = state.ssh[hid];
      auto eat = [&](std::size_t jx, std::size_t jy) {
        if (jx >= nx || jy >= ny || !grid_.is_water(jx, jy)) return ec;
        return state.ssh[grid_.hindex(jx, jy)];
      };
      double adv = 0.0;
      if (uu > 0) {
        adv += uu * (ec - eat(ix - 1, iy)) / dx_m;
      } else {
        adv += uu * (eat(ix + 1, iy) - ec) / dx_m;
      }
      if (vv > 0) {
        adv += vv * (ec - eat(ix, iy - 1)) / dy_m;
      } else {
        adv += vv * (eat(ix, iy + 1) - ec) / dy_m;
      }
      const double lap =
          (eat(ix + 1, iy) - 2 * ec + eat(ix - 1, iy)) / dx2 +
          (eat(ix, iy + 1) - 2 * ec + eat(ix, iy - 1)) / dy2;
      // Coastal setup/setdown: equatorward wind lowers coastal SSH
      // (offshore Ekman transport). The full gravity-wave adjustment is
      // not resolved, so the response is modelled as a bounded
      // relaxation toward the post-adjustment setdown level.
      double wind_term = 0.0;
      bool coastal = (ix + 1 < nx) ? !grid_.is_water(ix + 1, iy) : true;
      if (coastal) {
        const double target = params_.coastal_setdown_m * tau.tau_y;
        wind_term = params_.coastal_adjust_rate * (target - ec);
      }
      newSsh[hid] = ec + dt * (-adv + params_.kappa_h * lap + wind_term -
                               params_.ssh_damping * ec);
    };
    walk_row(row_begin(iy), row_end(iy), nx, interior, general);
  }

  state.temperature.swap(newT);
  state.salinity.swap(newS);
  state.ssh.swap(newSsh);

  relax_boundaries(state, dt);

  if (rng != nullptr) apply_stochastic_forcing(state, dt_hours, *rng, scratch);

  // Refresh diagnosed currents so the returned state is self-consistent.
  diagnose_currents(state, t_hours + dt_hours);
}

std::size_t OceanModel::run(OceanState& state, double t0_hours,
                            double duration_hours, Rng* rng) const {
  ESSEX_REQUIRE(duration_hours >= 0, "run duration must be non-negative");
  const double dt_max = max_stable_dt_hours();
  // The model is shared const across member threads, so the step buffers
  // belong to this call, reused by each of its steps.
  Scratch scratch;
  std::size_t steps = 0;
  double t = t0_hours;
  double remaining = duration_hours;
  while (remaining > 1e-12) {
    const double dt = std::min(dt_max, remaining);
    // After the first step, the previous step's trailing diagnosis already
    // left the currents of this state at this t.
    advance(state, t, dt, rng, scratch, /*currents_fresh=*/steps > 0);
    t += dt;
    remaining -= dt;
    ++steps;
  }
  return steps;
}

}  // namespace essex::ocean
