#include "testkit/reference_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace essex::testkit {

using ocean::Grid3D;
using ocean::ModelParams;
using ocean::OceanModel;
using ocean::OceanState;
using ocean::WindStress;

namespace {

void diagnose_currents(const OceanModel& model, OceanState& state,
                       double t_hours) {
  const Grid3D& g = model.grid();
  const ModelParams& prm = model.params();
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const double dx_m = g.dx_km() * 1000.0;
  const double dy_m = g.dy_km() * 1000.0;
  const double gf = prm.gravity / prm.coriolis_f;
  const WindStress tau = model.forcing().at(t_hours);
  // Ekman surface velocity (rotated 90° right of the wind in the northern
  // hemisphere), decaying with depth over the mixed layer.
  const double ek_scale =
      1.0 / (prm.rho0 * prm.coriolis_f * prm.mixed_layer_m);
  const double ue = tau.tau_y * ek_scale;   // 90° to the right
  const double ve = -tau.tau_x * ek_scale;

  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double depth = g.depths()[iz];
    const double ek_decay = std::exp(-depth / prm.mixed_layer_m);
    // Geostrophic shear decays with depth too (1.5-layer reduced gravity).
    const double geo_decay = std::exp(-depth / 150.0);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t id = g.index(ix, iy, iz);
        if (!g.is_water(ix, iy)) {
          state.u[id] = 0.0;
          state.v[id] = 0.0;
          continue;
        }
        // Centred SSH gradients with one-sided fallback at edges/land.
        auto ssh_at = [&](std::size_t jx, std::size_t jy) {
          if (!g.is_water(jx, jy)) return state.ssh[g.hindex(ix, iy)];
          return state.ssh[g.hindex(jx, jy)];
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
        const double cap = prm.geostrophic_cap;
        state.u[id] = std::clamp(ug, -cap, cap);
        state.v[id] = std::clamp(vg, -cap, cap);
      }
    }
  }
}

// One Jacobi smoothing pass over a horizontal field (water points only).
void smooth_pass(const Grid3D& g, std::vector<double>& f) {
  std::vector<double> out = f;
  for (std::size_t iy = 0; iy < g.ny(); ++iy) {
    for (std::size_t ix = 0; ix < g.nx(); ++ix) {
      if (!g.is_water(ix, iy)) continue;
      double sum = f[g.hindex(ix, iy)];
      double w = 1.0;
      auto acc = [&](std::size_t jx, std::size_t jy) {
        if (g.is_water(jx, jy)) {
          sum += f[g.hindex(jx, jy)];
          w += 1.0;
        }
      };
      if (ix > 0) acc(ix - 1, iy);
      if (ix + 1 < g.nx()) acc(ix + 1, iy);
      if (iy > 0) acc(ix, iy - 1);
      if (iy + 1 < g.ny()) acc(ix, iy + 1);
      out[g.hindex(ix, iy)] = sum / w;
    }
  }
  f.swap(out);
}

void apply_stochastic_forcing(const OceanModel& model, OceanState& state,
                              double dt_hours, Rng& rng) {
  const Grid3D& g = model.grid();
  const ModelParams& prm = model.params();
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const double sqrt_dt = std::sqrt(dt_hours);

  // Spatially-correlated horizontal noise pattern shared by T and SSH,
  // produced by smoothing white noise. Smoothing shrinks the variance, so
  // re-normalise to unit RMS afterwards.
  std::vector<double> pattern(g.horizontal_points());
  for (auto& x : pattern) x = rng.normal();
  for (std::size_t p = 0; p < prm.noise_smooth_passes; ++p)
    smooth_pass(g, pattern);
  double rms = 0.0;
  for (double x : pattern) rms += x * x;
  rms = std::sqrt(rms / static_cast<double>(pattern.size()));
  if (rms > 0) {
    for (auto& x : pattern) x /= rms;
  }

  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double depth = g.depths()[iz];
    const double decay = std::exp(-depth / 100.0);  // surface intensified
    const double amp = prm.noise_temp * sqrt_dt * decay;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        if (!g.is_water(ix, iy)) continue;
        state.temperature[g.index(ix, iy, iz)] +=
            amp * pattern[g.hindex(ix, iy)];
      }
    }
  }
  const double amp_ssh = prm.noise_ssh * sqrt_dt;
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix)
      if (g.is_water(ix, iy))
        state.ssh[g.hindex(ix, iy)] += amp_ssh * pattern[g.hindex(ix, iy)];
}

void relax_boundaries(const OceanModel& model, OceanState& state,
                      double dt_seconds) {
  const Grid3D& g = model.grid();
  const ModelParams& prm = model.params();
  const OceanState& clim = model.climatology();
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const std::size_t w = prm.boundary_width;
  const std::size_t far = nx + ny;  // "no open edge this way"
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      if (!g.is_water(ix, iy)) continue;
      // Distance (in cells) to the nearest OPEN edge: an edge cell that
      // is itself water. A coastline edge (land, e.g. the Californian
      // coast on the east) is not an open boundary and gets no sponge.
      const std::size_t d_w = g.is_water(0, iy) ? ix : far;
      const std::size_t d_e = g.is_water(nx - 1, iy) ? nx - 1 - ix : far;
      const std::size_t d_s = g.is_water(ix, 0) ? iy : far;
      const std::size_t d_n = g.is_water(ix, ny - 1) ? ny - 1 - iy : far;
      const std::size_t d = std::min(std::min(d_w, d_e), std::min(d_s, d_n));
      if (d >= w) continue;
      const double strength = prm.boundary_relax_rate * dt_seconds *
                              (1.0 - static_cast<double>(d) /
                                         static_cast<double>(w));
      const double a = std::clamp(strength, 0.0, 1.0);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const std::size_t id = g.index(ix, iy, iz);
        state.temperature[id] +=
            a * (clim.temperature[id] - state.temperature[id]);
        state.salinity[id] +=
            a * (clim.salinity[id] - state.salinity[id]);
      }
      const std::size_t hid = g.hindex(ix, iy);
      state.ssh[hid] += a * (clim.ssh[hid] - state.ssh[hid]);
    }
  }
}

}  // namespace

void reference_ocean_step(const OceanModel& model, OceanState& state,
                          double t_hours, double dt_hours, Rng* rng) {
  const Grid3D& g = model.grid();
  const ModelParams& prm = model.params();
  ESSEX_REQUIRE(dt_hours > 0, "step requires a positive dt");
  ESSEX_REQUIRE(dt_hours <= model.max_stable_dt_hours() * (1.0 + 1e-9),
                "step dt exceeds the stable limit");
  ESSEX_REQUIRE(state.temperature.size() == g.points(),
                "state does not match the model grid");

  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const double dt = dt_hours * 3600.0;  // seconds
  const double dx_m = g.dx_km() * 1000.0;
  const double dy_m = g.dy_km() * 1000.0;

  diagnose_currents(model, state, t_hours);

  const WindStress tau = model.forcing().at(t_hours);

  // --- tracer advection-diffusion (upwind + Laplacian), level by level ---
  std::vector<double> newT = state.temperature;
  std::vector<double> newS = state.salinity;
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        if (!g.is_water(ix, iy)) continue;
        const std::size_t id = g.index(ix, iy, iz);
        const double uu = state.u[id];
        const double vv = state.v[id];

        auto tracer_step = [&](const std::vector<double>& f,
                               std::vector<double>& out) {
          const double fc = f[id];
          auto fat = [&](std::size_t jx, std::size_t jy) {
            if (jx >= nx || jy >= ny || !g.is_water(jx, jy)) return fc;
            return f[g.index(jx, jy, iz)];
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
              (fat(ix + 1, iy) - 2 * fc + fat(ix - 1, iy)) / (dx_m * dx_m) +
              (fat(ix, iy + 1) - 2 * fc + fat(ix, iy - 1)) / (dy_m * dy_m);
          // Vertical diffusion.
          double vdiff = 0.0;
          if (nz > 1) {
            const double fz_up =
                (iz > 0) ? f[g.index(ix, iy, iz - 1)] : fc;
            const double fz_dn =
                (iz + 1 < nz) ? f[g.index(ix, iy, iz + 1)] : fc;
            const double dz_up =
                (iz > 0) ? g.depths()[iz] - g.depths()[iz - 1] : 1.0;
            const double dz_dn = (iz + 1 < nz)
                                     ? g.depths()[iz + 1] -
                                           g.depths()[iz]
                                     : 1.0;
            vdiff = prm.kappa_v *
                    ((fz_dn - fc) / (dz_dn * dz_dn) -
                     (fc - fz_up) / (dz_up * dz_up));
          }
          out[id] = fc + dt * (-adv + prm.kappa_h * lap + vdiff);
        };
        tracer_step(state.temperature, newT);
        tracer_step(state.salinity, newS);
      }
    }
  }

  // --- coastal upwelling: equatorward wind lifts deep water along the
  // eastern/land boundary (cold, salty water entrained upward) ---
  const double equatorward = std::max(-tau.tau_y, 0.0);
  if (equatorward > 0 && nz > 1) {
    const double w_up = prm.upwelling_efficiency * equatorward;  // m/s
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        if (!g.is_water(ix, iy)) continue;
        // A column is "coastal" if land lies within two cells to the east.
        bool coastal = false;
        for (std::size_t k = 1; k <= 2 && !coastal; ++k) {
          if (ix + k >= nx) break;
          coastal = !g.is_water(ix + k, iy);
        }
        if (!coastal) continue;
        for (std::size_t iz = 0; iz + 1 < nz; ++iz) {
          const std::size_t id = g.index(ix, iy, iz);
          const std::size_t below = g.index(ix, iy, iz + 1);
          const double dz =
              g.depths()[iz + 1] - g.depths()[iz];
          const double frac = std::clamp(w_up * dt / dz, 0.0, 0.5);
          newT[id] += frac * (state.temperature[below] - state.temperature[id]);
          newS[id] += frac * (state.salinity[below] - state.salinity[id]);
        }
      }
    }
  }

  // --- SSH: advection by surface flow, wind-stress input, damping,
  // diffusion ---
  std::vector<double> newSsh = state.ssh;
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      if (!g.is_water(ix, iy)) continue;
      const std::size_t hid = g.hindex(ix, iy);
      const std::size_t sid = g.index(ix, iy, 0);
      const double uu = state.u[sid];
      const double vv = state.v[sid];
      const double ec = state.ssh[hid];
      auto eat = [&](std::size_t jx, std::size_t jy) {
        if (jx >= nx || jy >= ny || !g.is_water(jx, jy)) return ec;
        return state.ssh[g.hindex(jx, jy)];
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
          (eat(ix + 1, iy) - 2 * ec + eat(ix - 1, iy)) / (dx_m * dx_m) +
          (eat(ix, iy + 1) - 2 * ec + eat(ix, iy - 1)) / (dy_m * dy_m);
      // Coastal setup/setdown: equatorward wind lowers coastal SSH
      // (offshore Ekman transport). The full gravity-wave adjustment is
      // not resolved, so the response is modelled as a bounded
      // relaxation toward the post-adjustment setdown level.
      double wind_term = 0.0;
      bool coastal = (ix + 1 < nx) ? !g.is_water(ix + 1, iy) : true;
      if (coastal) {
        const double target = prm.coastal_setdown_m * tau.tau_y;
        wind_term = prm.coastal_adjust_rate * (target - ec);
      }
      newSsh[hid] = ec + dt * (-adv + prm.kappa_h * lap + wind_term -
                               prm.ssh_damping * ec);
    }
  }

  state.temperature.swap(newT);
  state.salinity.swap(newS);
  state.ssh.swap(newSsh);

  relax_boundaries(model, state, dt);

  if (rng != nullptr) apply_stochastic_forcing(model, state, dt_hours, *rng);

  // Refresh diagnosed currents so the returned state is self-consistent.
  diagnose_currents(model, state, t_hours + dt_hours);
}

std::size_t reference_ocean_run(const OceanModel& model, OceanState& state,
                                double t0_hours, double duration_hours,
                                Rng* rng) {
  ESSEX_REQUIRE(duration_hours >= 0, "run duration must be non-negative");
  const double dt_max = model.max_stable_dt_hours();
  std::size_t steps = 0;
  double t = t0_hours;
  double remaining = duration_hours;
  while (remaining > 1e-12) {
    const double dt = std::min(dt_max, remaining);
    reference_ocean_step(model, state, t, dt, rng);
    t += dt;
    remaining -= dt;
    ++steps;
  }
  return steps;
}

}  // namespace essex::testkit
