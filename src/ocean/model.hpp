// ESSEX: primitive-equation surrogate ocean model.
//
// Stand-in for the HOPS PE model that ESSE wraps (DESIGN.md §2). ESSE
// only requires a nonlinear stochastic propagator dx = M(x,t)dt + dη
// (paper Eq. B1a); this surrogate supplies one with the mesoscale
// phenomenology that matters for Monterey Bay uncertainty maps:
//
//   * geostrophic currents diagnosed from SSH,
//   * wind-driven Ekman surface flow and coastal upwelling (equatorward
//     wind lifts cold water along the eastern/land boundary),
//   * upwind advection + Laplacian diffusion of T and S,
//   * SSH evolution with wind-stress curl input and damping,
//   * open-boundary relaxation toward climatology,
//   * spatially-correlated stochastic forcing (the Wiener increment dη),
//     surface-intensified for T and barotropic for SSH.
//
// A deterministic run (noise disabled) is the paper's "central forecast".
#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "ocean/forcing.hpp"
#include "ocean/grid.hpp"
#include "ocean/state.hpp"

namespace essex::ocean {

/// Tunable physics of the PE surrogate.
struct ModelParams {
  double coriolis_f = 8.7e-5;       ///< s⁻¹ (≈36.6°N)
  double gravity = 9.81;            ///< m/s²
  double rho0 = 1025.0;             ///< kg/m³ reference density
  double mixed_layer_m = 25.0;      ///< Ekman layer depth
  double kappa_h = 50.0;            ///< m²/s horizontal diffusivity
  double kappa_v = 1e-4;            ///< m²/s vertical diffusivity
  double ssh_damping = 2e-6;        ///< s⁻¹ linear SSH damping
  double coastal_setdown_m = 2.5;   ///< m of SSH setdown per N/m² stress
  double coastal_adjust_rate = 2e-5;  ///< s⁻¹ approach to the setdown
  double upwelling_efficiency = 1.5e-3;  ///< m/s upwelling per N/m² stress
  double boundary_relax_rate = 5e-5;     ///< s⁻¹ at the open boundary
  std::size_t boundary_width = 3;        ///< relaxation sponge width (cells)
  double geostrophic_cap = 0.8;     ///< m/s cap on diagnosed currents
  // Stochastic forcing (per sqrt(hour) amplitudes of dη).
  double noise_temp = 0.02;         ///< °C /√h, surface level
  double noise_ssh = 0.0008;        ///< m /√h
  std::size_t noise_smooth_passes = 4;  ///< spatial correlation passes
};

/// The surrogate model. Holds the grid, parameters, wind forcing and the
/// climatology used for open-boundary relaxation. Stateless across calls
/// except for those immutables, so one instance can be shared by
/// concurrent ensemble members (each supplies its own state and RNG).
class OceanModel {
 public:
  /// `climatology` is copied and used as the boundary-relaxation target.
  OceanModel(const Grid3D& grid, const ModelParams& params,
             const WindForcing& forcing, const OceanState& climatology);

  /// Advance `state` by `dt_hours` starting at simulation time `t_hours`.
  /// If `rng` is provided, one Wiener increment of stochastic forcing is
  /// applied (scaled by sqrt(dt)); without it the step is deterministic.
  /// dt must not exceed max_stable_dt_hours().
  void step(OceanState& state, double t_hours, double dt_hours,
            Rng* rng = nullptr) const;

  /// Integrate from `t0_hours` for `duration_hours`, sub-stepping at (at
  /// most) max_stable_dt_hours(). Returns the number of steps taken.
  std::size_t run(OceanState& state, double t0_hours, double duration_hours,
                  Rng* rng = nullptr) const;

  /// Largest stable step for the advective CFL given the velocity cap.
  double max_stable_dt_hours() const;

  const Grid3D& grid() const { return grid_; }
  const ModelParams& params() const { return params_; }
  const WindForcing& forcing() const { return forcing_; }
  const OceanState& climatology() const { return climatology_; }

  /// Diagnose surface currents (geostrophic + Ekman) from a state at time
  /// t; exposed for tests and the acoustics slice extraction.
  void diagnose_currents(OceanState& state, double t_hours) const;

 private:
  /// A span [x_lo, x_hi) of one grid row whose cells and their four
  /// horizontal neighbours are all in range and water: the stencils there
  /// need no bounds or land checks (DESIGN.md §17).
  struct InteriorRun {
    std::size_t x_lo, x_hi;
  };
  /// Step buffers owned by one run()/step() call (defined in model.cpp).
  struct Scratch;

  /// One step. `currents_fresh` skips the leading diagnose_currents when
  /// the state's currents were already diagnosed at `t_hours`.
  void advance(OceanState& state, double t_hours, double dt_hours, Rng* rng,
               Scratch& scratch, bool currents_fresh) const;
  void apply_stochastic_forcing(OceanState& state, double dt_hours, Rng& rng,
                                Scratch& scratch) const;
  void relax_boundaries(OceanState& state, double dt_seconds) const;

  /// Interior runs of row iy: runs_[row_runs_[iy] .. row_runs_[iy + 1]).
  const InteriorRun* row_begin(std::size_t iy) const {
    return runs_.data() + row_runs_[iy];
  }
  const InteriorRun* row_end(std::size_t iy) const {
    return runs_.data() + row_runs_[iy + 1];
  }

  Grid3D grid_;
  ModelParams params_;
  WindForcing forcing_;
  OceanState climatology_;
  std::vector<InteriorRun> runs_;      ///< every row's runs, row by row
  std::vector<std::size_t> row_runs_;  ///< ny + 1 offsets into runs_
};

}  // namespace essex::ocean
