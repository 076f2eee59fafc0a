// AOSN-II-style Monterey Bay re-run (paper §6, Figs. 5/6).
//
// Builds the Monterey-like domain, bootstraps an error subspace ("error
// nowcast for September 3"), runs the ESSE ensemble forecast 48 h ahead
// ("forecast for September 5"), and writes the ensemble standard-
// deviation maps for sea-surface temperature and 30 m temperature — the
// repo's reproduction of Figs. 5 and 6 — as PGM images, CSV grids and
// console ASCII maps. Finally one AOSN-II-like observation campaign is
// assimilated.
//
// Build & run:  ./build/examples/monterey_bay  [out_dir]
#include <cstdio>
#include <string>

#include "common/field_io.hpp"
#include "common/rng.hpp"
#include "esse/cycle.hpp"
#include "obs/instruments.hpp"
#include "ocean/monterey.hpp"
#include "workflow/parallel_runner.hpp"

namespace {

essex::Field2D stddev_map(const essex::ocean::Grid3D& grid,
                          const essex::la::Vector& marginal_sd,
                          std::size_t level) {
  essex::Field2D f;
  f.nx = grid.nx();
  f.ny = grid.ny();
  f.values.assign(grid.horizontal_points(), 0.0);
  f.x1 = grid.dx_km() * static_cast<double>(grid.nx() - 1);
  f.y1 = grid.dy_km() * static_cast<double>(grid.ny() - 1);
  for (std::size_t iy = 0; iy < grid.ny(); ++iy)
    for (std::size_t ix = 0; ix < grid.nx(); ++ix)
      if (grid.is_water(ix, iy))
        f.values[iy * grid.nx() + ix] =
            marginal_sd[grid.index(ix, iy, level)];
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace essex;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  ocean::Scenario sc = ocean::make_monterey_scenario(48, 40, 6);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  std::printf("Monterey-like domain: %zux%zux%zu, %zu water columns\n",
              sc.grid.nx(), sc.grid.ny(), sc.grid.nz(),
              sc.grid.water_columns());

  // "Error nowcast": dominant modes of a stochastic spin-up ensemble
  // (stand-in for the Sept 3 posterior error covariance of AOSN-II).
  std::printf("bootstrapping the error nowcast...\n");
  esse::ErrorSubspace nowcast = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 24.0, 24, 0.99, 20, /*seed=*/2003);
  std::printf("  rank %zu, total variance %.4g\n", nowcast.rank(),
              nowcast.total_variance());

  // ESSE uncertainty forecast, 48 h ahead, adaptive ensemble size.
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 48.0;
  cfg.cycle.ensemble = {24, 2.0, 96};
  cfg.cycle.convergence = {0.97, 16};
  cfg.cycle.max_rank = 24;
  cfg.cycle.perturbation.white_noise = 0.01;  // truncated-tail noise (§6)
  cfg.svd_min_new_members = 8;

  std::printf("running the ensemble forecast...\n");
  const esse::ForecastResult fr = workflow::run_parallel_forecast(
      workflow::ForecastRequest{model, sc.initial, nowcast, 0.0, cfg});
  std::printf("  %zu members, converged: %s\n", fr.members_run,
              fr.converged ? "yes" : "no");

  const la::Vector sd = fr.forecast_subspace.marginal_stddev();

  // Fig. 5: SST uncertainty.
  Field2D sst_sd = stddev_map(sc.grid, sd, 0);
  write_pgm(sst_sd, out_dir + "/fig5_sst_stddev.pgm");
  write_field_csv(sst_sd, out_dir + "/fig5_sst_stddev.csv");
  std::printf("\nFig. 5 — ESSE uncertainty forecast, SST stddev (degC):\n%s",
              ascii_map(sst_sd).c_str());

  // Fig. 6: 30 m temperature uncertainty.
  const std::size_t lvl30 = sc.grid.level_near_depth(30.0);
  Field2D t30_sd = stddev_map(sc.grid, sd, lvl30);
  write_pgm(t30_sd, out_dir + "/fig6_t30m_stddev.pgm");
  write_field_csv(t30_sd, out_dir + "/fig6_t30m_stddev.csv");
  std::printf("\nFig. 6 — ESSE uncertainty forecast, %.0f m T stddev:\n%s",
              sc.grid.depths()[lvl30], ascii_map(t30_sd).c_str());

  // Assimilate an AOSN-II-like campaign sampled from a hidden truth.
  ocean::OceanState truth = sc.initial;
  Rng trng(2003, 1);
  model.run(truth, 0.0, 48.0, &trng);
  Rng obs_rng(9);
  auto campaign = obs::aosn_campaign(sc.grid, truth, obs_rng);
  obs::ObsOperator h(sc.grid, campaign);
  esse::AnalysisResult an =
      esse::analyze(fr.central_forecast, fr.forecast_subspace, h);
  std::printf("\nassimilated %zu obs (CTD+gliders+AUV+SST):\n", h.count());
  std::printf("  innovation rms %.4f -> %.4f\n", an.prior_innovation_rms,
              an.posterior_innovation_rms);
  std::printf("  error variance %.4g -> %.4g\n", an.prior_trace,
              an.posterior_trace);
  std::printf("\nwrote fig5/fig6 PGM+CSV files to %s\n", out_dir.c_str());
  return 0;
}
