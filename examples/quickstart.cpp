// ESSEX quickstart: one ESSE assimilation cycle on an idealised
// double-gyre box.
//
//   1. build a scenario (grid + initial state + model),
//   2. bootstrap an initial error subspace from a stochastic ensemble,
//   3. run the ensemble uncertainty forecast (Fig. 2 of the paper) on
//      the Fig.-4 runner,
//   4. assimilate synthetic CTD data from an identical-twin "truth",
//   5. print the innovation and error-variance reduction.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "common/rng.hpp"
#include "esse/cycle.hpp"
#include "linalg/stats.hpp"
#include "obs/instruments.hpp"
#include "ocean/monterey.hpp"
#include "workflow/parallel_runner.hpp"

int main() {
  using namespace essex;

  // 1. An idealised double-gyre domain, 24×20×4 grid points.
  ocean::Scenario sc = ocean::make_double_gyre_scenario(24, 20, 4);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  std::printf("domain: %zux%zux%zu grid, %zu state variables\n",
              sc.grid.nx(), sc.grid.ny(), sc.grid.nz(),
              ocean::OceanState::packed_size(sc.grid));

  // 2. Initial error subspace from a 16-member stochastic spin-up,
  // inflated to represent a realistic initial-condition error (much
  // larger than a day of model noise alone).
  esse::ErrorSubspace raw = esse::bootstrap_subspace(
      model, sc.initial, /*t0=*/0.0, /*spinup_hours=*/12.0,
      /*n_samples=*/16, /*variance_fraction=*/0.99, /*max_rank=*/12,
      /*seed=*/42);
  la::Vector inflated = raw.sigmas();
  for (auto& sig : inflated) sig *= 5.0;
  esse::ErrorSubspace subspace(raw.modes(), inflated);
  std::printf("bootstrap subspace: rank %zu, total variance %.4g\n",
              subspace.rank(), subspace.total_variance());

  // A synthetic "truth" the forecaster never sees (identical twin): the
  // central state displaced by a draw from the claimed initial
  // uncertainty, then evolved with its own model noise.
  ocean::OceanState truth = sc.initial;
  {
    Rng draw_rng(777, 3);
    la::Vector x_truth = sc.initial.pack();
    la::Vector displacement = subspace.sample(draw_rng);
    for (std::size_t i = 0; i < x_truth.size(); ++i)
      x_truth[i] += displacement[i];
    truth.unpack(x_truth, sc.grid);
  }
  Rng truth_rng(777, 1);
  model.run(truth, 0.0, 24.0, &truth_rng);

  // Synthetic CTD casts sampling that truth.
  Rng obs_rng(7);
  obs::ObservationSet casts;
  for (double frac : {0.25, 0.5, 0.75}) {
    auto cast = obs::ctd_cast(
        sc.grid, truth, frac * sc.grid.dx_km() * (sc.grid.nx() - 1),
        0.5 * sc.grid.dy_km() * (sc.grid.ny() - 1), 0.05, 0.02, obs_rng);
    casts.insert(casts.end(), cast.begin(), cast.end());
  }
  obs::ObsOperator h(sc.grid, casts);
  std::printf("observations: %zu CTD samples\n", h.count());

  // 3+4. ESSE cycle: adaptive ensemble forecast, then the subspace
  // Kalman update.
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 24.0;
  cfg.cycle.ensemble = {16, 2.0, 64};
  cfg.cycle.convergence = {0.97, 12};
  cfg.cycle.max_rank = 16;
  cfg.svd_min_new_members = 8;

  const workflow::CycleOutcome res = workflow::run_assimilation_cycle(
      workflow::ForecastRequest{model, sc.initial, subspace, 0.0, cfg},
      esse::ObsSet::from_operator(h));

  // 5. Report.
  std::printf("\nensemble: %zu members run, converged: %s\n",
              res.forecast.members_run,
              res.forecast.converged ? "yes" : "no");
  for (const auto& s : res.forecast.convergence_history) {
    std::printf("  similarity at N=%-4zu rho = %.4f\n", s.n_members,
                s.similarity);
  }
  std::printf("\nassimilation:\n");
  std::printf("  innovation rms   %.4f -> %.4f\n",
              res.analysis.prior_innovation_rms,
              res.analysis.posterior_innovation_rms);
  std::printf("  error variance   %.4g -> %.4g\n",
              res.analysis.prior_trace, res.analysis.posterior_trace);
  const la::Vector truth_vec = truth.pack();
  std::printf("  state rms error  %.4f -> %.4f (vs hidden truth)\n",
              la::rms_diff(res.forecast.central_forecast, truth_vec),
              la::rms_diff(res.analysis.posterior_state, truth_vec));
  return 0;
}
