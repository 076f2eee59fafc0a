// End-to-end integration tests: identical-twin assimilation on the
// Monterey-like domain, the full ESSE cycle (Fig. 2), and uncertainty
// maps feeding acoustics — the paper's whole pipeline at test scale.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "acoustics/ensemble.hpp"
#include "common/rng.hpp"
#include "esse/cycle.hpp"
#include "linalg/stats.hpp"
#include "obs/instruments.hpp"
#include "obs/observation.hpp"
#include "ocean/monterey.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex {
namespace {

struct TwinFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_monterey_scenario(20, 16, 4));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
    // Initial error subspace from a stochastic spin-up ensemble. The
    // spin-up spread is inflated (x6) to represent a realistic initial
    // condition error much larger than 12 h of model noise — otherwise
    // the campaign's observation noise would swamp the signal and the
    // update would (correctly) do nothing.
    esse::ErrorSubspace raw = esse::bootstrap_subspace(
        *model, sc->initial, 0.0, 12.0, 12, 0.999, 10, /*seed=*/5);
    la::Vector inflated = raw.sigmas();
    for (auto& s : inflated) s *= 6.0;
    subspace = esse::ErrorSubspace(raw.modes(), inflated);
    // Identical-twin design: the hidden truth starts from the central
    // state displaced by a draw from the *known* initial uncertainty
    // (that is what the subspace claims to describe) and then evolves
    // with its own model noise.
    truth = std::make_unique<ocean::OceanState>(sc->initial);
    Rng draw_rng(777, 3);
    la::Vector x_truth = sc->initial.pack();
    la::Vector displacement = subspace.sample(draw_rng);
    for (std::size_t i = 0; i < x_truth.size(); ++i)
      x_truth[i] += displacement[i];
    truth->unpack(x_truth, sc->grid);
    Rng truth_rng(777, 1);
    model->run(*truth, 0.0, 12.0, &truth_rng);
  }

  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
  std::unique_ptr<ocean::OceanState> truth;
  esse::ErrorSubspace subspace;
};

TEST_F(TwinFixture, BootstrapSubspaceIsUsable) {
  EXPECT_EQ(subspace.dim(), ocean::OceanState::packed_size(sc->grid));
  EXPECT_GE(subspace.rank(), 2u);
  EXPECT_GT(subspace.total_variance(), 0.0);
  // Modes orthonormal.
  la::Matrix ete = la::matmul_at_b(subspace.modes(), subspace.modes());
  for (std::size_t i = 0; i < ete.rows(); ++i)
    EXPECT_NEAR(ete(i, i), 1.0, 1e-8);
}

TEST_F(TwinFixture, AssimilationPullsForecastTowardTruth) {
  // Forecast to t=12h (deterministic central), observe the truth, update.
  Rng obs_rng(31);
  auto campaign = obs::aosn_campaign(sc->grid, *truth, obs_rng);
  obs::ObsOperator h(sc->grid, campaign);

  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 12.0;
  cfg.cycle.ensemble = {12, 2.0, 12};
  cfg.cycle.convergence = {0.95, 100};  // no early stop at this scale
  cfg.cycle.max_rank = 10;
  cfg.svd_min_new_members = 12;

  const workflow::CycleOutcome res = workflow::run_assimilation_cycle(
      workflow::ForecastRequest{*model, sc->initial, subspace, 0.0, cfg},
      esse::ObsSet::from_operator(h));

  const la::Vector truth_vec = truth->pack();
  const double prior_err =
      la::rms_diff(res.forecast.central_forecast, truth_vec);
  const double post_err =
      la::rms_diff(res.analysis.posterior_state, truth_vec);
  EXPECT_LT(post_err, prior_err);
  EXPECT_LT(res.analysis.posterior_trace, res.analysis.prior_trace);
  EXPECT_LT(res.analysis.posterior_innovation_rms,
            res.analysis.prior_innovation_rms);
}

TEST_F(TwinFixture, SecondCycleKeepsImproving) {
  // Two sequential DA cycles (Fig. 2 loop): error must not grow.
  Rng obs_rng(32);
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 6.0;
  cfg.cycle.ensemble = {10, 2.0, 10};
  cfg.cycle.convergence = {0.95, 100};
  cfg.cycle.max_rank = 8;

  // Cycle 1: assimilate truth at t=6 (same twin as the fixture, from
  // the displaced initial state).
  ocean::OceanState truth6(sc->grid);
  {
    Rng draw_rng(777, 3);
    la::Vector x_truth = sc->initial.pack();
    la::Vector displacement = subspace.sample(draw_rng);
    for (std::size_t i = 0; i < x_truth.size(); ++i)
      x_truth[i] += displacement[i];
    truth6.unpack(x_truth, sc->grid);
  }
  Rng trng(777, 1);
  model->run(truth6, 0.0, 6.0, &trng);
  auto camp1 = obs::aosn_campaign(sc->grid, truth6, obs_rng);
  obs::ObsOperator h1(sc->grid, camp1);
  const workflow::CycleOutcome c1 = workflow::run_assimilation_cycle(
      workflow::ForecastRequest{*model, sc->initial, subspace, 0.0, cfg},
      esse::ObsSet::from_operator(h1));

  // Cycle 2: start from the posterior, forecast to t=12, assimilate.
  ocean::OceanState posterior_state(sc->grid);
  posterior_state.unpack(c1.analysis.posterior_state, sc->grid);
  ocean::OceanState truth12 = truth6;
  model->run(truth12, 6.0, 6.0, &trng);
  auto camp2 = obs::aosn_campaign(sc->grid, truth12, obs_rng);
  obs::ObsOperator h2(sc->grid, camp2);
  const workflow::CycleOutcome c2 = workflow::run_assimilation_cycle(
      workflow::ForecastRequest{*model, posterior_state,
                                c1.analysis.posterior_subspace, 6.0, cfg},
      esse::ObsSet::from_operator(h2));

  const double err2_prior =
      la::rms_diff(c2.forecast.central_forecast, truth12.pack());
  const double err2_post =
      la::rms_diff(c2.analysis.posterior_state, truth12.pack());
  EXPECT_LT(err2_post, err2_prior);
}

TEST_F(TwinFixture, UncertaintyForecastGrowsSpreadAlongFront) {
  // The Figs. 5/6 product: the forecast subspace's marginal stddev on
  // the SST field must be non-trivial and spatially structured.
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 12.0;
  cfg.cycle.ensemble = {12, 2.0, 12};
  cfg.cycle.convergence = {0.95, 100};
  cfg.cycle.max_rank = 10;
  const esse::ForecastResult fr = workflow::run_parallel_forecast(
      workflow::ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});
  la::Vector sd = fr.forecast_subspace.marginal_stddev();
  // SST block = first horizontal slab of the temperature block.
  double max_sd = 0, mean_sd = 0;
  std::size_t n = 0;
  for (std::size_t iy = 0; iy < sc->grid.ny(); ++iy) {
    for (std::size_t ix = 0; ix < sc->grid.nx(); ++ix) {
      if (!sc->grid.is_water(ix, iy)) continue;
      const double v = sd[sc->grid.index(ix, iy, 0)];
      max_sd = std::max(max_sd, v);
      mean_sd += v;
      ++n;
    }
  }
  mean_sd /= static_cast<double>(n);
  EXPECT_GT(max_sd, 1e-3);
  // Structure: peak clearly above the domain mean (front-localised).
  EXPECT_GT(max_sd, 2.0 * mean_sd);
}

TEST_F(TwinFixture, EnsembleFeedsAcousticUncertainty) {
  // Run a small ensemble, hand member states to the acoustics stage, and
  // verify physical→acoustical uncertainty transfer end to end.
  esse::PerturbationGenerator::Params pp;
  pp.seed = 12;
  esse::PerturbationGenerator gen(subspace, pp);
  const la::Vector packed = sc->initial.pack();
  std::vector<la::Vector> members;
  for (std::size_t i = 0; i < 6; ++i) {
    ocean::OceanState s(sc->grid);
    s.unpack(gen.perturbed_state(packed, i), sc->grid);
    Rng mrng(12, i + 1);
    model->run(s, 0.0, 6.0, &mrng);
    members.push_back(s.pack());
  }
  acoustics::SliceGeometry geom;
  geom.x0_km = 5;
  geom.y0_km = 60;
  geom.x1_km = 80;
  geom.y1_km = 60;
  geom.n_range = 32;
  geom.n_depth = 16;
  geom.max_depth_m = 150;
  acoustics::TLParams tp;
  tp.n_rays = 61;
  auto stats = acoustics::tl_ensemble_stats(sc->grid, members, geom, tp);
  double max_sd = 0;
  for (double v : stats.std_tl) max_sd = std::max(max_sd, v);
  EXPECT_GT(max_sd, 0.01);
  auto cov = acoustics::coupled_covariance(sc->grid, members, geom, tp, 4);
  EXPECT_GT(cov.coupling_strength(), 0.0);
}

TEST_F(TwinFixture, ConvergenceHistoryIsRecordedWhenGrowing) {
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.ensemble = {6, 2.0, 24};
  cfg.cycle.convergence = {0.999, 6};  // strict: forces at least one growth
  cfg.cycle.max_rank = 6;
  cfg.svd_min_new_members = 6;
  const esse::ForecastResult fr = workflow::run_parallel_forecast(
      workflow::ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});
  EXPECT_GE(fr.members_run, 6u);
  if (!fr.converged) {
    EXPECT_EQ(fr.members_run, 24u);
  }
  EXPECT_GE(fr.convergence_history.size(), 1u);
  // History ensemble sizes are non-decreasing.
  for (std::size_t i = 1; i < fr.convergence_history.size(); ++i) {
    EXPECT_GE(fr.convergence_history[i].n_members,
              fr.convergence_history[i - 1].n_members);
  }
}

}  // namespace
}  // namespace essex
