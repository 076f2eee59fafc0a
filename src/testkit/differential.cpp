#include "testkit/differential.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/analysis.hpp"
#include "esse/error_subspace.hpp"
#include "linalg/stats.hpp"
#include "obs/observation.hpp"
#include "ocean/monterey.hpp"
#include "testkit/generators.hpp"

namespace essex::testkit {

namespace {

constexpr double kRhoTolerance = 1e-6;       ///< SVD-path round-off budget
constexpr double kPosteriorTolerance = 1e-6;  ///< analysis agreement (RMS)

}  // namespace

esse::ForecastResult serial_reference_forecast(
    const workflow::ForecastRequest& request) {
  {
    const auto issues = workflow::validate(request);
    if (!issues.empty()) {
      throw PreconditionError(workflow::describe(issues));
    }
  }
  const esse::CycleParams& cp = request.config.cycle;
  ESSEX_REQUIRE(!cp.multilevel.enabled(),
                "the serial reference runs single-level ensembles only");
  const ocean::OceanModel& model = request.model;
  const double t0_hours = request.t0_hours;
  const std::size_t stride = request.config.svd_min_new_members;
  const la::Vector packed_initial = request.initial.pack();

  // Central (unperturbed, deterministic) forecast.
  la::Vector central =
      esse::run_member(model, packed_initial, t0_hours, cp.forecast_hours,
                       false, cp.perturbation.seed, 0);

  esse::PerturbationGenerator pert(request.subspace, cp.perturbation);
  // Localized requests shard the differ's column store by the analysis
  // tiling, as the runner does.
  std::shared_ptr<const ocean::Tiling> tiling;
  if (cp.localization.enabled)
    tiling = std::make_shared<const ocean::Tiling>(model.grid(), cp.tiling);
  esse::Differ differ(central, tiling);
  esse::ConvergenceTest conv(cp.convergence);
  esse::EnsembleSizeController sizer(cp.ensemble);

  // Staged growth loop: run blocks of `stride` members up to the current
  // target; test convergence after each block.
  for (;;) {
    while (differ.count() < sizer.target()) {
      const std::size_t first = differ.count();
      const std::size_t end = std::min(first + stride, sizer.target());
      for (std::size_t id = first; id < end; ++id) {
        la::Vector xf = esse::run_member(
            model, pert.perturbed_state(packed_initial, id), t0_hours,
            cp.forecast_hours, cp.stochastic_members, cp.perturbation.seed,
            id);
        differ.add_member(id, xf);
      }
      if (differ.count() >= 2) {
        conv.update(differ.subspace(cp.variance_fraction, cp.max_rank),
                    differ.count());
        if (conv.converged()) break;
      }
    }
    if (conv.converged() || sizer.at_max()) break;
    sizer.grow();
  }

  esse::ForecastResult out;
  out.central_forecast = std::move(central);
  out.forecast_subspace = differ.subspace(cp.variance_fraction, cp.max_rank);
  out.members_run = differ.count();
  out.converged = conv.converged();
  out.convergence_history = conv.history();
  if (cp.analysis.method == esse::AnalysisMethod::kMultiModel) {
    out.surrogate_forecast = esse::run_surrogate_forecast(
        model, request.initial, t0_hours, cp.forecast_hours, cp.analysis);
  }
  return out;
}

DifferentialReport run_differential_oracle(std::uint64_t seed,
                                           std::size_t threads) {
  ocean::Scenario sc = ocean::make_double_gyre_scenario(10, 8, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace initial = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 2.0, 6, 0.99, 6, seed);

  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 2.0;
  cfg.cycle.convergence = {0.90, 6};
  cfg.cycle.max_rank = 6;
  cfg.cycle.ensemble = {8, 2.0, 24};
  cfg.cycle.perturbation.seed = seed ^ 0xD1FFULL;
  cfg.svd_min_new_members = 4;

  workflow::ForecastRequest request{model, sc.initial, initial, 0.0, cfg};
  const esse::ForecastResult serial = serial_reference_forecast(request);
  request.config.cycle.threads = threads;
  const esse::ForecastResult mtc = workflow::run_parallel_forecast(request);

  DifferentialReport rep;
  rep.serial_members = serial.members_run;
  rep.mtc_members = mtc.members_run;
  std::ostringstream detail;
  const auto fail = [&](const std::string& what) {
    rep.ok = false;
    detail << "serial-vs-mtc: " << what << " (reproduce: seed=0x" << std::hex
           << seed << std::dec << ", threads=" << threads << ")\n";
  };

  if (serial.members_run != mtc.members_run) {
    std::ostringstream os;
    os << "member counts diverge: serial " << serial.members_run << " vs mtc "
       << mtc.members_run;
    fail(os.str());
  }
  if (serial.converged != mtc.converged) {
    fail(std::string("convergence verdicts diverge: serial ") +
         (serial.converged ? "converged" : "did not converge") + ", mtc " +
         (mtc.converged ? "converged" : "did not converge"));
  }

  // Milestone schedules: both loops must test the subspace at the same
  // ensemble sizes.
  if (serial.convergence_history.size() != mtc.convergence_history.size()) {
    std::ostringstream os;
    os << "milestone counts diverge: serial "
       << serial.convergence_history.size() << " checks vs mtc "
       << mtc.convergence_history.size();
    fail(os.str());
  } else {
    for (std::size_t i = 0; i < serial.convergence_history.size(); ++i) {
      if (serial.convergence_history[i].n_members !=
          mtc.convergence_history[i].n_members) {
        std::ostringstream os;
        os << "milestone " << i << " tested at different ensemble sizes: "
           << serial.convergence_history[i].n_members << " vs "
           << mtc.convergence_history[i].n_members;
        fail(os.str());
        break;
      }
    }
  }

  // Central forecasts run the identical seeded member-0 code path in both
  // drivers, so they must agree bit for bit.
  if (serial.central_forecast.size() != mtc.central_forecast.size()) {
    fail("central forecast lengths diverge");
  } else {
    for (std::size_t i = 0; i < serial.central_forecast.size(); ++i) {
      const double d =
          std::abs(serial.central_forecast[i] - mtc.central_forecast[i]);
      if (d > rep.central_max_abs_diff) rep.central_max_abs_diff = d;
    }
    if (rep.central_max_abs_diff != 0.0) {
      std::ostringstream os;
      os << "central forecasts differ, max |delta| = "
         << rep.central_max_abs_diff;
      fail(os.str());
    }
  }

  // Subspaces agree up to the SVD-path tolerance (the serial loop runs a
  // dense Jacobi SVD, the runner the incremental Gram-cached path).
  if (serial.forecast_subspace.empty() || mtc.forecast_subspace.empty()) {
    fail("a pipeline produced an empty subspace");
  } else {
    rep.subspace_rho = esse::subspace_similarity(serial.forecast_subspace,
                                                 mtc.forecast_subspace);
    if (rep.subspace_rho < 1.0 - kRhoTolerance) {
      std::ostringstream os;
      os << "subspaces disagree: rho = " << rep.subspace_rho << " < 1 - "
         << kRhoTolerance;
      fail(os.str());
    }

    // Feed both subspaces the same observation set and demand the ESSE
    // analyses agree: the assimilation product, not just the forecast,
    // is pipeline-invariant.
    ObsDomain domain;
    domain.x_hi_km = 55.0;
    domain.y_hi_km = 55.0;
    domain.depth_hi_m = 180.0;
    Rng obs_rng(seed ^ 0x0b5e7ULL);
    obs::ObservationSet set = gen_observations(domain, 8, 16).create(obs_rng);
    Rng value_rng(seed ^ 0x76a1ULL);
    obs::ObsOperator probe(sc.grid, set);
    const la::Vector at_forecast = probe.apply(serial.central_forecast);
    for (std::size_t i = 0; i < set.size(); ++i)
      set[i].value = at_forecast[i] + value_rng.normal(0.0, set[i].noise_std);
    obs::ObsOperator h(sc.grid, std::move(set));

    const esse::AnalysisResult a_serial =
        esse::analyze(serial.central_forecast, serial.forecast_subspace, h);
    const esse::AnalysisResult a_mtc =
        esse::analyze(mtc.central_forecast, mtc.forecast_subspace, h);
    rep.posterior_rms_diff =
        la::rms_diff(a_serial.posterior_state, a_mtc.posterior_state);
    if (rep.posterior_rms_diff > kPosteriorTolerance) {
      std::ostringstream os;
      os << "posterior states disagree: rms diff = " << rep.posterior_rms_diff;
      fail(os.str());
    }
  }

  rep.detail = detail.str();
  return rep;
}

LocalAnalysisReport run_local_analysis_oracle(std::uint64_t seed,
                                              std::size_t threads) {
  ocean::Scenario sc = ocean::make_double_gyre_scenario(12, 10, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 2.0, 8, 0.99, 8, seed);

  // A short central forecast to assimilate against, plus observations of
  // it with the probe-then-perturb idiom the serial-vs-MTC oracle uses.
  ocean::OceanState state = sc.initial;
  model.run(state, 0.0, 2.0, nullptr);
  const la::Vector forecast = state.pack();

  ObsDomain domain;
  domain.x_hi_km = sc.grid.dx_km() * static_cast<double>(sc.grid.nx() - 1);
  domain.y_hi_km = sc.grid.dy_km() * static_cast<double>(sc.grid.ny() - 1);
  domain.depth_hi_m = 150.0;
  Rng obs_rng(seed ^ 0x70c4fULL);
  obs::ObservationSet set = gen_observations(domain, 10, 18).create(obs_rng);
  Rng value_rng(seed ^ 0x3a91ULL);
  obs::ObsOperator probe(sc.grid, set);
  const la::Vector at_forecast = probe.apply(forecast);
  for (std::size_t i = 0; i < set.size(); ++i)
    set[i].value = at_forecast[i] + value_rng.normal(0.0, set[i].noise_std);
  obs::ObsOperator h(sc.grid, std::move(set));
  const esse::ObsSet obs = esse::ObsSet::from_operator(h);

  LocalAnalysisReport rep;
  std::ostringstream detail;
  const auto fail = [&](const std::string& what) {
    rep.ok = false;
    detail << "tiled-vs-global: " << what << " (reproduce: seed=0x"
           << std::hex << seed << std::dec << ", threads=" << threads
           << ")\n";
  };

  const esse::AnalysisResult global = esse::analyze(forecast, subspace, obs);

  esse::AnalysisOptions options;
  options.localization.enabled = true;
  // Far beyond the domain diagonal: every taper is ≈ 1 and the tiled
  // update must collapse onto the global one.
  options.localization.radius_km =
      1e4 * (domain.x_hi_km + domain.y_hi_km);
  options.tiling.tiles_x = 3;
  options.tiling.tiles_y = 2;
  options.tiling.halo_cells = 2;
  options.threads = threads;
  options.grid = &sc.grid;
  const esse::AnalysisResult tiled = esse::analyze(forecast, subspace, obs,
                                                   options);

  constexpr double kPosteriorRms = 1e-6;
  rep.posterior_rms_diff =
      la::rms_diff(global.posterior_state, tiled.posterior_state);
  rep.tiled_prior_trace = tiled.prior_trace;
  rep.tiled_posterior_trace = tiled.posterior_trace;
  if (rep.posterior_rms_diff > kPosteriorRms) {
    std::ostringstream os;
    os << "posterior states disagree at untapered radius: rms diff = "
       << rep.posterior_rms_diff;
    fail(os.str());
  }
  // "Analysis never hurts": the blended posterior is a convex quadratic
  // mixture of per-tile posteriors, each ≼ the prior, so the trace must
  // not grow — at any radius.
  const double slack = 1e-9 * std::max(1.0, tiled.prior_trace);
  if (tiled.posterior_trace > tiled.prior_trace + slack) {
    std::ostringstream os;
    os << "tiled analysis hurt at untapered radius: posterior trace "
       << tiled.posterior_trace << " > prior trace " << tiled.prior_trace;
    fail(os.str());
  }

  // Tight radius: tapering drops most observations from most tiles.
  options.localization.radius_km = 0.25 * domain.x_hi_km;
  const esse::AnalysisResult tight = esse::analyze(forecast, subspace, obs,
                                                   options);
  if (tight.posterior_trace > tight.prior_trace + slack) {
    std::ostringstream os;
    os << "tiled analysis hurt at tight radius: posterior trace "
       << tight.posterior_trace << " > prior trace " << tight.prior_trace;
    fail(os.str());
  }

  rep.detail = detail.str();
  return rep;
}

AnalysisMethodReport run_analysis_method_oracle(std::uint64_t seed,
                                                esse::AnalysisMethod method,
                                                std::size_t threads) {
  // The tiled-vs-global oracle's fixture, reused verbatim so the two
  // oracles quantify over the same scenario distribution.
  ocean::Scenario sc = ocean::make_double_gyre_scenario(12, 10, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 2.0, 8, 0.99, 8, seed);

  ocean::OceanState state = sc.initial;
  model.run(state, 0.0, 2.0, nullptr);
  const la::Vector forecast = state.pack();

  ObsDomain domain;
  domain.x_hi_km = sc.grid.dx_km() * static_cast<double>(sc.grid.nx() - 1);
  domain.y_hi_km = sc.grid.dy_km() * static_cast<double>(sc.grid.ny() - 1);
  domain.depth_hi_m = 150.0;
  Rng obs_rng(seed ^ 0x70c4fULL);
  obs::ObservationSet set = gen_observations(domain, 10, 18).create(obs_rng);
  Rng value_rng(seed ^ 0x3a91ULL);
  obs::ObsOperator probe(sc.grid, set);
  const la::Vector at_forecast = probe.apply(forecast);
  for (std::size_t i = 0; i < set.size(); ++i)
    set[i].value = at_forecast[i] + value_rng.normal(0.0, set[i].noise_std);
  obs::ObsOperator h(sc.grid, std::move(set));
  const esse::ObsSet obs = esse::ObsSet::from_operator(h);

  AnalysisMethodReport rep;
  std::ostringstream detail;
  const auto fail = [&](const std::string& what) {
    rep.ok = false;
    detail << esse::to_string(method) << ": " << what
           << " (reproduce: seed=0x" << std::hex << seed << std::dec
           << ", threads=" << threads << ")\n";
  };

  // The multi-model combiner needs its second opinion: a deliberately
  // biased copy of the forecast stands in for the coarse companion.
  la::Vector surrogate = forecast;
  for (double& v : surrogate) v += 0.05;

  esse::AnalysisOptions options;
  options.method = method;
  options.grid = &sc.grid;
  options.threads = threads;
  if (method == esse::AnalysisMethod::kMultiModel)
    options.multi_model.surrogate = &surrogate;

  const esse::AnalysisResult reference = esse::analyze(forecast, subspace,
                                                       obs);
  const esse::AnalysisResult global = esse::analyze(forecast, subspace, obs,
                                                    options);
  rep.prior_trace = global.prior_trace;
  rep.posterior_trace = global.posterior_trace;

  // (1) Filter equivalence on the global path. ETKF and ESRF are exact
  // algebraic rewrites of the reference update (diagonal R), so their
  // posterior means must agree to round-off; the combiner assimilates
  // extra pseudo-data and is exempt.
  if (method == esse::AnalysisMethod::kEtkf ||
      method == esse::AnalysisMethod::kEsrf) {
    rep.posterior_rms_vs_kalman =
        la::rms_diff(reference.posterior_state, global.posterior_state);
    if (rep.posterior_rms_vs_kalman > kPosteriorTolerance) {
      std::ostringstream os;
      os << "global posterior disagrees with the subspace-Kalman "
            "reference: rms diff = "
         << rep.posterior_rms_vs_kalman;
      fail(os.str());
    }
    const double trace_gap =
        std::abs(global.posterior_trace - reference.posterior_trace);
    if (trace_gap > 1e-6 * std::max(1.0, reference.posterior_trace)) {
      std::ostringstream os;
      os << "posterior trace disagrees with the reference: |"
         << global.posterior_trace << " - " << reference.posterior_trace
         << "| = " << trace_gap;
      fail(os.str());
    }
  }

  // (2) Never hurts, globally.
  const double slack = 1e-9 * std::max(1.0, global.prior_trace);
  if (global.posterior_trace > global.prior_trace + slack) {
    std::ostringstream os;
    os << "global analysis hurt: posterior trace " << global.posterior_trace
       << " > prior trace " << global.prior_trace;
    fail(os.str());
  }

  // (3) Tiled collapse onto the method's own global update at a radius
  // far beyond the domain, and never-hurts where tapering bites.
  options.localization.enabled = true;
  options.localization.radius_km = 1e4 * (domain.x_hi_km + domain.y_hi_km);
  options.tiling.tiles_x = 3;
  options.tiling.tiles_y = 2;
  options.tiling.halo_cells = 2;
  const esse::AnalysisResult tiled = esse::analyze(forecast, subspace, obs,
                                                   options);
  rep.tiled_rms_diff =
      la::rms_diff(global.posterior_state, tiled.posterior_state);
  if (rep.tiled_rms_diff > kPosteriorTolerance) {
    std::ostringstream os;
    os << "tiled posterior disagrees with global at untapered radius: "
          "rms diff = "
       << rep.tiled_rms_diff;
    fail(os.str());
  }
  options.localization.radius_km = 0.25 * domain.x_hi_km;
  const esse::AnalysisResult tight = esse::analyze(forecast, subspace, obs,
                                                   options);
  if (tight.posterior_trace > tight.prior_trace + slack) {
    std::ostringstream os;
    os << "tiled analysis hurt at tight radius: posterior trace "
       << tight.posterior_trace << " > prior trace " << tight.prior_trace;
    fail(os.str());
  }

  rep.detail = detail.str();
  return rep;
}

}  // namespace essex::testkit
