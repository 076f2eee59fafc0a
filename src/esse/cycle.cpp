#include "esse/cycle.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "ocean/hierarchy.hpp"

namespace essex::esse {

la::Vector run_member(const ocean::OceanModel& model,
                      la::Vector packed_initial, double t0_hours,
                      double forecast_hours, bool stochastic,
                      std::uint64_t seed, std::size_t member_id) {
  ocean::OceanState state(model.grid());
  state.unpack(packed_initial, model.grid());
  packed_initial = la::Vector();  // dead once unpacked
  if (stochastic) {
    // Stream offset keeps model-noise draws independent of the
    // perturbation draws for the same member id.
    Rng rng(seed ^ 0xA5A5A5A5ULL, member_id + 1);
    model.run(state, t0_hours, forecast_hours, &rng);
  } else {
    model.run(state, t0_hours, forecast_hours, nullptr);
  }
  return state.pack();
}

la::Vector run_surrogate_forecast(const ocean::OceanModel& model,
                                  const ocean::OceanState& initial,
                                  double t0_hours, double forecast_hours,
                                  const AnalysisParams& analysis) {
  ESSEX_REQUIRE(analysis.surrogate_levels >= 2,
                "the multi-model surrogate needs levels >= 2");
  ESSEX_REQUIRE(analysis.surrogate_coarsen >= 2,
                "the multi-model surrogate needs a coarsening factor >= 2");
  const ocean::GridHierarchy hier(model.grid(), analysis.surrogate_levels,
                                  analysis.surrogate_coarsen);
  const std::size_t l = analysis.surrogate_levels - 1;
  const ocean::Grid3D& g = hier.grid(l);

  // Coarse companion model: same physics and forcing, climatology
  // restricted to the coarse grid (the MultilevelEnsemble recipe).
  ocean::OceanState clim(g);
  clim.unpack(hier.restrict_state(model.climatology().pack(), l), g);
  const ocean::OceanModel coarse(g, model.params(), model.forcing(), clim);

  ocean::OceanState st(g);
  st.unpack(hier.restrict_state(initial.pack(), l), g);
  coarse.run(st, t0_hours, forecast_hours, nullptr);

  la::Vector fine = hier.prolong_state(st.pack(), l);
  // The deliberate bias on top of the coarse truncation error: lets
  // tests and benches dial the surrogate's wrongness explicitly.
  if (analysis.surrogate_bias != 0.0)
    for (double& v : fine) v += analysis.surrogate_bias;
  return fine;
}

ForecastResult run_uncertainty_forecast(const ocean::OceanModel& model,
                                        const ocean::OceanState& initial,
                                        const ErrorSubspace& initial_subspace,
                                        double t0_hours,
                                        const CycleParams& params) {
  ESSEX_REQUIRE(params.forecast_hours > 0, "forecast length must be > 0");
  ESSEX_REQUIRE(params.check_interval >= 1, "check interval must be >= 1");
  const la::Vector packed_initial = initial.pack();
  ESSEX_REQUIRE(packed_initial.size() == initial_subspace.dim(),
                "initial subspace does not match the state dimension");

  // Central (unperturbed, deterministic) forecast.
  la::Vector central = run_member(model, packed_initial, t0_hours,
                                  params.forecast_hours, false,
                                  params.perturbation.seed, 0);

  PerturbationGenerator pert(initial_subspace, params.perturbation);
  // Localized cycles shard the differ's column store by the analysis
  // tiling, so the forecast-stage Gram reductions use the same fixed
  // per-tile shapes the tiled analysis does.
  std::shared_ptr<const ocean::Tiling> tiling;
  if (params.localization.enabled)
    tiling = std::make_shared<const ocean::Tiling>(model.grid(),
                                                   params.tiling);
  Differ differ(central, tiling);
  differ.set_sink(params.sink);  // differ.* cache counters + check latency
  ConvergenceTest conv(params.convergence);
  EnsembleSizeController sizer(params.ensemble);

  ForecastResult out;
  std::size_t next_id = 0;

  auto run_block = [&](std::size_t count) {
    const std::size_t first = next_id;
    next_id += count;
    if (params.threads <= 1) {
      for (std::size_t id = first; id < first + count; ++id) {
        la::Vector xf = run_member(
            model, pert.perturbed_state(packed_initial, id), t0_hours,
            params.forecast_hours, params.stochastic_members,
            params.perturbation.seed, id);
        differ.add_member(id, xf);
      }
      return;
    }
    ThreadPool pool(params.threads);
    for (std::size_t id = first; id < first + count; ++id) {
      pool.submit([&, id] {
        la::Vector xf = run_member(
            model, pert.perturbed_state(packed_initial, id), t0_hours,
            params.forecast_hours, params.stochastic_members,
            params.perturbation.seed, id);
        differ.add_member(id, xf);
      });
    }
    pool.wait_idle();
  };

  // Staged growth loop: run blocks of check_interval members up to the
  // current target; test convergence after each block.
  for (;;) {
    while (differ.count() < sizer.target()) {
      const std::size_t block =
          std::min(params.check_interval, sizer.target() - differ.count());
      run_block(block);
      if (differ.count() >= 2) {
        ErrorSubspace sub = differ.subspace(params.variance_fraction,
                                            params.max_rank);
        const auto rho = conv.update(sub, differ.count());
        if (params.sink) {
          // Convergence samples as a metric stream: t is the ensemble
          // size the estimate used, value the similarity coefficient ρ.
          params.sink->count("esse.convergence_checks");
          if (rho) {
            params.sink->event("esse.convergence",
                               static_cast<double>(differ.count()), *rho);
            params.sink->observe("esse.similarity", *rho);
          }
        }
        if (conv.converged()) break;
      }
    }
    if (conv.converged() || sizer.at_max()) break;
    sizer.grow();
  }

  out.central_forecast = std::move(central);
  out.forecast_subspace =
      differ.subspace(params.variance_fraction, params.max_rank);
  out.members_run = differ.count();
  out.converged = conv.converged();
  out.convergence_history = conv.history();
  if (params.analysis.method == AnalysisMethod::kMultiModel) {
    out.surrogate_forecast = run_surrogate_forecast(
        model, initial, t0_hours, params.forecast_hours, params.analysis);
    if (params.sink) params.sink->count("esse.surrogate_runs");
  }
  if (params.sink) {
    params.sink->count("esse.members_run",
                       static_cast<double>(out.members_run));
    params.sink->gauge_set("esse.converged", out.converged ? 1.0 : 0.0);
    params.sink->gauge_set("esse.subspace_rank",
                           static_cast<double>(out.forecast_subspace.rank()));
  }
  return out;
}

CycleResult run_assimilation_cycle(const ocean::OceanModel& model,
                                   const ocean::OceanState& initial,
                                   const ErrorSubspace& initial_subspace,
                                   double t0_hours,
                                   const obs::ObsOperator& h,
                                   const CycleParams& params) {
  CycleResult out;
  out.forecast = run_uncertainty_forecast(model, initial, initial_subspace,
                                          t0_hours, params);
  // Graceful degradation has a floor: an analysis against a subspace
  // estimated from too few surviving members would be noise.
  ESSEX_REQUIRE(out.forecast.members_run >= params.min_analysis_members,
                "analysis refused: fewer surviving members than the "
                "min_analysis_members floor");
  AnalysisOptions options;
  options.localization = params.localization;
  options.tiling = params.tiling;
  options.threads = params.threads;
  options.grid = &model.grid();
  options.method = params.analysis.method;
  options.sink = params.sink;
  if (params.analysis.method == AnalysisMethod::kMultiModel) {
    ESSEX_REQUIRE(out.forecast.surrogate_forecast.has_value(),
                  "multi-model analysis needs the surrogate forecast");
    options.multi_model.surrogate = &*out.forecast.surrogate_forecast;
    options.multi_model.stride = params.analysis.pseudo_obs_stride;
    options.multi_model.variance_inflation =
        params.analysis.pseudo_variance_inflation;
    options.multi_model.variance_floor =
        params.analysis.pseudo_variance_floor;
  }
  out.analysis = analyze(out.forecast.central_forecast,
                         out.forecast.forecast_subspace,
                         ObsSet::from_operator(h), options);
  return out;
}

ErrorSubspace bootstrap_subspace(const ocean::OceanModel& model,
                                 const ocean::OceanState& initial,
                                 double t0_hours, double spinup_hours,
                                 std::size_t n_samples,
                                 double variance_fraction,
                                 std::size_t max_rank, std::uint64_t seed,
                                 std::size_t threads) {
  ESSEX_REQUIRE(n_samples >= 2, "bootstrap needs at least two samples");
  const la::Vector packed = initial.pack();
  // Deterministic reference run.
  la::Vector central =
      run_member(model, packed, t0_hours, spinup_hours, false, seed, 0);
  Differ differ(central);

  auto one = [&](std::size_t id) {
    la::Vector xf =
        run_member(model, packed, t0_hours, spinup_hours, true, seed, id);
    differ.add_member(id, xf);
  };

  if (threads <= 1) {
    for (std::size_t id = 0; id < n_samples; ++id) one(id);
  } else {
    ThreadPool pool(threads);
    for (std::size_t id = 0; id < n_samples; ++id) {
      pool.submit([&, id] { one(id); });
    }
    pool.wait_idle();
  }
  return differ.subspace(variance_fraction, max_rank);
}

}  // namespace essex::esse
