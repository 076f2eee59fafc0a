#include "esse/cycle.hpp"

#include "common/error.hpp"
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
