// Unit + property tests: ocean substrate (grid, state packing, forcing,
// PE-surrogate dynamics, scenario factories).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/proptest.hpp"
#include "common/rng.hpp"
#include "linalg/stats.hpp"
#include "ocean/forcing.hpp"
#include "ocean/grid.hpp"
#include "ocean/model.hpp"
#include "ocean/monterey.hpp"
#include "ocean/state.hpp"
#include "testkit/reference_model.hpp"

namespace essex::ocean {
namespace {

Grid3D small_grid() { return Grid3D(8, 6, 2.0, 2.0, {0.0, 20.0, 100.0}); }

// ---- grid -------------------------------------------------------------------

TEST(Grid3D, DimensionsAndIndexing) {
  Grid3D g = small_grid();
  EXPECT_EQ(g.points(), 8u * 6u * 3u);
  EXPECT_EQ(g.horizontal_points(), 48u);
  EXPECT_EQ(g.index(0, 0, 0), 0u);
  EXPECT_EQ(g.index(1, 0, 0), 1u);
  EXPECT_EQ(g.index(0, 1, 0), 8u);
  EXPECT_EQ(g.index(0, 0, 1), 48u);
}

TEST(Grid3D, ValidatesConstruction) {
  EXPECT_THROW(Grid3D(2, 6, 1, 1, {0.0}), PreconditionError);
  EXPECT_THROW(Grid3D(8, 6, 0, 1, {0.0}), PreconditionError);
  EXPECT_THROW(Grid3D(8, 6, 1, 1, {}), PreconditionError);
  EXPECT_THROW(Grid3D(8, 6, 1, 1, {10.0, 5.0}), PreconditionError);
}

TEST(Grid3D, LandMask) {
  Grid3D g = small_grid();
  EXPECT_TRUE(g.is_water(3, 3));
  g.set_land(3, 3);
  EXPECT_FALSE(g.is_water(3, 3));
  EXPECT_EQ(g.water_columns(), 47u);
}

TEST(Grid3D, LevelNearDepthPicksClosest) {
  Grid3D g = small_grid();
  EXPECT_EQ(g.level_near_depth(0.0), 0u);
  EXPECT_EQ(g.level_near_depth(25.0), 1u);
  EXPECT_EQ(g.level_near_depth(1000.0), 2u);
}

// ---- state packing -----------------------------------------------------------

TEST(OceanState, PackUnpackRoundTrip) {
  Grid3D g = small_grid();
  OceanState s(g);
  Rng rng(2);
  for (auto& v : s.temperature) v = rng.normal(12, 2);
  for (auto& v : s.salinity) v = rng.normal(33, 0.5);
  for (auto& v : s.ssh) v = rng.normal(0, 0.05);
  la::Vector x = s.pack();
  EXPECT_EQ(x.size(), OceanState::packed_size(g));
  OceanState t(g);
  t.unpack(x, g);
  EXPECT_DOUBLE_EQ(state_distance(s, t), 0.0);
}

TEST(OceanState, UnpackRejectsWrongLength) {
  Grid3D g = small_grid();
  OceanState s(g);
  EXPECT_THROW(s.unpack(la::Vector(5), g), PreconditionError);
}

TEST(OceanState, TemperatureSliceExtractsLevel) {
  Grid3D g = small_grid();
  OceanState s(g);
  s.temperature[g.index(2, 3, 1)] = 42.0;
  Field2D f = s.temperature_slice(g, 1);
  EXPECT_EQ(f.nx, 8u);
  EXPECT_EQ(f.ny, 6u);
  EXPECT_DOUBLE_EQ(f.at(2, 3), 42.0);
  EXPECT_THROW(s.temperature_slice(g, 3), PreconditionError);
}

// ---- wind forcing --------------------------------------------------------------

TEST(WindForcing, UpwellingPhaseHasEquatorwardStress) {
  WindForcing wind;
  // Peak of the upwelling phase is mid-way through it.
  const double t_peak =
      0.5 * wind.params().upwelling_fraction * wind.params().event_period_h;
  EXPECT_TRUE(wind.upwelling_active(t_peak));
  EXPECT_LT(wind.at(t_peak).tau_y, -0.05);
}

TEST(WindForcing, RelaxationPhaseReversesAndWeakens) {
  WindForcing wind;
  const double p = wind.params().event_period_h;
  const double t_relax = (wind.params().upwelling_fraction + 0.15) * p;
  EXPECT_FALSE(wind.upwelling_active(t_relax));
  const WindStress s = wind.at(t_relax);
  EXPECT_GT(s.tau_y, 0.0);
  EXPECT_LT(std::fabs(s.tau_y), wind.params().upwelling_tau);
}

TEST(WindForcing, PeriodicInTime) {
  WindForcing wind;
  const double p = wind.params().event_period_h;
  const WindStress a = wind.at(10.0);
  const WindStress b = wind.at(10.0 + 3 * p);
  EXPECT_NEAR(a.tau_x, b.tau_x, 1e-12);
  EXPECT_NEAR(a.tau_y, b.tau_y, 1e-12);
}

TEST(WindForcing, ValidatesParams) {
  WindForcing::Params p;
  p.event_period_h = 0;
  EXPECT_THROW(WindForcing{p}, PreconditionError);
  p = {};
  p.upwelling_fraction = 1.5;
  EXPECT_THROW(WindForcing{p}, PreconditionError);
}

// ---- model dynamics --------------------------------------------------------------

Scenario scenario() { return make_monterey_scenario(24, 20, 4); }

TEST(OceanModel, StableStepKeepsFieldsBounded) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  model.run(s, 0.0, 24.0, nullptr);
  for (double t : s.temperature) {
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 30.0);
  }
  for (double e : s.ssh) EXPECT_LT(std::fabs(e), 1.0);
}

TEST(OceanModel, RejectsUnstableDt) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  EXPECT_THROW(s = sc.initial;
               model.step(s, 0.0, model.max_stable_dt_hours() * 3),
               PreconditionError);
  EXPECT_THROW(model.step(s, 0.0, -1.0), PreconditionError);
}

TEST(OceanModel, DeterministicWithoutNoise) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState a = sc.initial, b = sc.initial;
  model.run(a, 0.0, 12.0, nullptr);
  model.run(b, 0.0, 12.0, nullptr);
  EXPECT_DOUBLE_EQ(state_distance(a, b), 0.0);
}

TEST(OceanModel, StochasticRunsDivergeAcrossSeeds) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState a = sc.initial, b = sc.initial;
  Rng r1(1, 1), r2(1, 2);
  model.run(a, 0.0, 12.0, &r1);
  model.run(b, 0.0, 12.0, &r2);
  EXPECT_GT(state_distance(a, b), 1e-3);
}

TEST(OceanModel, StochasticReproducibleForSameStream) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState a = sc.initial, b = sc.initial;
  Rng r1(9, 4), r2(9, 4);
  model.run(a, 0.0, 6.0, &r1);
  model.run(b, 0.0, 6.0, &r2);
  EXPECT_DOUBLE_EQ(state_distance(a, b), 0.0);
}

TEST(OceanModel, UpwellingCoolsCoastalSurface) {
  // Persistent upwelling wind should cool the surface along the coast
  // relative to the offshore interior.
  Scenario sc = scenario();
  sc.wind.upwelling_fraction = 0.95;  // nearly always upwelling
  sc.wind.upwelling_tau = 0.2;
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  model.run(s, 0.0, 48.0, nullptr);
  // Mean change at coastal columns (a water column with land within two
  // cells to the east) vs initial.
  double coastal_delta = 0;
  int coastal_n = 0;
  for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy) {
    for (std::size_t ix = 0; ix + 2 < sc.grid.nx(); ++ix) {
      if (!sc.grid.is_water(ix, iy)) continue;
      const bool coastal = !sc.grid.is_water(ix + 1, iy) ||
                           !sc.grid.is_water(ix + 2, iy);
      if (!coastal) continue;
      coastal_delta += s.temperature[sc.grid.index(ix, iy, 0)] -
                       sc.initial.temperature[sc.grid.index(ix, iy, 0)];
      ++coastal_n;
    }
  }
  ASSERT_GT(coastal_n, 0);
  EXPECT_LT(coastal_delta / coastal_n, 0.0);
}

TEST(OceanModel, BoundaryRelaxationPinsEdgesToClimatology) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  // Kick the interior *and* the boundary away from climatology.
  for (auto& t : s.temperature) t += 2.0;
  model.run(s, 0.0, 48.0, nullptr);
  // Western edge should be pulled back toward climatology more than the
  // interior.
  const std::size_t iy = sc.grid.ny() / 2;
  const double edge_err =
      std::fabs(s.temperature[sc.grid.index(0, iy, 0)] -
                sc.initial.temperature[sc.grid.index(0, iy, 0)]);
  const double mid_err =
      std::fabs(s.temperature[sc.grid.index(sc.grid.nx() / 3, iy, 0)] -
                sc.initial.temperature[sc.grid.index(sc.grid.nx() / 3, iy, 0)]);
  EXPECT_LT(edge_err, mid_err);
}

TEST(OceanModel, CurrentsRespectSpeedCap) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  model.diagnose_currents(s, 0.0);
  for (double u : s.u) EXPECT_LE(std::fabs(u), sc.params.geostrophic_cap);
  for (double v : s.v) EXPECT_LE(std::fabs(v), sc.params.geostrophic_cap);
}

TEST(OceanModel, GeostrophicFlowCirculatesAroundEddy) {
  // An isolated SSH high in the northern hemisphere drives clockwise
  // (anticyclonic) flow: v > 0 west of the eddy center, v < 0 east of it.
  Grid3D g(20, 20, 3.0, 3.0, {0.0, 50.0});
  OceanState s(g);
  for (auto& t : s.temperature) t = 12.0;
  for (auto& sal : s.salinity) sal = 33.5;
  const double cx = 9.5 * 3.0, cy = 9.5 * 3.0;
  for (std::size_t iy = 0; iy < 20; ++iy)
    for (std::size_t ix = 0; ix < 20; ++ix) {
      const double dx = ix * 3.0 - cx, dy = iy * 3.0 - cy;
      s.ssh[g.hindex(ix, iy)] =
          0.1 * std::exp(-(dx * dx + dy * dy) / 200.0);
    }
  ModelParams params;
  WindForcing::Params calm;
  calm.upwelling_tau = 0.0;
  calm.relaxation_tau = 0.0;
  calm.onshore_tau = 0.0;
  OceanModel model(g, params, WindForcing(calm), s);
  model.diagnose_currents(s, 0.0);
  EXPECT_GT(s.v[g.index(5, 10, 0)], 0.0);   // west flank: northward
  EXPECT_LT(s.v[g.index(14, 10, 0)], 0.0);  // east flank: southward
}

TEST(OceanModel, RunSubstepsToRequestedDuration) {
  Scenario sc = scenario();
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  const std::size_t steps = model.run(s, 0.0, 5.0, nullptr);
  EXPECT_GE(steps, static_cast<std::size_t>(
                       std::ceil(5.0 / model.max_stable_dt_hours()) - 1));
}

// ---- bitwise oracle: optimised propagator vs the frozen reference ----------------

// One generated propagator case. The mask is row-major, 1 = land.
struct PropagatorCase {
  std::size_t nx = 3, ny = 3, nz = 1;
  std::vector<char> land;
  double dx_km = 2.0, dy_km = 2.0;
  double t0_hours = 0.0;
  double steps = 1.0;  ///< run length in stable steps (fractional tail)
  bool noise = false;
  std::uint64_t seed = 0;
};

std::string describe_case(const PropagatorCase& c) {
  std::ostringstream os;
  os << c.nx << "x" << c.ny << "x" << c.nz << " t0=" << c.t0_hours
     << " steps=" << c.steps << " noise=" << c.noise << " mask:";
  for (std::size_t iy = 0; iy < c.ny; ++iy) {
    os << ' ';
    for (std::size_t ix = 0; ix < c.nx; ++ix)
      os << (c.land[iy * c.nx + ix] ? '#' : '.');
  }
  return os.str();
}

testkit::Gen<PropagatorCase> gen_propagator_case() {
  testkit::Gen<PropagatorCase> g;
  g.create = [](Rng& rng) {
    PropagatorCase c;
    const bool minimal = rng.uniform() < 0.2;  // 3x3: no interior runs
    c.nx = minimal ? 3 : 3 + rng.uniform_index(12);
    c.ny = minimal ? 3 : 3 + rng.uniform_index(10);
    c.nz = 1 + rng.uniform_index(4);  // nz = 1 skips vertical diffusion
    c.land.assign(c.nx * c.ny, 0);
    const double p_land = 0.25 * rng.uniform();
    for (char& l : c.land) l = rng.uniform() < p_land;
    if (rng.uniform() < 0.5) {  // a coast along (part of) the east edge
      for (std::size_t iy = rng.uniform_index(c.ny); iy < c.ny; ++iy)
        c.land[iy * c.nx + c.nx - 1] = 1;
    }
    if (c.nx > 4 && c.ny > 2) {  // land splitting an interior row
      const std::size_t iy = 1 + rng.uniform_index(c.ny - 2);
      const std::size_t ix = 2 + rng.uniform_index(c.nx - 4);
      c.land[iy * c.nx + ix] = 1;
    }
    c.dx_km = rng.uniform(1.0, 4.0);
    c.dy_km = rng.uniform(1.0, 4.0);
    c.t0_hours = rng.uniform(0.0, 96.0);  // upwelling and relaxation
    c.steps = rng.uniform(1.0, 4.5);
    c.noise = rng.uniform() < 0.5;
    c.seed = rng();
    return c;
  };
  g.describe = describe_case;
  return g;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(const OceanState& a, const OceanState& b) {
  return bitwise_equal(a.temperature, b.temperature) &&
         bitwise_equal(a.salinity, b.salinity) && bitwise_equal(a.u, b.u) &&
         bitwise_equal(a.v, b.v) && bitwise_equal(a.ssh, b.ssh);
}

// Everything a case integrates: grid, model and a random initial state
// whose SSH bumps drive currents of both signs in u and v.
struct PropagatorSetup {
  explicit PropagatorSetup(const PropagatorCase& c)
      : grid(make_grid(c)),
        initial(random_state(grid, c.seed)),
        model(grid, ModelParams{}, WindForcing(),
              random_state(grid, c.seed + 1)) {}

  static Grid3D make_grid(const PropagatorCase& c) {
    const double levels[] = {0.0, 15.0, 60.0, 150.0};
    Grid3D g(c.nx, c.ny, c.dx_km, c.dy_km,
             std::vector<double>(levels, levels + c.nz));
    for (std::size_t iy = 0; iy < c.ny; ++iy)
      for (std::size_t ix = 0; ix < c.nx; ++ix)
        if (c.land[iy * c.nx + ix]) g.set_land(ix, iy);
    return g;
  }

  static OceanState random_state(const Grid3D& g, std::uint64_t seed) {
    OceanState s(g);
    Rng rng(seed, 99);
    for (double& x : s.temperature) x = 12.0 + 3.0 * rng.normal();
    for (double& x : s.salinity) x = 33.5 + 0.2 * rng.normal();
    for (double& x : s.ssh) x = 0.02 * rng.normal();
    for (double& x : s.u) x = 0.3 * rng.normal();
    for (double& x : s.v) x = 0.3 * rng.normal();
    return s;
  }

  Grid3D grid;
  OceanState initial;
  OceanModel model;
};

TEST(OceanModelOracle, RunIsBitwiseEqualToTheFrozenReference) {
  testkit::PropConfig cfg;
  cfg.name = "OceanModel::run == reference_ocean_run";
  cfg.cases = 200;
  const auto r = testkit::check(cfg, gen_propagator_case(),
                                [](const PropagatorCase& c) {
    PropagatorSetup su(c);
    const double hours = c.steps * su.model.max_stable_dt_hours();
    OceanState fast = su.initial, ref = su.initial;
    Rng rng_fast(c.seed, 3), rng_ref(c.seed, 3);
    const std::size_t n_fast = su.model.run(fast, c.t0_hours, hours,
                                            c.noise ? &rng_fast : nullptr);
    const std::size_t n_ref = testkit::reference_ocean_run(
        su.model, ref, c.t0_hours, hours, c.noise ? &rng_ref : nullptr);
    // Same state, same step count, same number of noise draws consumed.
    return n_fast == n_ref && bitwise_equal(fast, ref) &&
           rng_fast() == rng_ref();
  });
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.cases_run, cfg.cases);
}

TEST(OceanModelOracle, StepIsBitwiseEqualToTheFrozenReference) {
  testkit::PropConfig cfg;
  cfg.name = "OceanModel::step == reference_ocean_step";
  cfg.cases = 200;
  const auto r = testkit::check(cfg, gen_propagator_case(),
                                [](const PropagatorCase& c) {
    PropagatorSetup su(c);
    // A fraction of the stable step, so dt varies from case to case.
    const double dt = su.model.max_stable_dt_hours() * (c.steps - 1.0) / 3.5;
    if (dt <= 0.0) return true;
    OceanState fast = su.initial, ref = su.initial;
    Rng rng_fast(c.seed, 5), rng_ref(c.seed, 5);
    su.model.step(fast, c.t0_hours, dt, c.noise ? &rng_fast : nullptr);
    testkit::reference_ocean_step(su.model, ref, c.t0_hours, dt,
                                  c.noise ? &rng_ref : nullptr);
    return bitwise_equal(fast, ref) && rng_fast() == rng_ref();
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(OceanModelOracle, GeneratedCasesCoverTheStencilEdges) {
  // The generator must reach the corners the fast path special-cases:
  // minimal grids, nz = 1, land inside interior rows, an east coast, and
  // currents of both signs in u and v.
  const auto gen = gen_propagator_case();
  bool minimal = false, single_level = false, inner_land = false;
  bool east_coast = false, u_pos = false, u_neg = false, v_pos = false,
       v_neg = false;
  for (std::size_t i = 0; i < 200; ++i) {
    Rng rng(testkit::case_seed(testkit::PropConfig{}.seed, i));
    const PropagatorCase c = gen.create(rng);
    minimal |= c.nx == 3 && c.ny == 3;
    single_level |= c.nz == 1;
    for (std::size_t iy = 1; iy + 1 < c.ny; ++iy) {
      east_coast |= c.land[iy * c.nx + c.nx - 1] != 0;
      for (std::size_t ix = 1; ix + 1 < c.nx; ++ix)
        inner_land |= c.land[iy * c.nx + ix] != 0;
    }
    PropagatorSetup su(c);
    OceanState s = su.initial;
    su.model.diagnose_currents(s, c.t0_hours);
    for (std::size_t k = 0; k < s.u.size(); ++k) {
      u_pos |= s.u[k] > 0;
      u_neg |= s.u[k] < 0;
      v_pos |= s.v[k] > 0;
      v_neg |= s.v[k] < 0;
    }
  }
  EXPECT_TRUE(minimal);
  EXPECT_TRUE(single_level);
  EXPECT_TRUE(inner_land);
  EXPECT_TRUE(east_coast);
  EXPECT_TRUE(u_pos && u_neg && v_pos && v_neg);
}

// ---- scenario factories -------------------------------------------------------

TEST(Scenarios, MontereyHasCoastalLandAndBay) {
  Scenario sc = make_monterey_scenario(48, 40, 6);
  EXPECT_LT(sc.grid.water_columns(), sc.grid.horizontal_points());
  // Western edge is open ocean.
  for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy)
    EXPECT_TRUE(sc.grid.is_water(0, iy));
  // Eastern edge is land.
  std::size_t land_east = 0;
  for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy)
    land_east += !sc.grid.is_water(sc.grid.nx() - 1, iy);
  EXPECT_GT(land_east, sc.grid.ny() / 2);
}

TEST(Scenarios, MontereyHasCrossShoreSstFront) {
  Scenario sc = make_monterey_scenario(48, 40, 6);
  const std::size_t iy = sc.grid.ny() / 4;  // away from the bay
  const double offshore = sc.initial.temperature[sc.grid.index(2, iy, 0)];
  // Find the easternmost water column at this latitude.
  std::size_t coast_ix = 0;
  for (std::size_t ix = 0; ix < sc.grid.nx(); ++ix)
    if (sc.grid.is_water(ix, iy)) coast_ix = ix;
  const double coastal =
      sc.initial.temperature[sc.grid.index(coast_ix, iy, 0)];
  EXPECT_GT(offshore - coastal, 2.0);
}

TEST(Scenarios, MontereyStratified) {
  Scenario sc = make_monterey_scenario(24, 20, 6);
  const std::size_t id_surf = sc.grid.index(4, 10, 0);
  const std::size_t id_deep = sc.grid.index(4, 10, 5);
  EXPECT_GT(sc.initial.temperature[id_surf],
            sc.initial.temperature[id_deep] + 3.0);
}

TEST(Scenarios, DoubleGyreIsAllWaterAndRunnable) {
  Scenario sc = make_double_gyre_scenario(16, 12, 3);
  EXPECT_EQ(sc.grid.water_columns(), sc.grid.horizontal_points());
  OceanModel model(sc.grid, sc.params, WindForcing(sc.wind), sc.initial);
  OceanState s = sc.initial;
  EXPECT_NO_THROW(model.run(s, 0.0, 6.0, nullptr));
}

TEST(Scenarios, FactoryValidatesMinimumSizes) {
  EXPECT_THROW(make_monterey_scenario(4, 4, 1), PreconditionError);
  EXPECT_THROW(make_double_gyre_scenario(4, 4, 1), PreconditionError);
}

}  // namespace
}  // namespace essex::ocean
