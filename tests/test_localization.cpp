// ESSEX: the localized, tiled analysis engine (DESIGN.md §14).
//
// Covers the whole redesign surface: tiling geometry invariants
// (property-based — the owned runs partition the packed state exactly,
// partition-of-unity weights sum to one), the Gaspari–Cohn taper, the
// ObsSet adapters' bitwise equivalence with the pre-redesign entry
// points, the tiled-vs-global differential oracle, thread-count
// invariance of the tiled engine, the sharded differ, and the
// workflow-level validation of localization/tiling knobs. Labelled
// `localization`; CI runs `ctest -L localization` in the default and
// tsan jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/proptest.hpp"
#include "esse/analysis.hpp"
#include "esse/cycle.hpp"
#include "esse/differ.hpp"
#include "esse/error_subspace.hpp"
#include "linalg/stats.hpp"
#include "obs/observation.hpp"
#include "ocean/monterey.hpp"
#include "ocean/state.hpp"
#include "ocean/tiling.hpp"
#include "testkit/differential.hpp"
#include "testkit/generators.hpp"
#include "workflow/parallel_runner.hpp"

namespace tk = essex::testkit;
namespace esse = essex::esse;
namespace ocean = essex::ocean;
namespace la = essex::la;
namespace obs = essex::obs;
namespace workflow = essex::workflow;
using essex::Rng;

namespace {

ocean::Grid3D grid_for(const tk::TilingCase& tc) {
  std::vector<double> depths(tc.nz);
  for (std::size_t i = 0; i < tc.nz; ++i)
    depths[i] = 10.0 * static_cast<double>(i);
  return ocean::Grid3D(tc.nx, tc.ny, 5.0, 4.0, std::move(depths));
}

/// A seeded scenario + forecast + subspace + observations shared by the
/// analysis-level tests, mirroring the differential oracle's setup.
struct AnalysisFixture {
  ocean::Scenario sc = ocean::make_double_gyre_scenario(12, 10, 3);
  la::Vector forecast;
  esse::ErrorSubspace subspace;
  esse::ObsSet obs_set;

  explicit AnalysisFixture(std::uint64_t seed) {
    ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                            sc.initial);
    subspace = esse::bootstrap_subspace(model, sc.initial, 0.0, 2.0, 8,
                                        0.99, 8, seed);
    ocean::OceanState state = sc.initial;
    model.run(state, 0.0, 2.0, nullptr);
    forecast = state.pack();

    tk::ObsDomain domain;
    domain.x_hi_km = sc.grid.dx_km() * static_cast<double>(sc.grid.nx() - 1);
    domain.y_hi_km = sc.grid.dy_km() * static_cast<double>(sc.grid.ny() - 1);
    Rng obs_rng(seed ^ 0xf00dULL);
    obs::ObservationSet set =
        tk::gen_observations(domain, 10, 16).create(obs_rng);
    Rng value_rng(seed ^ 0xbeefULL);
    obs::ObsOperator probe(sc.grid, set);
    const la::Vector at_forecast = probe.apply(forecast);
    for (std::size_t i = 0; i < set.size(); ++i)
      set[i].value =
          at_forecast[i] + value_rng.normal(0.0, set[i].noise_std);
    h = std::make_unique<obs::ObsOperator>(sc.grid, std::move(set));
    obs_set = esse::ObsSet::from_operator(*h);
  }

  std::unique_ptr<obs::ObsOperator> h;
};

bool bitwise_equal(const la::Vector& a, const la::Vector& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

// ---------------------------------------------------------------------
// Tiling geometry invariants.

TEST(Tiling, OwnedRunsPartitionThePackedStateExactlyOnce) {
  tk::PropConfig cfg;
  cfg.name = "tiling-partition";
  cfg.cases = 60;
  const auto r = tk::check(cfg, tk::gen_tiling(), [](const tk::TilingCase& tc) {
    const ocean::Grid3D grid = grid_for(tc);
    const ocean::Tiling tiling(grid, tc.params);
    std::vector<unsigned> hits(tiling.packed_size(), 0);
    std::size_t total = 0;
    for (std::size_t t = 0; t < tiling.tile_count(); ++t) {
      std::size_t tile_rows = 0;
      for (const la::IndexRange& run : tiling.owned_runs(t)) {
        if (run.len == 0) return false;  // no degenerate runs
        if (run.begin + run.len > tiling.packed_size()) return false;
        for (std::size_t i = 0; i < run.len; ++i) ++hits[run.begin + i];
        tile_rows += run.len;
      }
      if (tile_rows != tiling.owned_points(t)) return false;
      total += tile_rows;
    }
    if (total != tiling.packed_size()) return false;
    return std::all_of(hits.begin(), hits.end(),
                       [](unsigned h) { return h == 1; });
  });
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Tiling, CoverWeightsFormAPartitionOfUnity) {
  tk::PropConfig cfg;
  cfg.name = "tiling-pu-weights";
  cfg.cases = 60;
  const auto r = tk::check(cfg, tk::gen_tiling(), [](const tk::TilingCase& tc) {
    const ocean::Grid3D grid = grid_for(tc);
    const ocean::Tiling tiling(grid, tc.params);
    for (std::size_t iy = 0; iy < tiling.ny(); ++iy) {
      for (std::size_t ix = 0; ix < tiling.nx(); ++ix) {
        const auto cov = tiling.cover(ix, iy);
        if (cov.empty()) return false;
        double sum = 0;
        bool owner_present = false;
        const std::size_t owner = tiling.owner_of(ix, iy);
        for (std::size_t c = 0; c < cov.size(); ++c) {
          if (c > 0 && cov[c].first <= cov[c - 1].first) return false;
          if (cov[c].second <= 0.0) return false;
          if (!tiling.tile(cov[c].first).covers(ix, iy)) return false;
          if (cov[c].first == owner) owner_present = true;
          sum += cov[c].second;
        }
        if (!owner_present) return false;
        if (!tiling.tile(owner).owns(ix, iy)) return false;
        if (std::abs(sum - 1.0) > 1e-12) return false;
        // Zero halo ⇒ the owner is the sole covering tile.
        if (tc.params.halo_cells == 0 && cov.size() != 1) return false;
      }
    }
    return true;
  });
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Tiling, SingleTileOwnsEverythingWithWeightOne) {
  const ocean::Grid3D grid(7, 5, 5.0, 5.0, {0.0, 20.0});
  const ocean::Tiling tiling(grid, {1, 1, 3});
  ASSERT_EQ(tiling.tile_count(), 1u);
  EXPECT_EQ(tiling.owned_points(0), tiling.packed_size());
  const auto cov = tiling.cover(3, 2);
  ASSERT_EQ(cov.size(), 1u);
  EXPECT_EQ(cov[0].first, 0u);
  EXPECT_DOUBLE_EQ(cov[0].second, 1.0);
}

TEST(Tiling, RejectsMoreTilesThanGridCells) {
  const ocean::Grid3D grid(4, 3, 5.0, 5.0, {0.0});
  EXPECT_THROW(ocean::Tiling(grid, {5, 1, 0}), std::exception);
  EXPECT_THROW(ocean::Tiling(grid, {1, 4, 0}), std::exception);
  EXPECT_THROW(ocean::Tiling(grid, {0, 1, 0}), std::exception);
}

TEST(Tiling, DistanceIsZeroInsideTheOwnedRect) {
  const ocean::Grid3D grid(10, 8, 2.0, 3.0, {0.0});
  const ocean::Tiling tiling(grid, {2, 2, 1});
  for (std::size_t iy = 0; iy < grid.ny(); ++iy) {
    for (std::size_t ix = 0; ix < grid.nx(); ++ix) {
      const std::size_t t = tiling.owner_of(ix, iy);
      EXPECT_EQ(tiling.distance_km(t, 2.0 * static_cast<double>(ix),
                                   3.0 * static_cast<double>(iy)),
                0.0);
    }
  }
  // A point outside is measured to the rect's nearest edge.
  const double far_x = 2.0 * 9;  // inside tile 1/3's x-range
  EXPECT_GT(tiling.distance_km(0, far_x, 0.0), 0.0);
}

// ---------------------------------------------------------------------
// The Gaspari–Cohn taper.

TEST(GaspariCohn, MatchesTheTextbookShape) {
  EXPECT_DOUBLE_EQ(esse::gaspari_cohn(0.0, 10.0), 1.0);
  // Compactly supported on [0, 2c).
  EXPECT_EQ(esse::gaspari_cohn(20.0, 10.0), 0.0);
  EXPECT_EQ(esse::gaspari_cohn(35.0, 10.0), 0.0);
  // Monotone decreasing on a sampled ladder.
  double prev = 1.0;
  for (double d = 0.5; d < 20.0; d += 0.5) {
    const double g = esse::gaspari_cohn(d, 10.0);
    EXPECT_LE(g, prev + 1e-15) << "not monotone at d=" << d;
    EXPECT_GE(g, 0.0);
    prev = g;
  }
  // Continuous across the r = 1 knee.
  EXPECT_NEAR(esse::gaspari_cohn(10.0 - 1e-9, 10.0),
              esse::gaspari_cohn(10.0 + 1e-9, 10.0), 1e-6);
  // Degenerate support: a delta at zero distance.
  EXPECT_DOUBLE_EQ(esse::gaspari_cohn(0.0, 0.0), 1.0);
  EXPECT_EQ(esse::gaspari_cohn(0.5, 0.0), 0.0);
}

// ---------------------------------------------------------------------
// Adapter equivalence: the redesigned entry point is the old one.

TEST(ObsSetAdapters, OperatorWrapperIsBitwiseIdenticalToUnifiedCall) {
  AnalysisFixture fx(0xA11CEULL);
  const esse::AnalysisResult wrapped =
      esse::analyze(fx.forecast, fx.subspace, *fx.h);
  const esse::AnalysisResult unified =
      esse::analyze(fx.forecast, fx.subspace, fx.obs_set);
  EXPECT_TRUE(bitwise_equal(wrapped.posterior_state, unified.posterior_state));
  EXPECT_TRUE(bitwise_equal(wrapped.posterior_subspace.sigmas(),
                            unified.posterior_subspace.sigmas()));
  EXPECT_EQ(wrapped.posterior_subspace.modes().data(),
            unified.posterior_subspace.modes().data());
  EXPECT_EQ(wrapped.prior_innovation_rms, unified.prior_innovation_rms);
  EXPECT_EQ(wrapped.posterior_innovation_rms,
            unified.posterior_innovation_rms);
}

TEST(ObsSetAdapters, LinearAdapterMatchesPositionedAdapter) {
  AnalysisFixture fx(0xB0B0ULL);
  // Lower the gridded observations to generic linear ones by hand.
  std::vector<esse::LinearObservation> linear;
  for (const esse::ObsEntry& e : fx.obs_set.entries()) {
    esse::LinearObservation lo;
    lo.stencil = e.stencil;
    lo.value = e.value;
    lo.variance = e.variance;
    linear.push_back(std::move(lo));
  }
  const esse::AnalysisResult unified = esse::analyze(
      fx.forecast, fx.subspace, esse::ObsSet::from_linear(linear));
  // The unpositioned adapter agrees with the positioned one on the same
  // stencils: position only matters once localization is on.
  const esse::AnalysisResult positioned =
      esse::analyze(fx.forecast, fx.subspace, fx.obs_set);
  EXPECT_TRUE(
      bitwise_equal(unified.posterior_state, positioned.posterior_state));
}

// ---------------------------------------------------------------------
// The tiled engine against the global one.

TEST(LocalAnalysis, TiledCollapsesOntoGlobalAtUntaperedRadius) {
  for (const std::uint64_t seed : {0x5EEDULL, 0x5EEEULL, 0x5EEFULL}) {
    const tk::LocalAnalysisReport rep =
        tk::run_local_analysis_oracle(seed, 3);
    EXPECT_TRUE(rep.ok) << rep.detail;
    EXPECT_LE(rep.posterior_rms_diff, 1e-6);
    EXPECT_LE(rep.tiled_posterior_trace,
              rep.tiled_prior_trace * (1.0 + 1e-12) + 1e-12);
  }
}

TEST(LocalAnalysis, ThreadCountDoesNotChangeTheTiledAnalysis) {
  AnalysisFixture fx(0xCAFEULL);
  esse::AnalysisOptions options;
  options.localization.enabled = true;
  options.localization.radius_km = 25.0;
  options.tiling = {3, 2, 2};
  options.grid = &fx.sc.grid;
  options.threads = 1;
  const esse::AnalysisResult serial =
      esse::analyze(fx.forecast, fx.subspace, fx.obs_set, options);
  options.threads = 4;
  const esse::AnalysisResult pooled =
      esse::analyze(fx.forecast, fx.subspace, fx.obs_set, options);
  EXPECT_TRUE(bitwise_equal(serial.posterior_state, pooled.posterior_state));
  EXPECT_TRUE(bitwise_equal(serial.posterior_subspace.sigmas(),
                            pooled.posterior_subspace.sigmas()));
  EXPECT_EQ(serial.posterior_subspace.modes().data(),
            pooled.posterior_subspace.modes().data());
}

TEST(LocalAnalysis, TilesBeyondEveryObservationStayAtTheForecast) {
  AnalysisFixture fx(0xD00DULL);
  // Re-position every observation into the domain's south-west corner so
  // a tight radius leaves the north-east tile with zero tapered
  // observations (only the positions feed the taper; the stencils are
  // irrelevant to a tile the taper excludes them from).
  std::vector<esse::ObsEntry> corner;
  for (esse::ObsEntry e : fx.obs_set.entries()) {
    e.x_km = std::min(e.x_km, 25.0);
    e.y_km = std::min(e.y_km, 25.0);
    corner.push_back(std::move(e));
  }
  const esse::ObsSet corner_set{std::move(corner)};

  esse::AnalysisOptions options;
  options.localization.enabled = true;
  options.localization.radius_km = 8.0;  // influence dies at 16 km
  options.tiling = {3, 3, 1};
  options.grid = &fx.sc.grid;
  const esse::AnalysisResult tiled =
      esse::analyze(fx.forecast, fx.subspace, corner_set, options);

  // The far corner cell (nx-1, ny-1) is > 2·radius from every corner
  // observation and owned by a tile none of them reaches: its posterior
  // must equal the forecast exactly, in every variable and level.
  const ocean::Tiling tiling(fx.sc.grid, options.tiling);
  const std::size_t ix = fx.sc.grid.nx() - 1;
  const std::size_t iy = fx.sc.grid.ny() - 1;
  for (std::size_t var = 0; var < 4; ++var) {
    for (std::size_t iz = 0; iz < fx.sc.grid.nz(); ++iz) {
      const std::size_t idx = tiling.var_index(var, ix, iy, iz);
      EXPECT_EQ(tiled.posterior_state[idx], fx.forecast[idx]);
    }
  }
  EXPECT_EQ(tiled.posterior_state[tiling.ssh_index(ix, iy)],
            fx.forecast[tiling.ssh_index(ix, iy)]);
}

// ---------------------------------------------------------------------
// The sharded differ.

TEST(ShardedDiffer, MatchesTheUntiledSubspaceAndIgnoresArrivalOrder) {
  const ocean::Grid3D grid(9, 7, 5.0, 5.0, {0.0, 15.0});
  auto tiling = std::make_shared<const ocean::Tiling>(
      grid, ocean::TilingParams{3, 2, 1});
  const std::size_t m = tiling->packed_size();

  Rng rng(0x7117ULL);
  la::Vector central(m);
  for (auto& x : central) x = rng.normal();
  constexpr std::size_t kMembers = 10;
  std::vector<la::Vector> members(kMembers, central);
  for (auto& xf : members)
    for (auto& x : xf) x += 0.3 * rng.normal();

  esse::Differ plain(central);
  esse::Differ tiled(central, tiling);
  esse::Differ shuffled(central, tiling);
  for (std::size_t id = 0; id < kMembers; ++id) {
    plain.add_member(id, members[id]);
    tiled.add_member(id, members[id]);
  }
  // Reverse arrival into the third differ: the canonical member order,
  // not the realised one, defines the reductions.
  for (std::size_t id = kMembers; id-- > 0;)
    shuffled.add_member(id, members[id]);

  const esse::ErrorSubspace sub_plain = plain.subspace(0.99, 6);
  const esse::ErrorSubspace sub_tiled = tiled.subspace(0.99, 6);
  const esse::ErrorSubspace sub_shuffled = shuffled.subspace(0.99, 6);

  // Sharded reductions reassociate the sums, so tiled-vs-plain agrees to
  // round-off, not bitwise.
  EXPECT_GE(esse::subspace_similarity(sub_plain, sub_tiled), 1.0 - 1e-9);
  // But for a fixed tiling the reduction shape is fixed: arrival order
  // must not change a single bit.
  EXPECT_EQ(sub_tiled.modes().data(), sub_shuffled.modes().data());
  EXPECT_TRUE(bitwise_equal(sub_tiled.sigmas(), sub_shuffled.sigmas()));
}

// ---------------------------------------------------------------------
// Workflow validation of the new knobs.

TEST(Validation, FlagsBadLocalizationAndTilingKnobs) {
  ocean::Scenario sc = ocean::make_double_gyre_scenario(10, 8, 2);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  const esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 1.0, 4, 0.99, 4, /*seed=*/3);

  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.localization.enabled = true;
  cfg.cycle.localization.radius_km = 0.0;  // bad: enabled but zero radius
  workflow::ForecastRequest request{model, sc.initial, subspace, 0.0, cfg};

  auto has_issue = [](const std::vector<workflow::ValidationIssue>& issues,
                      const std::string& field) {
    return std::any_of(issues.begin(), issues.end(),
                       [&](const workflow::ValidationIssue& i) {
                         return i.field == field;
                       });
  };

  EXPECT_TRUE(has_issue(workflow::validate(request),
                        "config.cycle.localization.radius_km"));

  request.config.cycle.localization.radius_km = 20.0;
  EXPECT_TRUE(workflow::validate(request).empty());

  // Tile counts past the grid dims.
  request.config.cycle.tiling.tiles_x = sc.grid.nx() + 1;
  EXPECT_TRUE(
      has_issue(workflow::validate(request), "config.cycle.tiling.tiles_x"));
  request.config.cycle.tiling.tiles_x = 2;
  request.config.cycle.tiling.tiles_y = sc.grid.ny() + 1;
  EXPECT_TRUE(
      has_issue(workflow::validate(request), "config.cycle.tiling.tiles_y"));

  // Halo reaching past the smallest tile extent.
  request.config.cycle.tiling.tiles_y = 2;
  request.config.cycle.tiling.halo_cells = sc.grid.ny() / 2;
  EXPECT_TRUE(has_issue(workflow::validate(request),
                        "config.cycle.tiling.halo_cells"));
  request.config.cycle.tiling.halo_cells = 1;
  EXPECT_TRUE(workflow::validate(request).empty());

  // With localization off, the tiling geometry is dormant and accepted.
  request.config.cycle.localization.enabled = false;
  request.config.cycle.tiling.halo_cells = 100;
  EXPECT_TRUE(workflow::validate(request).empty());

  // Zero tile counts are rejected outright, enabled or not.
  request.config.cycle.tiling.tiles_x = 0;
  EXPECT_TRUE(
      has_issue(workflow::validate(request), "config.cycle.tiling.tiles_x"));
}
