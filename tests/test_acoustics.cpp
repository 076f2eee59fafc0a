// Unit + property tests: acoustics substrate (sound speed, slices, TL
// solver and its bitwise oracle, ensemble statistics and their fan-out,
// coupled covariance, climate task grid).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>

#include "acoustics/ensemble.hpp"
#include "acoustics/slice.hpp"
#include "acoustics/sound_speed.hpp"
#include "acoustics/tl_solver.hpp"
#include "common/error.hpp"
#include "common/proptest.hpp"
#include "common/rng.hpp"
#include "linalg/stats.hpp"
#include "linalg/svd.hpp"
#include "ocean/monterey.hpp"
#include "testkit/reference_tl.hpp"

namespace essex::acoustics {
namespace {

// ---- sound speed ------------------------------------------------------------

TEST(SoundSpeed, ReferenceValueAtStandardConditions) {
  // Hand-summed Mackenzie (1981) terms at T=10°C, S=35, D=1000 m:
  // 1448.96 + 45.91 − 5.304 + 0.2374 + 0 + 16.30 + 0.1675 − 0 − 0.00714
  EXPECT_NEAR(mackenzie_sound_speed(10.0, 35.0, 1000.0), 1506.264, 0.01);
  // Surface value at the same T/S: ≈ 1489.8 m/s (standard check).
  EXPECT_NEAR(mackenzie_sound_speed(10.0, 35.0, 0.0), 1489.8, 0.1);
}

TEST(SoundSpeed, IncreasesWithTemperatureSalinityDepth) {
  const double base = mackenzie_sound_speed(10, 34, 50);
  EXPECT_GT(mackenzie_sound_speed(14, 34, 50), base);
  EXPECT_GT(mackenzie_sound_speed(10, 36, 50), base);
  EXPECT_GT(mackenzie_sound_speed(10, 34, 500), base);
}

TEST(SoundSpeed, ClampsOutOfRangeInputs) {
  // Must not produce wild values for unphysical inputs.
  const double c = mackenzie_sound_speed(-40, 5, -100);
  EXPECT_GT(c, 1400);
  EXPECT_LT(c, 1600);
}

TEST(SoundSpeed, PlausibleRangeOverOceanConditions) {
  for (double t = 0; t <= 25; t += 5)
    for (double s = 30; s <= 36; s += 2)
      for (double d = 0; d <= 4000; d += 1000) {
        const double c = mackenzie_sound_speed(t, s, d);
        EXPECT_GT(c, 1400);
        EXPECT_LT(c, 1620);
      }
}

TEST(Thorp, AttenuationGrowsWithFrequency) {
  const double a1 = thorp_attenuation_db_per_km(1.0);
  const double a10 = thorp_attenuation_db_per_km(10.0);
  EXPECT_GT(a10, a1);
  // ~1 kHz attenuation is well below 0.2 dB/km.
  EXPECT_LT(a1, 0.2);
  EXPECT_GT(a1, 0.0);
}

// ---- slices ------------------------------------------------------------------

ocean::Scenario scenario() { return ocean::make_monterey_scenario(24, 20, 5); }

SliceGeometry cross_shore_slice(const ocean::Grid3D& grid) {
  SliceGeometry g;
  g.x0_km = 2.0;
  g.y0_km = grid.dy_km() * grid.ny() / 2.0;
  g.x1_km = grid.dx_km() * grid.nx() * 0.7;
  g.y1_km = g.y0_km;
  g.n_range = 40;
  g.n_depth = 24;
  g.max_depth_m = 180.0;
  return g;
}

TEST(Slice, GeometryHelpers) {
  SliceGeometry g;
  g.x0_km = 0;
  g.y0_km = 0;
  g.x1_km = 3;
  g.y1_km = 4;
  g.n_range = 11;
  g.n_depth = 5;
  g.max_depth_m = 100;
  EXPECT_DOUBLE_EQ(g.length_km(), 5.0);
  EXPECT_DOUBLE_EQ(g.range_step_m(), 500.0);
  EXPECT_DOUBLE_EQ(g.depth_step_m(), 25.0);
}

TEST(Slice, ExtractionProducesPhysicalSoundSpeeds) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  for (double c : s.c) {
    EXPECT_GT(c, 1430);
    EXPECT_LT(c, 1560);
  }
}

TEST(Slice, WarmSurfaceGivesFasterSoundThanThermocline) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  // In the offshore warm pool the surface is faster than mid-depth.
  EXPECT_GT(s.at(2, 0), s.at(2, s.geometry.n_depth / 2));
}

TEST(Slice, TemperatureCarriedAlongside) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  EXPECT_GT(s.temperature_at(0, 0), s.temperature_at(0, s.geometry.n_depth - 1));
}

TEST(Slice, ValidatesGeometry) {
  auto sc = scenario();
  SliceGeometry bad = cross_shore_slice(sc.grid);
  bad.x1_km = bad.x0_km;
  bad.y1_km = bad.y0_km;
  EXPECT_THROW(extract_slice(sc.grid, sc.initial, bad), PreconditionError);
  SliceGeometry tiny = cross_shore_slice(sc.grid);
  tiny.n_range = 1;
  EXPECT_THROW(extract_slice(sc.grid, sc.initial, tiny), PreconditionError);
}

// ---- TL solver ------------------------------------------------------------------

TEST(TlSolver, LossIncreasesWithRangeOnAverage) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams p;
  p.source_depth_m = 40;
  TLField tl = compute_tl(s, p);
  auto column_mean = [&](std::size_t ir) {
    double sum = 0;
    for (std::size_t iz = 0; iz < tl.geometry.n_depth; ++iz)
      sum += tl.at(ir, iz);
    return sum / static_cast<double>(tl.geometry.n_depth);
  };
  const double near = column_mean(3);
  const double far = column_mean(tl.geometry.n_range - 2);
  EXPECT_GT(far, near + 3.0);
}

TEST(TlSolver, HigherBottomLossRaisesTl) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams lossy;
  lossy.bottom_loss_db = 12.0;
  TLParams soft;
  soft.bottom_loss_db = 1.0;
  TLField tl_lossy = compute_tl(s, lossy);
  TLField tl_soft = compute_tl(s, soft);
  double mean_lossy = 0, mean_soft = 0;
  for (std::size_t i = 0; i < tl_lossy.tl.size(); ++i) {
    mean_lossy += tl_lossy.tl[i];
    mean_soft += tl_soft.tl[i];
  }
  EXPECT_GT(mean_lossy, mean_soft);
}

TEST(TlSolver, TlBoundedByConfiguredMax) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams p;
  p.max_tl_db = 100.0;
  TLField tl = compute_tl(s, p);
  for (double v : tl.tl) {
    EXPECT_LE(v, 100.0 + 1e-9);
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(TlSolver, ValidatesParams) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams p;
  p.n_rays = 2;
  EXPECT_THROW(compute_tl(s, p), PreconditionError);
  p = {};
  p.source_depth_m = 1e9;
  EXPECT_THROW(compute_tl(s, p), PreconditionError);
}

// Each out-of-range TLParams field is rejected with an error that names
// it, NaN included.
void expect_field_rejected(const TLParams& p, const std::string& field) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  try {
    compute_tl(s, p);
    ADD_FAILURE() << field << ": accepted";
  } catch (const essex::Error& e) {
    EXPECT_NE(std::string(e.what()).find("TLParams::" + field),
              std::string::npos)
        << e.what();
  }
}

TEST(TlSolver, RejectsNonPositiveBeamWidth) {
  for (double w : {0.0, -2.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    TLParams p;
    p.beam_width_m = w;
    expect_field_rejected(p, "beam_width_m");
  }
}

TEST(TlSolver, RejectsMaxAngleOutsideTheForwardHalfPlane) {
  for (double a : {0.0, -10.0, 90.0, 120.0,
                   std::numeric_limits<double>::quiet_NaN()}) {
    TLParams p;
    p.max_angle_deg = a;
    expect_field_rejected(p, "max_angle_deg");
  }
}

TEST(TlSolver, RejectsNonPositiveMaxTl) {
  for (double t : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    TLParams p;
    p.max_tl_db = t;
    expect_field_rejected(p, "max_tl_db");
  }
}

TEST(TlSolver, RejectsNegativeBottomLoss) {
  for (double l : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    TLParams p;
    p.bottom_loss_db = l;
    expect_field_rejected(p, "bottom_loss_db");
  }
}

TEST(TlSolver, RejectsNegativeSurfaceLoss) {
  for (double l : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    TLParams p;
    p.surface_loss_db = l;
    expect_field_rejected(p, "surface_loss_db");
  }
}

TEST(TlSolver, BroadbandAveragesIntensity) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLParams p;
  TLField bb = compute_broadband_tl(s, p, {0.5, 1.0, 2.0});
  TLField f1 = compute_tl(s, [&] {
    TLParams q = p;
    q.frequency_khz = 0.5;
    return q;
  }());
  // Broadband is a smooth average: bounded by the per-frequency extremes
  // wherever the field is insonified.
  EXPECT_EQ(bb.tl.size(), f1.tl.size());
  EXPECT_THROW(compute_broadband_tl(s, p, {}), PreconditionError);
}

TEST(TlSolver, FieldConversionTransposesToRangeDepth) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  TLField tl = compute_tl(s, {});
  Field2D f = tl.to_field();
  EXPECT_EQ(f.nx, tl.geometry.n_range);
  EXPECT_EQ(f.ny, tl.geometry.n_depth);
  EXPECT_DOUBLE_EQ(f.at(5, 3), tl.at(5, 3));
}

// ---- TL solver bitwise oracle -------------------------------------------------
//
// compute_tl must reproduce the frozen reference solver
// (testkit::reference_compute_tl) bit for bit over generated slices:
// small meshes, strong and noisy sound-speed gradients so rays refract
// hard and bounce off both boundaries, sources at the surface and the
// bottom, and beams one to three cells wide.

template <typename A, typename B>
bool bitwise_equal(const A& a, const B& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct TlCase {
  SoundSpeedSlice slice;
  TLParams params;
};

std::string describe_tl_case(const TlCase& c) {
  const SliceGeometry& g = c.slice.geometry;
  const TLParams& p = c.params;
  std::ostringstream os;
  os << g.n_range << "x" << g.n_depth << " length=" << g.length_km()
     << "km depth=" << g.max_depth_m << "m source=" << p.source_depth_m
     << "m rays=" << p.n_rays << " angle=" << p.max_angle_deg
     << " beam=" << p.beam_width_m << "m f=" << p.frequency_khz
     << "kHz losses=" << p.surface_loss_db << "/" << p.bottom_loss_db
     << " max_tl=" << p.max_tl_db;
  return os.str();
}

testkit::Gen<TlCase> gen_tl_case() {
  testkit::Gen<TlCase> gen;
  gen.create = [](Rng& rng) {
    TlCase c;
    SliceGeometry& g = c.slice.geometry;
    g.x1_km = rng.uniform(0.3, 4.0);
    g.n_range = 2 + rng.uniform_index(11);
    g.n_depth = 2 + rng.uniform_index(9);
    g.max_depth_m = rng.uniform(20.0, 200.0);
    // Linear + quadratic profile in depth, a range trend and cell noise:
    // gradients far stronger than the ocean's.
    const double a = rng.uniform(-80.0, 80.0);
    const double b = rng.uniform(-60.0, 60.0);
    const double trend = rng.uniform(-20.0, 20.0);
    const double noise = rng.uniform(0.0, 6.0);
    c.slice.c.resize(g.n_range * g.n_depth);
    c.slice.t.assign(g.n_range * g.n_depth, 10.0);
    for (std::size_t ir = 0; ir < g.n_range; ++ir)
      for (std::size_t iz = 0; iz < g.n_depth; ++iz) {
        const double zf = static_cast<double>(iz) /
                          static_cast<double>(g.n_depth - 1);
        const double rf = static_cast<double>(ir) /
                          static_cast<double>(g.n_range - 1);
        c.slice.c[ir * g.n_depth + iz] =
            1500.0 + a * zf + b * zf * zf + trend * rf + noise * rng.normal();
      }
    TLParams& p = c.params;
    const double pick = rng.uniform();
    p.source_depth_m = pick < 0.25   ? 0.0
                       : pick < 0.5 ? g.max_depth_m
                                    : rng.uniform(0.0, g.max_depth_m);
    p.n_rays = 3 + rng.uniform_index(14);
    // Fans wider than ±68.75° start rays beyond the march's ±1.2 rad
    // clamp.
    p.max_angle_deg = rng.uniform(2.0, 80.0);
    p.frequency_khz = rng.uniform(0.1, 10.0);
    p.bottom_loss_db = rng.uniform(0.0, 12.0);
    p.surface_loss_db = rng.uniform(0.0, 3.0);
    // 2·width/dz spans 0.3–3.4: beams of one to three cells, the
    // narrowest widened to one cell by the solver's floor.
    p.beam_width_m = g.depth_step_m() * rng.uniform(0.15, 1.7);
    p.max_tl_db = rng.uniform(40.0, 140.0);
    return c;
  };
  gen.describe = describe_tl_case;
  return gen;
}

TEST(TlSolverOracle, ComputeTlIsBitwiseEqualToTheFrozenReference) {
  testkit::PropConfig cfg;
  cfg.name = "compute_tl == reference_compute_tl";
  cfg.cases = 300;
  const auto r = testkit::check(cfg, gen_tl_case(), [](const TlCase& c) {
    return bitwise_equal(compute_tl(c.slice, c.params).tl,
                         testkit::reference_compute_tl(c.slice, c.params).tl);
  });
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.cases_run, cfg.cases);
}

TEST(TlSolverOracle, GeneratedCasesBounceOffBothBoundaries) {
  // The oracle is only as strong as its cases: they must reflect rays off
  // the surface and the bottom (seen as TL that moves with that
  // boundary's loss), start rays steeper than the march's clamp, place
  // sources on both boundaries, and deposit beams one, two and three
  // cells wide, including beams under a cell that the solver widens.
  const auto gen = gen_tl_case();
  std::size_t surface = 0, bottom = 0, at_surface = 0, at_bottom = 0;
  std::size_t clamped = 0;
  bool spread[4] = {false, false, false, false};
  for (std::size_t i = 0; i < 300; ++i) {
    Rng rng(testkit::case_seed(testkit::PropConfig{}.seed, i));
    TlCase c = gen.create(rng);
    const double dz = c.slice.geometry.depth_step_m();
    const long s = std::lround(2.0 * c.params.beam_width_m / dz);
    if (s >= 0 && s <= 3) spread[s] = true;
    clamped += c.params.max_angle_deg * std::numbers::pi / 180.0 > 1.2;
    at_surface += c.params.source_depth_m == 0.0;
    at_bottom += c.params.source_depth_m == c.slice.geometry.max_depth_m;
    if (i % 3 != 0) continue;  // the loss probes below cost two solves
    const std::vector<double> base = compute_tl(c.slice, c.params).tl;
    TlCase louder = c;
    louder.params.surface_loss_db += 5.0;
    surface += !bitwise_equal(compute_tl(louder.slice, louder.params).tl, base);
    louder = c;
    louder.params.bottom_loss_db += 5.0;
    bottom += !bitwise_equal(compute_tl(louder.slice, louder.params).tl, base);
  }
  EXPECT_GE(surface, 50u);
  EXPECT_GE(bottom, 50u);
  EXPECT_GE(clamped, 30u);
  EXPECT_GE(at_surface, 30u);
  EXPECT_GE(at_bottom, 30u);
  EXPECT_TRUE(spread[0] && spread[1] && spread[2] && spread[3]);
}

TEST(TlSolver, RejectsNonFiniteSoundSpeeds) {
  auto sc = scenario();
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial,
                                    cross_shore_slice(sc.grid));
  s.c[s.c.size() / 2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(compute_tl(s, {}), PreconditionError);
  s.c[s.c.size() / 2] = 0.0;
  EXPECT_THROW(compute_tl(s, {}), PreconditionError);
}

// ---- ensembles ----------------------------------------------------------------------

std::vector<la::Vector> perturbed_realizations(const ocean::Scenario& sc,
                                               std::size_t n) {
  Rng rng(42);
  std::vector<la::Vector> out;
  for (std::size_t i = 0; i < n; ++i) {
    ocean::OceanState s = sc.initial;
    // Perturb the thermocline strength: realistic T uncertainty.
    const double amp = 0.5 * rng.normal();
    for (std::size_t iz = 0; iz < sc.grid.nz(); ++iz) {
      const double w = std::exp(-sc.grid.depths()[iz] / 60.0);
      for (std::size_t iy = 0; iy < sc.grid.ny(); ++iy)
        for (std::size_t ix = 0; ix < sc.grid.nx(); ++ix)
          s.temperature[sc.grid.index(ix, iy, iz)] += amp * w;
    }
    out.push_back(s.pack());
  }
  return out;
}

TEST(TlEnsemble, StatsHaveCorrectShapeAndNonNegativeStd) {
  auto sc = scenario();
  auto reals = perturbed_realizations(sc, 8);
  SliceGeometry geom = cross_shore_slice(sc.grid);
  TLParams p;
  TLEnsembleStats stats = tl_ensemble_stats(sc.grid, reals, geom, p);
  EXPECT_EQ(stats.n_members, 8u);
  EXPECT_EQ(stats.mean_tl.size(), geom.n_range * geom.n_depth);
  for (double sd : stats.std_tl) EXPECT_GE(sd, 0.0);
  // Ocean uncertainty must induce *some* acoustic uncertainty.
  double max_sd = 0;
  for (double sd : stats.std_tl) max_sd = std::max(max_sd, sd);
  EXPECT_GT(max_sd, 0.01);
}

TEST(TlEnsemble, IdenticalMembersGiveZeroStd) {
  auto sc = scenario();
  std::vector<la::Vector> reals(4, sc.initial.pack());
  TLEnsembleStats stats = tl_ensemble_stats(
      sc.grid, reals, cross_shore_slice(sc.grid), {});
  for (double sd : stats.std_tl) EXPECT_NEAR(sd, 0.0, 1e-9);
}

TEST(TlEnsemble, RequiresTwoMembers) {
  auto sc = scenario();
  std::vector<la::Vector> one(1, sc.initial.pack());
  EXPECT_THROW(
      tl_ensemble_stats(sc.grid, one, cross_shore_slice(sc.grid), {}),
      PreconditionError);
}

TEST(TlEnsemble, FanOutIsBitwiseTheSerialLoop) {
  // Both ensemble calls trace their fields on several workers; the
  // result must be bit for bit what a serial loop over the frozen
  // reference solver gives, reduced in realisation order.
  auto sc = scenario();
  const auto reals = perturbed_realizations(sc, 7);
  SliceGeometry geom = cross_shore_slice(sc.grid);
  geom.n_range = 24;
  geom.n_depth = 16;
  TLParams p;
  p.n_rays = 41;
  const std::size_t np = geom.n_range * geom.n_depth;

  std::vector<SoundSpeedSlice> slices;
  std::vector<std::vector<double>> fields;
  ocean::OceanState state(sc.grid);
  for (const auto& x : reals) {
    state.unpack(x, sc.grid);
    slices.push_back(extract_slice(sc.grid, state, geom));
    fields.push_back(testkit::reference_compute_tl(slices.back(), p).tl);
  }

  // tl_ensemble_stats: mean, then unbiased std, in realisation order.
  std::vector<double> mean(np, 0.0), sd(np, 0.0);
  for (const auto& f : fields)
    for (std::size_t i = 0; i < np; ++i) mean[i] += f[i];
  const double inv_n = 1.0 / static_cast<double>(fields.size());
  for (auto& v : mean) v *= inv_n;
  for (const auto& f : fields)
    for (std::size_t i = 0; i < np; ++i) {
      const double d = f[i] - mean[i];
      sd[i] += d * d;
    }
  const double inv_n1 = 1.0 / static_cast<double>(fields.size() - 1);
  for (auto& v : sd) v = std::sqrt(v * inv_n1);
  const TLEnsembleStats stats = tl_ensemble_stats(sc.grid, reals, geom, p);
  EXPECT_TRUE(bitwise_equal(stats.mean_tl, mean));
  EXPECT_TRUE(bitwise_equal(stats.std_tl, sd));

  // coupled_covariance: joint (T, TL) columns, non-dimensionalised by
  // each block's pooled anomaly RMS, then the thin SVD.
  std::vector<la::Vector> joints;
  for (std::size_t m = 0; m < reals.size(); ++m) {
    la::Vector joint(2 * np);
    for (std::size_t i = 0; i < np; ++i) {
      joint[i] = slices[m].t[i];
      joint[np + i] = fields[m][i];
    }
    joints.push_back(std::move(joint));
  }
  la::Matrix a = la::Matrix::from_columns(joints);
  a = la::anomalies_about(a, la::column_mean(a));
  auto block_rms = [&](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t j = 0; j < a.cols(); ++j) {
        s += a(i, j) * a(i, j);
        ++n;
      }
    return std::sqrt(s / static_cast<double>(n));
  };
  const double t_scale = std::max(block_rms(0, np), 1e-12);
  const double tl_scale = std::max(block_rms(np, 2 * np), 1e-12);
  for (std::size_t i = 0; i < np; ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) /= t_scale;
      a(np + i, j) /= tl_scale;
    }
  a *= 1.0 / std::sqrt(static_cast<double>(a.cols() - 1));
  const la::ThinSvd svd = la::svd_thin(a, la::SvdMethod::kGram);
  const esse::ErrorSubspace modes =
      esse::ErrorSubspace::from_svd(svd.u, svd.s, 0.999, 4);

  const CoupledCovariance cov = coupled_covariance(sc.grid, reals, geom, p, 4);
  EXPECT_EQ(cov.t_scale, t_scale);
  EXPECT_EQ(cov.tl_scale, tl_scale);
  EXPECT_TRUE(bitwise_equal(cov.modes.modes().data(), modes.modes().data()));
  EXPECT_TRUE(bitwise_equal(cov.modes.sigmas(), modes.sigmas()));
}

TEST(TlEnsemble, NonFiniteRealizationIsRejected) {
  // One all-NaN realisation among three: both calls must refuse it by
  // index instead of returning finite statistics or failing deep inside
  // the SVD.
  auto sc = ocean::make_monterey_scenario(24, 20, 4);
  auto reals = perturbed_realizations(sc, 3);
  std::fill(reals[1].begin(), reals[1].end(),
            std::numeric_limits<double>::quiet_NaN());
  const SliceGeometry geom = cross_shore_slice(sc.grid);
  const auto expect_rejected = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "a NaN realisation was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("realization 1 is not finite"),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected([&] { tl_ensemble_stats(sc.grid, reals, geom, {}); });
  expect_rejected([&] { coupled_covariance(sc.grid, reals, geom, {}, 4); });
  reals[1] = reals[0];
  reals[1][reals[1].size() / 2] = std::numeric_limits<double>::infinity();
  expect_rejected([&] { tl_ensemble_stats(sc.grid, reals, geom, {}); });
}

TEST(TlEnsemble, InvalidParamsInsideAWorkerSurfaceAsPreconditionError) {
  // compute_tl validates its parameters on the worker that traces the
  // field; the caller must still see the PreconditionError.
  auto sc = scenario();
  const auto reals = perturbed_realizations(sc, 4);
  const SliceGeometry geom = cross_shore_slice(sc.grid);
  TLParams p;
  p.n_rays = 2;
  EXPECT_THROW(tl_ensemble_stats(sc.grid, reals, geom, p), PreconditionError);
  EXPECT_THROW(coupled_covariance(sc.grid, reals, geom, p, 4),
               PreconditionError);
  p = {};
  p.source_depth_m = -1.0;
  EXPECT_THROW(tl_ensemble_stats(sc.grid, reals, geom, p), PreconditionError);
}

TEST(CoupledCovariance, CapturesPhysicalAcousticalCoupling) {
  auto sc = scenario();
  auto reals = perturbed_realizations(sc, 10);
  SliceGeometry geom = cross_shore_slice(sc.grid);
  CoupledCovariance cov = coupled_covariance(sc.grid, reals, geom, {}, 6);
  EXPECT_GT(cov.modes.rank(), 0u);
  EXPECT_LE(cov.modes.rank(), 6u);
  EXPECT_EQ(cov.modes.dim(), 2 * geom.n_range * geom.n_depth);
  EXPECT_GT(cov.t_scale, 0.0);
  EXPECT_GT(cov.tl_scale, 0.0);
  // Temperature shifts move TL → off-diagonal coupling is nonzero.
  EXPECT_GT(cov.coupling_strength(), 1e-4);
}

TEST(CoupledCovariance, UncoupledForIdenticalAcoustics) {
  // If TL never varies (identical members), coupling must vanish.
  auto sc = scenario();
  std::vector<la::Vector> reals(3, sc.initial.pack());
  // Identical members leave only float dust (the non-dimensionalisation
  // divides by a near-zero spread); coupling must be negligible compared
  // with the >1e-2 strengths of genuinely coupled ensembles.
  CoupledCovariance cov = coupled_covariance(
      sc.grid, reals, cross_shore_slice(sc.grid), {}, 4);
  EXPECT_NEAR(cov.coupling_strength(), 0.0, 1e-3);
}

TEST(AcousticClimate, TaskGridEnumeratesFullCross) {
  auto sc = scenario();
  auto tasks = acoustic_climate_tasks(sc.grid, 5, {10.0, 40.0},
                                      {0.5, 1.0, 2.0});
  EXPECT_EQ(tasks.size(), 5u * 2u * 3u);
  // Slices stacked at distinct latitudes.
  EXPECT_NE(tasks.front().slice.y0_km, tasks.back().slice.y0_km);
  EXPECT_THROW(acoustic_climate_tasks(sc.grid, 0, {10.0}, {1.0}),
               PreconditionError);
}

TEST(AcousticClimate, TasksAreComputable) {
  auto sc = scenario();
  auto tasks = acoustic_climate_tasks(sc.grid, 1, {30.0}, {1.0});
  ASSERT_EQ(tasks.size(), 1u);
  SoundSpeedSlice s = extract_slice(sc.grid, sc.initial, tasks[0].slice);
  TLParams p;
  p.source_depth_m = tasks[0].source_depth_m;
  p.frequency_khz = tasks[0].frequency_khz;
  EXPECT_NO_THROW(compute_tl(s, p));
}

}  // namespace
}  // namespace essex::acoustics
