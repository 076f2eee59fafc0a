// Gap-fill unit coverage for the three least-exercised esse modules —
// smoother, adaptive_sampling, tangent — plus the analysis edge cases
// the scenario harness depends on: zero observations must be rejected
// cleanly and rank-deficient subspaces must assimilate without blowing
// up. Domain values come from the testkit generators so every sweep is
// seed-reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/proptest.hpp"
#include "esse/adaptive_sampling.hpp"
#include "esse/analysis.hpp"
#include "esse/cycle.hpp"
#include "esse/smoother.hpp"
#include "esse/tangent.hpp"
#include "linalg/qr.hpp"
#include "ocean/monterey.hpp"
#include "ocean/state.hpp"
#include "testkit/generators.hpp"

namespace tk = essex::testkit;
using essex::Rng;
using essex::esse::ErrorSubspace;
using essex::la::Matrix;
using essex::la::Vector;

namespace {

Vector matvec_cols(const Matrix& a, const Vector& c) {
  Vector y(a.rows(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) y[i] += a(i, j) * c[j];
  return y;
}

essex::esse::SpreadSnapshot snapshot(const Matrix& anomalies,
                                     std::vector<std::size_t> ids) {
  essex::esse::SpreadSnapshot s;
  s.anomalies = anomalies;
  s.member_ids = std::move(ids);
  return s;
}

}  // namespace

// ---- smoother -----------------------------------------------------------

class SmootherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(tk::case_seed(0x5300, 0));
    a0_ = tk::gen_matrix(8, 8, 4, 4).create(rng);
    a1_ = tk::gen_matrix(8, 8, 4, 4).create(rng);
    past_state_ = Vector(8, 1.0);
    forecast_ = Vector(8, 0.0);
  }

  Matrix a0_{1, 1}, a1_{1, 1};
  Vector past_state_, forecast_;
  const std::vector<std::size_t> ids_{0, 1, 2, 3};
};

TEST_F(SmootherTest, InSubspaceCorrectionIsFullyRepresentable) {
  const Vector delta = matvec_cols(a1_, {1.0, -0.5, 0.25, 0.1});
  Vector smoothed = forecast_;
  for (std::size_t i = 0; i < smoothed.size(); ++i) smoothed[i] += delta[i];

  const auto r = essex::esse::smooth_state(snapshot(a0_, ids_), past_state_,
                                           snapshot(a1_, ids_), forecast_,
                                           smoothed);
  EXPECT_NEAR(r.representable_fraction, 1.0, 1e-9);
  EXPECT_GT(r.increment_rms, 0.0);
  double rms = 0;
  for (std::size_t i = 0; i < past_state_.size(); ++i) {
    const double d = r.smoothed_state[i] - past_state_[i];
    rms += d * d;
  }
  rms = std::sqrt(rms / static_cast<double>(past_state_.size()));
  EXPECT_NEAR(r.increment_rms, rms, 1e-12);
}

TEST_F(SmootherTest, OrthogonalCorrectionLeavesPastStateUntouched) {
  // Project a random direction out of span(A1): the smoother can carry
  // none of it backward.
  essex::la::Matrix q = a1_;
  essex::la::orthonormalize_columns(q);
  Rng rng(tk::case_seed(0x5300, 1));
  Vector delta(8);
  for (auto& v : delta) v = rng.normal();
  for (std::size_t j = 0; j < q.cols(); ++j) {
    double dot = 0;
    for (std::size_t i = 0; i < 8; ++i) dot += q(i, j) * delta[i];
    for (std::size_t i = 0; i < 8; ++i) delta[i] -= dot * q(i, j);
  }
  Vector smoothed = forecast_;
  for (std::size_t i = 0; i < smoothed.size(); ++i) smoothed[i] += delta[i];

  const auto r = essex::esse::smooth_state(snapshot(a0_, ids_), past_state_,
                                           snapshot(a1_, ids_), forecast_,
                                           smoothed);
  EXPECT_NEAR(r.representable_fraction, 0.0, 1e-9);
  EXPECT_NEAR(r.increment_rms, 0.0, 1e-9);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(r.smoothed_state[i], past_state_[i], 1e-9);
}

TEST_F(SmootherTest, ZeroCorrectionIsAFixedPoint) {
  const auto r = essex::esse::smooth_state(snapshot(a0_, ids_), past_state_,
                                           snapshot(a1_, ids_), forecast_,
                                           forecast_);
  EXPECT_EQ(r.increment_rms, 0.0);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(r.smoothed_state[i], past_state_[i]);
}

TEST_F(SmootherTest, ColumnsAreMatchedByMemberIdNotPosition) {
  const Vector delta = matvec_cols(a1_, {0.5, 0.5, -1.0, 0.2});
  Vector smoothed = forecast_;
  for (std::size_t i = 0; i < smoothed.size(); ++i) smoothed[i] += delta[i];
  const auto ref = essex::esse::smooth_state(snapshot(a0_, ids_), past_state_,
                                             snapshot(a1_, ids_), forecast_,
                                             smoothed);

  // Same present snapshot with columns stored in a different order.
  Matrix shuffled(8, 4);
  const std::vector<std::size_t> perm{2, 0, 3, 1};
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 8; ++i) shuffled(i, j) = a1_(i, perm[j]);
  const auto got = essex::esse::smooth_state(
      snapshot(a0_, ids_), past_state_,
      snapshot(shuffled, {2, 0, 3, 1}), forecast_, smoothed);

  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(got.smoothed_state[i], ref.smoothed_state[i], 1e-12);
}

TEST_F(SmootherTest, RejectsFewerThanTwoCommonMembers) {
  Matrix one_col(8, 1);
  for (std::size_t i = 0; i < 8; ++i) one_col(i, 0) = a1_(i, 0);
  EXPECT_THROW(
      essex::esse::smooth_state(snapshot(a0_, ids_), past_state_,
                                snapshot(one_col, {7}), forecast_, forecast_),
      essex::PreconditionError);
}

// ---- adaptive sampling --------------------------------------------------

class AdaptiveSamplingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sc_ = essex::ocean::make_double_gyre_scenario(8, 8, 2);
    const std::size_t dim =
        essex::ocean::OceanState::packed_size(sc_->grid);
    Rng rng(tk::case_seed(0xAD4, 0));
    Matrix modes = tk::gen_matrix(dim, dim, 3, 3).create(rng);
    essex::la::orthonormalize_columns(modes);
    subspace_ = ErrorSubspace(std::move(modes), {2.0, 1.0, 0.5});

    for (double x : {10.0, 25.0, 40.0}) {
      essex::obs::Observation ob;
      ob.kind = essex::obs::VarKind::kTemperature;
      ob.x_km = x;
      ob.y_km = 30.0;
      ob.depth_m = 0.0;
      ob.noise_std = 0.2;
      catalogue_.push_back(ob);
    }
  }

  std::optional<essex::ocean::Scenario> sc_;
  ErrorSubspace subspace_;
  essex::obs::ObservationSet catalogue_;
};

TEST_F(AdaptiveSamplingTest, TraceIsMonotoneAlongThePickSequence) {
  essex::obs::ObsOperator cands(sc_->grid, catalogue_);
  const auto plan = essex::esse::plan_adaptive_sampling(subspace_, cands, 3);
  ASSERT_FALSE(plan.chosen.empty());
  EXPECT_LE(plan.chosen.size(), 3u);
  EXPECT_NEAR(plan.initial_trace, subspace_.total_variance(), 1e-12);
  double prev = plan.initial_trace;
  for (double t : plan.trace_after) {
    EXPECT_LE(t, prev + 1e-12);
    prev = t;
  }
  EXPECT_NEAR(plan.trace_after.back(), plan.final_trace, 1e-12);
  // Picks are distinct candidate indices.
  auto chosen = plan.chosen;
  std::sort(chosen.begin(), chosen.end());
  EXPECT_EQ(std::adjacent_find(chosen.begin(), chosen.end()), chosen.end());
}

TEST_F(AdaptiveSamplingTest, FirstPickMaximisesSingleCandidateReduction) {
  essex::obs::ObsOperator cands(sc_->grid, catalogue_);
  const auto plan = essex::esse::plan_adaptive_sampling(subspace_, cands, 1);
  ASSERT_EQ(plan.chosen.size(), 1u);
  const double best = essex::esse::candidate_trace_reduction(
      subspace_, cands, plan.chosen[0]);
  for (std::size_t i = 0; i < cands.count(); ++i) {
    EXPECT_GE(best + 1e-12,
              essex::esse::candidate_trace_reduction(subspace_, cands, i));
  }
  EXPECT_NEAR(plan.final_trace, plan.initial_trace - best, 1e-9);
}

TEST_F(AdaptiveSamplingTest, SharperInstrumentsReduceMoreVariance) {
  essex::obs::ObservationSet sharp = catalogue_, blunt = catalogue_;
  for (auto& ob : sharp) ob.noise_std = 0.05;
  for (auto& ob : blunt) ob.noise_std = 5.0;
  essex::obs::ObsOperator hs(sc_->grid, sharp);
  essex::obs::ObsOperator hb(sc_->grid, blunt);
  for (std::size_t i = 0; i < catalogue_.size(); ++i) {
    EXPECT_GT(essex::esse::candidate_trace_reduction(subspace_, hs, i),
              essex::esse::candidate_trace_reduction(subspace_, hb, i));
  }
}

TEST_F(AdaptiveSamplingTest, BudgetBeyondCatalogueJustTakesEverything) {
  essex::obs::ObsOperator cands(sc_->grid, catalogue_);
  const auto plan =
      essex::esse::plan_adaptive_sampling(subspace_, cands, 100);
  EXPECT_LE(plan.chosen.size(), catalogue_.size());
  EXPECT_LT(plan.final_trace, plan.initial_trace);
}

// ---- tangent-linear subspace forecast -----------------------------------

TEST(TangentForecast, RunsRankPlusOneModelsAndKeepsSubspaceInvariants) {
  const auto sc = essex::ocean::make_double_gyre_scenario(10, 8, 3);
  essex::ocean::OceanModel model(sc.grid, sc.params,
                                 essex::ocean::WindForcing(sc.wind),
                                 sc.initial);
  const ErrorSubspace initial = essex::esse::bootstrap_subspace(
      model, sc.initial, 0.0, 2.0, 6, 0.99, 4, /*seed=*/21);

  const auto tf =
      essex::esse::tangent_forecast(model, sc.initial, initial, 0.0, 2.0);
  EXPECT_EQ(tf.model_runs, initial.rank() + 1);
  EXPECT_EQ(tf.central_forecast.size(), initial.dim());
  ASSERT_FALSE(tf.forecast_subspace.empty());
  EXPECT_EQ(tf.forecast_subspace.dim(), initial.dim());
  const Vector& sig = tf.forecast_subspace.sigmas();
  for (std::size_t i = 1; i < sig.size(); ++i) EXPECT_LE(sig[i], sig[i - 1]);
  for (double s : sig) EXPECT_TRUE(std::isfinite(s));

  // The deterministic central forecast matches an independent model run.
  essex::ocean::OceanState truth = sc.initial;
  model.run(truth, 0.0, 2.0);
  const Vector packed = truth.pack();
  ASSERT_EQ(packed.size(), tf.central_forecast.size());
  for (std::size_t i = 0; i < packed.size(); ++i)
    EXPECT_EQ(packed[i], tf.central_forecast[i]);
}

TEST(TangentForecast, MaxRankCapsTheForecastSubspace) {
  const auto sc = essex::ocean::make_double_gyre_scenario(10, 8, 3);
  essex::ocean::OceanModel model(sc.grid, sc.params,
                                 essex::ocean::WindForcing(sc.wind),
                                 sc.initial);
  const ErrorSubspace initial = essex::esse::bootstrap_subspace(
      model, sc.initial, 0.0, 2.0, 6, 0.99, 5, /*seed=*/22);
  ASSERT_GE(initial.rank(), 2u);

  const auto tf = essex::esse::tangent_forecast(
      model, sc.initial, initial, 0.0, 2.0, 1.0, /*threads=*/1,
      /*variance_fraction=*/1.0, /*max_rank=*/2);
  EXPECT_LE(tf.forecast_subspace.rank(), 2u);
}

// ---- analysis edge cases ------------------------------------------------

TEST(AnalysisEdgeCases, ZeroObservationsAreRejectedCleanly) {
  Rng rng(tk::case_seed(0xA7A, 0));
  const ErrorSubspace subspace = tk::gen_subspace().create(rng);
  Vector forecast(subspace.dim(), 0.0);

  const auto sc = essex::ocean::make_double_gyre_scenario(8, 8, 2);
  essex::obs::ObsOperator empty_h(sc.grid, essex::obs::ObservationSet{});
  Vector packed_forecast(
      essex::ocean::OceanState::packed_size(sc.grid), 0.0);
  EXPECT_THROW(essex::esse::analyze(packed_forecast,
                                    tk::gen_subspace({
                                        /*dim_lo=*/packed_forecast.size(),
                                        /*dim_hi=*/packed_forecast.size(),
                                    }).create(rng),
                                    empty_h),
               essex::PreconditionError);
  EXPECT_THROW(essex::esse::analyze(forecast, subspace,
                                    essex::esse::ObsSet::from_linear({})),
               essex::PreconditionError);
}

TEST(AnalysisEdgeCases, RankDeficientSubspacesAssimilateWithoutBlowup) {
  tk::SubspaceOpts opts;
  opts.dim_lo = 6;
  opts.dim_hi = 20;
  opts.rank_lo = 2;
  opts.rank_hi = 6;
  opts.allow_rank_deficient = true;
  opts.allow_degenerate = true;

  tk::PropConfig cfg;
  cfg.name = "rank-deficient-analysis";
  cfg.cases = 60;
  const auto r = tk::check(
      cfg, tk::gen_subspace(opts), [](const ErrorSubspace& s) {
        Rng inner(0xC0FFEE ^ s.dim() ^ (s.rank() << 8));
        Vector forecast(s.dim());
        for (auto& v : forecast) v = inner.normal();
        std::vector<essex::esse::LinearObservation> obs;
        for (int i = 0; i < 3; ++i) {
          essex::esse::LinearObservation ob;
          ob.stencil = {{inner.uniform_index(s.dim()), 1.0}};
          ob.value = inner.normal();
          ob.variance = 0.25;
          obs.push_back(ob);
        }
        const auto a = essex::esse::analyze(
            forecast, s, essex::esse::ObsSet::from_linear(obs));
        if (a.posterior_trace > a.prior_trace + 1e-9) return false;
        if (a.posterior_trace < 0) return false;
        for (double v : a.posterior_state)
          if (!std::isfinite(v)) return false;
        for (double v : a.posterior_subspace.sigmas())
          if (!std::isfinite(v) || v < 0) return false;
        return true;
      });
  ASSERT_TRUE(r.ok) << r.message;
}
