// Tests: thread-parallel kernels, the EC2 autoscaler, and the
// tangent-linear subspace forecast.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/cycle.hpp"
#include "esse/tangent.hpp"
#include "linalg/parallel_kernels.hpp"
#include "mtc/autoscaler.hpp"
#include "ocean/monterey.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex {
namespace {

la::Matrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  la::Matrix a(m, n);
  for (auto& x : a.data()) x = rng.normal();
  return a;
}

double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix d = a;
  d -= b;
  return d.max_abs();
}

// ---- parallel kernels ----------------------------------------------------------

class ParallelKernelShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ParallelKernelShapes, GramMatchesSerialToRounding) {
  auto [m, p, n] = GetParam();
  Rng rng(1);
  la::Matrix a = random_matrix(m, p, rng);
  la::Matrix b = random_matrix(m, n, rng);
  ThreadPool pool(3);
  la::Matrix par = la::matmul_at_b_parallel(a, b, pool);
  la::Matrix ser = la::matmul_at_b(a, b);
  EXPECT_LT(max_abs_diff(par, ser), 1e-10 * std::max(1.0, ser.max_abs()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelKernelShapes,
                         ::testing::Values(std::tuple{1, 3, 2},
                                           std::tuple{7, 4, 5},
                                           std::tuple{100, 8, 8},
                                           std::tuple{1000, 16, 12}));

TEST(ParallelKernels, MatmulMatchesSerial) {
  Rng rng(2);
  la::Matrix a = random_matrix(57, 23, rng);
  la::Matrix b = random_matrix(23, 9, rng);
  ThreadPool pool(4);
  EXPECT_LT(max_abs_diff(la::matmul_parallel(a, b, pool),
                         la::matmul(a, b)),
            1e-11);
}

TEST(ParallelKernels, GramSvdMatchesSerialSvd) {
  Rng rng(3);
  la::Matrix a = random_matrix(300, 12, rng);
  ThreadPool pool(3);
  la::ThinSvd par = la::svd_gram_parallel(a, pool);
  la::ThinSvd ser = la::svd_thin(a, la::SvdMethod::kGram);
  for (std::size_t j = 0; j < ser.s.size(); ++j)
    EXPECT_NEAR(par.s[j], ser.s[j], 1e-8 * ser.s[0]);
  EXPECT_LT(max_abs_diff(par.reconstruct(), a), 1e-6);
}

TEST(ParallelKernels, ValidatesShapes) {
  ThreadPool pool(2);
  EXPECT_THROW(
      la::matmul_at_b_parallel(la::Matrix(3, 2), la::Matrix(4, 2), pool),
      PreconditionError);
  EXPECT_THROW(la::svd_gram_parallel(la::Matrix(2, 5), pool),
               PreconditionError);
}

// ---- autoscaler -----------------------------------------------------------------

TEST(Autoscaler, CompletesAllMembers) {
  mtc::EsseJobShape shape;
  mtc::AutoscalerParams p;
  p.instance = mtc::ec2_c1_xlarge();
  p.max_instances = 20;
  const auto r = mtc::run_autoscaled_batch(shape, 160, p);
  EXPECT_EQ(r.members_done, 160u);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_LE(r.peak_instances, 20u);
  EXPECT_GT(r.cost_usd, 0.0);
}

TEST(Autoscaler, RespectsInstanceCap) {
  mtc::EsseJobShape shape;
  mtc::AutoscalerParams p;
  p.instance = mtc::ec2_c1_xlarge();
  p.max_instances = 5;
  const auto r = mtc::run_autoscaled_batch(shape, 400, p);
  EXPECT_EQ(r.members_done, 400u);
  EXPECT_LE(r.peak_instances, 5u);
}

TEST(Autoscaler, CheaperThanOversizedFixedFleetOnSmallBatch) {
  // 40 members on c1.xlarge (8 slots): an oversized 20-instance fixed
  // fleet burns 20 instance-hours; the autoscaler boots ~5.
  mtc::EsseJobShape shape;
  mtc::AutoscalerParams p;
  p.instance = mtc::ec2_c1_xlarge();
  p.max_instances = 20;
  const auto scaled = mtc::run_autoscaled_batch(shape, 40, p);
  const auto fixed =
      mtc::run_fixed_fleet_batch(shape, 40, mtc::ec2_c1_xlarge(), 20);
  EXPECT_EQ(fixed.members_done, 40u);
  EXPECT_LT(scaled.cost_usd, fixed.cost_usd);
  // And not catastrophically slower (boot latency only).
  EXPECT_LT(scaled.makespan_s, fixed.makespan_s * 2.0);
}

TEST(Autoscaler, FixedFleetMatchesHandComputedMakespan) {
  mtc::EsseJobShape shape;
  const mtc::InstanceType inst = mtc::ec2_c1_xlarge();
  // 80 members on 2 instances × 8 slots = 5 sequential rounds.
  const auto r = mtc::run_fixed_fleet_batch(shape, 80, inst, 2, 0.0);
  const double job = inst.pert_seconds(shape) + inst.pemodel_seconds(shape);
  EXPECT_NEAR(r.makespan_s, 5.0 * job, 1.0);
  EXPECT_EQ(r.members_done, 80u);
}

TEST(Autoscaler, ValidatesArguments) {
  mtc::EsseJobShape shape;
  mtc::AutoscalerParams p;
  p.instance = mtc::ec2_m1_small();
  p.max_instances = 0;
  EXPECT_THROW(mtc::run_autoscaled_batch(shape, 10, p), PreconditionError);
  EXPECT_THROW(
      mtc::run_fixed_fleet_batch(shape, 0, mtc::ec2_m1_small(), 1),
      PreconditionError);
}

// ---- tangent-linear forecast -------------------------------------------------------

struct TangentFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_monterey_scenario(16, 14, 4));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
    subspace = esse::bootstrap_subspace(*model, sc->initial, 0.0, 6.0, 10,
                                        0.99, 6, /*seed=*/77);
  }
  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
  esse::ErrorSubspace subspace;
};

TEST_F(TangentFixture, UsesRankPlusOneModelRuns) {
  auto tf = esse::tangent_forecast(*model, sc->initial, subspace, 0.0, 3.0);
  EXPECT_EQ(tf.model_runs, subspace.rank() + 1);
  EXPECT_GT(tf.forecast_subspace.rank(), 0u);
  EXPECT_EQ(tf.central_forecast.size(), subspace.dim());
}

TEST_F(TangentFixture, AgreesWithEnsembleSubspaceOnShortHorizon) {
  // Over a short horizon the deterministic mode propagation and the
  // noise-free ensemble must span nearly the same subspace.
  auto tf = esse::tangent_forecast(*model, sc->initial, subspace, 0.0, 3.0,
                                   1.0, 1, 0.999, 6);
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.ensemble = {16, 2.0, 16};
  cfg.cycle.convergence = {0.999999, 64};  // run all members
  cfg.cycle.max_rank = 6;
  cfg.cycle.stochastic_members = false;  // same noise-free regime
  cfg.cycle.variance_fraction = 0.999;
  const esse::ForecastResult fr = workflow::run_parallel_forecast(
      workflow::ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});
  const double rho =
      esse::subspace_similarity(tf.forecast_subspace, fr.forecast_subspace);
  EXPECT_GT(rho, 0.8);
}

TEST_F(TangentFixture, ThreadedAndSerialAgree) {
  auto serial =
      esse::tangent_forecast(*model, sc->initial, subspace, 0.0, 3.0, 1.0, 1);
  auto threaded =
      esse::tangent_forecast(*model, sc->initial, subspace, 0.0, 3.0, 1.0, 3);
  const double rho = esse::subspace_similarity(serial.forecast_subspace,
                                               threaded.forecast_subspace);
  EXPECT_NEAR(rho, 1.0, 1e-9);
}

TEST_F(TangentFixture, ValidatesArguments) {
  EXPECT_THROW(esse::tangent_forecast(*model, sc->initial, subspace, 0.0,
                                      3.0, /*epsilon=*/0.0),
               PreconditionError);
  EXPECT_THROW(esse::tangent_forecast(*model, sc->initial, subspace, 0.0,
                                      /*forecast_hours=*/0.0),
               PreconditionError);
}

}  // namespace
}  // namespace essex
