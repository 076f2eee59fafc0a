// Tests for verification metrics, the ESSE smoother, the real-time
// experiment driver (Fig. 1) and the OpenDAP staging mode (§5.3.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/differ.hpp"
#include "esse/subspace_io.hpp"
#include "esse/smoother.hpp"
#include "esse/verification.hpp"
#include "linalg/qr.hpp"
#include "linalg/stats.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "ocean/monterey.hpp"
#include "workflow/esse_workflow_sim.hpp"
#include "workflow/covariance_files.hpp"
#include "workflow/realtime_driver.hpp"

namespace essex {
namespace {

// ---- skill scores -------------------------------------------------------------

TEST(Skill, PerfectEstimateScoresZeroRmseUnitAc) {
  la::Vector truth{1, 2, 3, 4};
  la::Vector clim{0, 0, 0, 0};
  auto s = esse::skill(truth, truth, clim);
  EXPECT_DOUBLE_EQ(s.rmse, 0.0);
  EXPECT_DOUBLE_EQ(s.bias, 0.0);
  EXPECT_NEAR(s.anomaly_correlation, 1.0, 1e-12);
}

TEST(Skill, BiasAndRmseMatchHandComputation) {
  la::Vector est{2, 3};
  la::Vector truth{1, 1};
  la::Vector clim{0, 0};
  auto s = esse::skill(est, truth, clim);
  EXPECT_NEAR(s.bias, 1.5, 1e-12);
  EXPECT_NEAR(s.rmse, std::sqrt((1.0 + 4.0) / 2.0), 1e-12);
}

TEST(Skill, AntiCorrelatedAnomaliesScoreMinusOne) {
  la::Vector clim{0, 0, 0};
  la::Vector truth{1, 0, -1};
  la::Vector est{-1, 0, 1};
  auto s = esse::skill(est, truth, clim);
  EXPECT_NEAR(s.anomaly_correlation, -1.0, 1e-12);
}

TEST(Skill, ValidatesLengths) {
  EXPECT_THROW(esse::skill({1, 2}, {1}, {0, 0}), PreconditionError);
}

// ---- spread–skill -----------------------------------------------------------------

TEST(SpreadSkill, CalibratedWhenSpreadMatchesError) {
  Rng rng(2);
  const std::size_t m = 400;
  la::Matrix e(m, 1);
  for (std::size_t i = 0; i < m; ++i) e(i, 0) = 1.0 / std::sqrt(m);
  // sigma chosen so RMS marginal spread = sigma/sqrt(m).
  esse::ErrorSubspace sub(e, {2.0});
  la::Vector truth(m, 0.0), est(m, 0.0);
  // Error with rms equal to the predicted spread 2/sqrt(m).
  const double target = 2.0 / std::sqrt(static_cast<double>(m));
  for (std::size_t i = 0; i < m; ++i)
    est[i] = target * ((i % 2 == 0) ? 1.0 : -1.0);
  const double ratio = esse::spread_skill_ratio(sub, est, truth);
  EXPECT_NEAR(ratio, 1.0, 1e-9);
}

// ---- rank histogram ----------------------------------------------------------------

TEST(RankHistogram, CalibratedEnsembleIsFlat) {
  Rng rng(3);
  const std::size_t dim = 4000, n_members = 9;
  // Truth and members drawn from the same distribution per component.
  la::Vector truth(dim);
  for (auto& v : truth) v = rng.normal();
  std::vector<la::Vector> members(n_members, la::Vector(dim));
  for (auto& m : members)
    for (auto& v : m) v = rng.normal();
  auto hist = esse::rank_histogram(members, truth, 5000, 7);
  ASSERT_EQ(hist.size(), n_members + 1);
  // Chi-square with 9 dof: flat histograms stay well under ~30.
  EXPECT_LT(esse::histogram_flatness(hist), 30.0);
}

TEST(RankHistogram, UnderdispersedEnsembleIsUShaped) {
  Rng rng(4);
  const std::size_t dim = 4000, n_members = 9;
  la::Vector truth(dim);
  for (auto& v : truth) v = rng.normal();
  // Members with 10x too little spread: the truth lands at the extremes.
  std::vector<la::Vector> members(n_members, la::Vector(dim));
  for (auto& m : members)
    for (auto& v : m) v = 0.1 * rng.normal();
  auto hist = esse::rank_histogram(members, truth, 5000, 7);
  const std::size_t extremes = hist.front() + hist.back();
  std::size_t middle = 0;
  for (std::size_t i = 1; i + 1 < hist.size(); ++i) middle += hist[i];
  EXPECT_GT(extremes, middle);  // U-shape
  EXPECT_GT(esse::histogram_flatness(hist), 100.0);
}

TEST(RankHistogram, ValidatesInputs) {
  la::Vector truth(4, 0.0);
  std::vector<la::Vector> one(1, la::Vector(4, 0.0));
  EXPECT_THROW(esse::rank_histogram(one, truth, 10, 1), PreconditionError);
}

// ---- smoother ----------------------------------------------------------------------

TEST(Smoother, RecoversBackwardIncrementForLinearDynamics) {
  // Members at t1 are a fixed linear map of members at t0. A present-
  // time correction along the mapped anomaly of member j must smooth
  // back to the original anomaly of member j.
  Rng rng(5);
  const std::size_t dim = 18, n = 6;
  la::Matrix map = la::Matrix::identity(dim);
  for (auto& v : map.data()) v += 0.05 * rng.normal();  // well-conditioned

  la::Vector central0(dim, 1.0);
  la::Vector central1 = la::matvec(map, central0);
  esse::Differ d0(central0), d1(central1);
  std::vector<la::Vector> anoms0;
  for (std::size_t j = 0; j < n; ++j) {
    la::Vector a = rng.normals(dim);
    anoms0.push_back(a);
    la::Vector x0 = central0;
    for (std::size_t i = 0; i < dim; ++i) x0[i] += a[i];
    d0.add_member(j, x0);
    d1.add_member(j, la::matvec(map, x0));
  }
  const auto snap0 = d0.snapshot();
  const auto snap1 = d1.snapshot();

  // Present correction: exactly the mapped anomaly of member 2.
  la::Vector delta1 = la::matvec(map, anoms0[2]);
  la::Vector smoothed_present = central1;
  for (std::size_t i = 0; i < dim; ++i) smoothed_present[i] += delta1[i];

  auto res = esse::smooth_state(snap0, central0, snap1, central1,
                                smoothed_present);
  // The backward increment should reproduce anomaly 2 at t0.
  la::Vector recovered = la::sub(res.smoothed_state, central0);
  EXPECT_LT(la::rms_diff(recovered, anoms0[2]),
            0.05 * la::rms(anoms0[2]));
  EXPECT_GT(res.representable_fraction, 0.99);
}

TEST(Smoother, NoPresentCorrectionMeansNoChange) {
  Rng rng(6);
  const std::size_t dim = 10;
  la::Vector central(dim, 0.0);
  esse::Differ d0(central), d1(central);
  for (std::size_t j = 0; j < 4; ++j) {
    d0.add_member(j, rng.normals(dim));
    d1.add_member(j, rng.normals(dim));
  }
  auto res = esse::smooth_state(d0.snapshot(), central, d1.snapshot(),
                                central, central);
  EXPECT_NEAR(res.increment_rms, 0.0, 1e-12);
}

TEST(Smoother, MatchesMembersByIdAcrossDifferentOrders) {
  // Same ensemble, columns added in different orders at the two times —
  // the id bookkeeping must pair them correctly (order-free, §4.1).
  Rng rng(7);
  const std::size_t dim = 12;
  la::Vector central(dim, 0.0);
  std::vector<la::Vector> anoms;
  for (int j = 0; j < 5; ++j) anoms.push_back(rng.normals(dim));

  esse::Differ d0(central), d1(central);
  for (int j = 0; j < 5; ++j) d0.add_member(j, anoms[j]);
  for (int j = 4; j >= 0; --j) d1.add_member(j, anoms[j]);  // reversed

  // With identical anomalies at both times the smoother gain is the
  // identity on the ensemble span: a correction along anomaly 1 maps to
  // itself.
  la::Vector smoothed_present = anoms[1];
  auto res = esse::smooth_state(d0.snapshot(), central, d1.snapshot(),
                                central, smoothed_present);
  EXPECT_LT(la::rms_diff(la::sub(res.smoothed_state, central), anoms[1]),
            1e-6);
}

TEST(Smoother, RequiresCommonMembers) {
  la::Vector central(4, 0.0);
  esse::Differ d0(central), d1(central);
  Rng rng(8);
  d0.add_member(0, rng.normals(4));
  d0.add_member(1, rng.normals(4));
  d1.add_member(7, rng.normals(4));
  d1.add_member(8, rng.normals(4));
  EXPECT_THROW(esse::smooth_state(d0.snapshot(), central, d1.snapshot(),
                                  central, central),
               PreconditionError);
}

// ---- realtime driver ------------------------------------------------------------------

TEST(RealtimeDriver, MultiCycleCampaignBeatsPersistence) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  workflow::ForecastTimeline tl(0.0, 72.0);
  tl.add_observation_period({0.0, 12.0, 13.0, ""});
  tl.add_observation_period({12.0, 24.0, 25.0, ""});
  tl.add_procedure({14.0, 16.0, 0.0, 36.0});
  tl.add_procedure({26.0, 28.0, 0.0, 48.0});

  workflow::RealtimeConfig cfg;
  cfg.cycle.cycle.ensemble = {8, 2.0, 8};
  cfg.cycle.cycle.convergence = {0.95, 100};
  cfg.cycle.cycle.max_rank = 8;
  cfg.bootstrap_samples = 8;
  cfg.max_rank = 8;

  auto report = workflow::run_realtime_experiment(model, sc.initial, tl, cfg);
  ASSERT_EQ(report.procedures.size(), 2u);
  ASSERT_EQ(report.persistence_rmse.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& p = report.procedures[k];
    EXPECT_GT(p.obs_assimilated, 20u);
    EXPECT_EQ(p.members_run, 8u);
    // The assimilating system beats persistence at every nowcast.
    EXPECT_LT(p.nowcast_posterior.rmse, report.persistence_rmse[k]);
    EXPECT_GT(p.spread_skill, 0.0);
  }
  // First-cycle analysis improves on its prior (large IC error regime).
  EXPECT_LT(report.procedures[0].nowcast_posterior.rmse,
            report.procedures[0].nowcast_prior.rmse);
}

TEST(RealtimeDriver, ValidatesTimeline) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 3);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);
  workflow::ForecastTimeline empty(0.0, 10.0);
  workflow::RealtimeConfig cfg;
  EXPECT_THROW(
      workflow::run_realtime_experiment(model, sc.initial, empty, cfg),
      PreconditionError);
}

// ---- OpenDAP staging (§5.3.2) -------------------------------------------------------

TEST(OpenDapStaging, SlowerThanNfsDirectDueToRequestLatency) {
  auto run_mode = [](mtc::InputStaging staging) {
    workflow::EsseWorkflowConfig cfg;
    cfg.shape.pert_cpu_s = 0.5;
    cfg.shape.pert_fs_s = 2.0;
    cfg.shape.input_bytes = 100e6;
    cfg.shape.pemodel_cpu_s = 50.0;
    cfg.shape.output_bytes = 1e6;
    cfg.shape.opendap_requests = 100;
    cfg.shape.opendap_request_latency_s = 0.1;
    cfg.staging = staging;
    cfg.initial_members = 16;
    cfg.converge_at = 16;
    cfg.max_members = 16;
    cfg.svd_stride = 8;
    mtc::Simulator sim;
    mtc::ClusterSpec spec;
    spec.name = "t";
    spec.nfs_capacity_bps = 1250e6;
    for (int i = 0; i < 8; ++i) {
      mtc::NodeSpec n;
      n.name = "n";
      n.cores = 2;
      spec.nodes.push_back(n);
    }
    mtc::ClusterScheduler sched(sim, spec, mtc::sge_params());
    return workflow::run_parallel_esse(sim, sched, cfg);
  };
  const auto nfs = run_mode(mtc::InputStaging::kNfsDirect);
  const auto dap = run_mode(mtc::InputStaging::kOpenDapRemote);
  EXPECT_GT(dap.makespan_s, nfs.makespan_s + 5.0);  // 10 s latency/job
  EXPECT_LT(dap.pert_cpu_utilization, nfs.pert_cpu_utilization);
  EXPECT_EQ(dap.members_completed, 16u);
}

}  // namespace
}  // namespace essex

// ---- on-disk three-file covariance protocol (§4.1) ---------------------------

namespace essex {
namespace {

la::Matrix ortho_for_files(std::size_t m, std::size_t k, Rng& rng) {
  la::Matrix a(m, k);
  for (auto& x : a.data()) x = rng.normal();
  la::orthonormalize_columns(a);
  return a;
}

TEST(CovarianceFiles, EmptyUntilFirstPromote) {
  workflow::CovarianceFileStore store("/tmp/essex_cov_empty");
  store.cleanup();
  EXPECT_FALSE(store.read_safe().has_value());
  store.cleanup();
}

TEST(CovarianceFiles, PublishPromotesAtomicallyAndRoundTrips) {
  workflow::CovarianceFileStore store("/tmp/essex_cov_rt");
  store.cleanup();
  Rng rng(9);
  esse::ErrorSubspace sub(ortho_for_files(30, 3, rng), {3, 2, 1});
  EXPECT_EQ(store.publish(sub), 1u);
  auto back = store.read_safe();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rank(), 3u);
  EXPECT_NEAR(esse::subspace_similarity(*back, sub), 1.0, 1e-12);
  store.cleanup();
}

TEST(CovarianceFiles, AlternatingPairNeverLeavesStaleLiveFiles) {
  workflow::CovarianceFileStore store("/tmp/essex_cov_alt");
  store.cleanup();
  Rng rng(10);
  for (int v = 1; v <= 5; ++v) {
    esse::ErrorSubspace sub(ortho_for_files(20, 2, rng),
                            {static_cast<double>(v + 1), 1.0});
    EXPECT_EQ(store.publish(sub), static_cast<std::uint64_t>(v));
    auto back = store.read_safe();
    ASSERT_TRUE(back.has_value());
    EXPECT_DOUBLE_EQ(back->sigmas()[0], v + 1.0);
  }
  store.cleanup();
}

TEST(CovarianceFiles, FailedPromotionLeavesTheLivePairReadable) {
  namespace fs = std::filesystem;
  workflow::CovarianceFileStore store("/tmp/essex_cov_fail");
  store.cleanup();
  Rng rng(12);
  esse::ErrorSubspace sub(ortho_for_files(24, 2, rng), {2.0, 1.0});

  // Block the promote: rename(2) cannot replace a non-empty directory,
  // so planting one at the safe path fails the promotion step — and only
  // that step.
  fs::create_directories(store.safe_path());
  std::ofstream(store.safe_path() + "/blocker") << "x";
  EXPECT_THROW(store.publish(sub), Error);
  EXPECT_EQ(store.version(), 0u);

  // The live file was fully written before the failed rename and must
  // still be readable — the §4.1 protocol's point is that a broken
  // promotion never corrupts what the writer already staged.
  const esse::ErrorSubspace live =
      esse::load_subspace("/tmp/essex_cov_fail.live.a");
  EXPECT_NEAR(esse::subspace_similarity(live, sub), 1.0, 1e-12);
  // A reader polling the safe path sees "nothing promoted", not garbage.
  EXPECT_FALSE(store.read_safe().has_value());

  // Clearing the obstruction lets the same writer retry: the store does
  // not advance its alternating pair (or version) on a failed promote.
  fs::remove_all(store.safe_path());
  EXPECT_EQ(store.publish(sub), 1u);
  const auto back = store.read_safe();
  ASSERT_TRUE(back.has_value());
  EXPECT_NEAR(esse::subspace_similarity(*back, sub), 1.0, 1e-12);
  store.cleanup();
}

TEST(CovarianceFiles, ConcurrentReaderNeverSeesTornSnapshot) {
  workflow::CovarianceFileStore store("/tmp/essex_cov_race");
  store.cleanup();
  Rng rng(11);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    for (int v = 1; v <= 60; ++v) {
      // Sigmas all equal to v: a torn read would mix versions.
      la::Vector sig(4, static_cast<double>(v));
      esse::ErrorSubspace sub(ortho_for_files(64, 4, rng), sig);
      store.publish(sub);
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      auto snap = store.read_safe();
      if (!snap) continue;
      for (double s : snap->sigmas()) {
        if (s != snap->sigmas()[0]) ++bad;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  store.cleanup();
}

}  // namespace
}  // namespace essex
