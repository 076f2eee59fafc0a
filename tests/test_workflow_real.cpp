// Tests of the real-thread MTC pieces: the triple-buffer covariance
// store (race-freedom property) and the in-process Fig. 4 runner.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/cycle.hpp"
#include "esse/repro.hpp"
#include "obs/instruments.hpp"
#include "ocean/monterey.hpp"
#include "testkit/differential.hpp"
#include "workflow/covariance_store.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::workflow {
namespace {

// ---- triple-buffer store ------------------------------------------------------

struct Payload {
  std::vector<int> data;
};

TEST(TripleBufferStore, EmptyUntilFirstPromote) {
  TripleBufferStore<Payload> store;
  auto snap = store.read();
  EXPECT_EQ(snap.version, 0u);
  EXPECT_EQ(snap.data, nullptr);
}

TEST(TripleBufferStore, UpdateStartsFromLatestPublishedContent) {
  TripleBufferStore<Payload> store;
  store.update([](Payload& p) { p.data.push_back(1); });
  store.update([](Payload& p) { p.data.push_back(2); });
  store.update([](Payload& p) { p.data.push_back(3); });
  auto snap = store.read();
  EXPECT_EQ(snap.version, 3u);
  ASSERT_TRUE(snap.data);
  EXPECT_EQ(snap.data->data, (std::vector<int>{1, 2, 3}));
}

TEST(TripleBufferStore, SnapshotsAreImmutableUnderLaterWrites) {
  TripleBufferStore<Payload> store;
  store.update([](Payload& p) { p.data = {1, 2}; });
  auto snap = store.read();
  store.update([](Payload& p) { p.data.push_back(3); });
  EXPECT_EQ(snap.data->data, (std::vector<int>{1, 2}));  // unchanged
  EXPECT_EQ(store.read().data->data.size(), 3u);
}

TEST(TripleBufferStore, ConcurrentReadersNeverSeeTornData) {
  // Property: a payload written as {v, v, ..., v} must always be read as
  // all-equal — exactly the guarantee the paper's safe/live file pair
  // provides for the covariance matrix.
  TripleBufferStore<Payload> store;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    for (int v = 1; v <= 3000; ++v) {
      store.update([v](Payload& p) { p.data.assign(64, v); });
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!stop.load()) {
        auto snap = store.read();
        if (!snap.data) continue;
        // Versions are monotone.
        if (snap.version < last_version) ++torn;
        last_version = snap.version;
        const auto& d = snap.data->data;
        for (std::size_t i = 1; i < d.size(); ++i) {
          if (d[i] != d[0]) {
            ++torn;
            break;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(store.version(), 3000u);
}

// ---- the real parallel runner -------------------------------------------------

struct RunnerFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_double_gyre_scenario(12, 10, 3));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
    subspace = esse::bootstrap_subspace(*model, sc->initial, 0.0, 3.0, 8,
                                        0.99, 6, /*seed=*/11);
  }
  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
  esse::ErrorSubspace subspace;
};

TEST_F(RunnerFixture, ProducesConvergedForecastSubspace) {
  ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.threads = 2;
  cfg.cycle.ensemble = {8, 2.0, 48};
  cfg.cycle.convergence = {0.90, 6};
  cfg.cycle.max_rank = 8;
  cfg.svd_min_new_members = 4;
  esse::ForecastResult res = run_parallel_forecast(
      ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});
  EXPECT_GT(res.members_run, 4u);
  EXPECT_GT(res.forecast_subspace.rank(), 0u);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_GT(res.mtc->store_versions, 0u);
  EXPECT_GE(res.mtc->svd_runs, 1u);
}

TEST_F(RunnerFixture, MatchesBlockSynchronousDriverStatistically) {
  // The runner and the block-synchronous serial reference estimate the
  // same spread: their total variances must agree to ensemble sampling
  // accuracy.
  ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.threads = 2;
  cfg.cycle.ensemble = {16, 2.0, 16};
  cfg.cycle.convergence = {0.999999, 64};  // never converge early: run all 16
  cfg.cycle.max_rank = 10;
  cfg.pool_headroom = 1.0;
  const ForecastRequest request{*model, sc->initial, subspace, 0.0, cfg};
  const esse::ForecastResult block =
      testkit::serial_reference_forecast(request);
  const esse::ForecastResult mtc = run_parallel_forecast(request);

  ASSERT_EQ(block.members_run, 16u);
  ASSERT_EQ(mtc.members_run, 16u);
  // The serial reference never attaches MTC accounting; the runner must.
  EXPECT_FALSE(block.mtc.has_value());
  ASSERT_TRUE(mtc.mtc.has_value());
  const double v1 = block.forecast_subspace.total_variance();
  const double v2 = mtc.forecast_subspace.total_variance();
  EXPECT_NEAR(v1, v2, 0.2 * std::max(v1, v2));
}

TEST_F(RunnerFixture, AssimilationCycleValidatesItsRequest) {
  // The cycle validates its request like the runner does: a one-member
  // initial ensemble is refused by name before any member runs.
  Rng obs_rng(31);
  const obs::ObsOperator h(sc->grid,
                           obs::aosn_campaign(sc->grid, sc->initial, obs_rng));
  ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 1.0;
  cfg.cycle.ensemble = {1, 2.0, 8};
  try {
    run_assimilation_cycle(
        ForecastRequest{*model, sc->initial, subspace, 0.0, cfg},
        esse::ObsSet::from_operator(h));
    FAIL() << "a one-member initial ensemble must be refused";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("config.cycle.ensemble.initial"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(RunnerFixture, CancellationLeavesConsistentCounts) {
  ParallelRunnerConfig cfg;
  // Long members + a serial worker: the convergence decision always
  // lands while most of the pool is still queued, so cancellation is
  // certain to hit (short members can race the cancel and finish first).
  cfg.cycle.forecast_hours = 24.0;
  cfg.cycle.threads = 1;
  cfg.cycle.ensemble = {8, 2.0, 64};
  cfg.cycle.convergence = {0.5, 4};  // converges almost immediately
  cfg.pool_headroom = 2.0;
  telemetry::Sink sink("runner-cancel");
  ForecastRequest req{*model, sc->initial, subspace, 0.0, cfg};
  req.sink = &sink;
  esse::ForecastResult res = run_parallel_forecast(req);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_EQ(res.mtc->members_submitted,
            res.members_run + res.mtc->members_cancelled);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.mtc->members_cancelled, 0u);
  // The telemetry session and the accounting agree — the accounting is
  // fed by the same recorded metrics.
  EXPECT_EQ(sink.metrics().value("runner.members_submitted"),
            static_cast<double>(res.mtc->members_submitted));
  EXPECT_EQ(sink.metrics().value("runner.members_cancelled"),
            static_cast<double>(res.mtc->members_cancelled));
  EXPECT_EQ(sink.metrics().value("runner.svd_runs"),
            static_cast<double>(res.mtc->svd_runs));
  EXPECT_GT(sink.metrics().histogram_at("runner.member_s").count(), 0u);
}

// A run that drains without converging forecasts from every absorbed
// member. When the last milestone already checked exactly those members
// its subspace is reused instead of recomputed, so the differ runs one
// subspace check per milestone and none after; otherwise (Nmax off the
// milestone stride) it runs one more. Either way the forecast digest is
// the one the always-recompute runner produced.
struct DrainedCase {
  std::size_t max_members;
  std::size_t extra_checks;
  const char* digest;
};

TEST_F(RunnerFixture, DrainedRunReusesTheLastMilestoneSubspace) {
  const DrainedCase cases[] = {
      {16, 0, "4b34203d875856516a8846e764b12da7892524ec82090be63b45a2950e976792"},
      {14, 1, "b7c331298b7c0187fa187a8ef3397b87980684cfa89df0f7b4221484b5de56cb"},
  };
  for (const DrainedCase& c : cases) {
    ParallelRunnerConfig cfg;
    cfg.cycle.forecast_hours = 3.0;
    cfg.cycle.threads = 2;
    cfg.cycle.ensemble = {8, 2.0, c.max_members};
    cfg.cycle.convergence = {1.0, 6};  // never reached: the pool drains
    cfg.cycle.max_rank = 8;
    cfg.svd_min_new_members = 4;
    telemetry::Sink sink("runner-drained");
    ForecastRequest req{*model, sc->initial, subspace, 0.0, cfg};
    req.sink = &sink;
    const esse::ForecastResult res = run_parallel_forecast(req);
    ASSERT_TRUE(res.mtc.has_value());
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.members_run, c.max_members);
    EXPECT_EQ(esse::forecast_digest(res), c.digest) << c.max_members;
    EXPECT_EQ(sink.metrics().value("differ.subspace_checks"),
              static_cast<double>(res.mtc->svd_runs + c.extra_checks))
        << c.max_members;
  }
}

}  // namespace
}  // namespace essex::workflow
