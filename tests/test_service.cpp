// Tests of the ForecastService subsystem: the admission-control policy
// layer, ensemble-size elasticity edges, the persistent multi-tenant
// server over real threads, and its DES twin. Labelled `service` (and
// `concurrency`: the real server is exactly the kind of teardown-heavy
// multithreaded code tsan exists for).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "esse/convergence.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "ocean/monterey.hpp"
#include "service/admission.hpp"
#include "service/forecast_service.hpp"
#include "service/sim_service.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::service {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- EnsembleSizeController elasticity edges ------------------------------------

TEST(SizeControllerElasticity, ShrinkWalksBackOneGrowthStage) {
  esse::EnsembleSizeController sizer({8, 2.0, 64, 2});
  sizer.grow();  // 16
  EXPECT_EQ(sizer.target(), 16u);
  EXPECT_EQ(sizer.shrink(), 8u);
  EXPECT_EQ(sizer.shrink(), 4u);
  EXPECT_EQ(sizer.shrink(), 2u);
  EXPECT_TRUE(sizer.at_min());
  EXPECT_EQ(sizer.shrink(), 2u);  // saturates at the floor
}

TEST(SizeControllerElasticity, ShrinkRespectsTheMinMembersFloor) {
  esse::EnsembleSizeController sizer({8, 2.0, 64, 6});
  EXPECT_EQ(sizer.shrink(), 6u);  // 8/2 = 4 clamps up to the floor
  EXPECT_TRUE(sizer.at_min());
  EXPECT_EQ(sizer.shrink(), 6u);
  sizer.grow();
  EXPECT_EQ(sizer.target(), 12u);
  EXPECT_FALSE(sizer.at_min());
}

TEST(SizeControllerElasticity, FractionalGrowthAlwaysShrinks) {
  // growth 1.2 on a small target: floor(5/1.2) = 4, but even when
  // floor(target/growth) == target the shrink must make progress.
  esse::EnsembleSizeController sizer({5, 1.2, 64, 2});
  EXPECT_LT(sizer.shrink(), 5u);
}

TEST(SizeControllerElasticity, MinAboveMaxIsRejected) {
  EXPECT_THROW(esse::EnsembleSizeController({8, 2.0, 16, 32}),
               PreconditionError);
}

TEST(SizeControllerElasticity, PoolTargetClampsDegenerateHeadroom) {
  esse::EnsembleSizeController sizer({8, 2.0, 64, 2});
  EXPECT_EQ(sizer.pool_target(1.25), 10u);
  // Below-1 and non-finite headroom behave as 1 (never starve N).
  EXPECT_EQ(sizer.pool_target(0.0), 8u);
  EXPECT_EQ(sizer.pool_target(0.5), 8u);
  EXPECT_EQ(sizer.pool_target(std::nan("")), 8u);
  // Extreme headroom saturates at Nmax instead of overflowing.
  EXPECT_EQ(sizer.pool_target(1e18), 64u);
  EXPECT_EQ(sizer.pool_target(kInf), 64u);
}

// ---- RequestQueue ---------------------------------------------------------------

TEST(RequestQueueOrder, PriorityThenDeadlineThenFifo) {
  RequestQueue q;
  q.push({1, 0, kInf, 1});
  q.push({2, 1, kInf, 2});
  q.push({3, 1, 10.0, 3});
  q.push({4, 1, kInf, 4});
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.count_at_or_above(1), 3u);
  EXPECT_EQ(q.pop()->id, 3u);  // highest priority, earliest deadline
  EXPECT_EQ(q.pop()->id, 2u);  // FIFO within equal priority/deadline
  EXPECT_EQ(q.pop()->id, 4u);
  EXPECT_EQ(q.pop()->id, 1u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(RequestQueueOrder, EraseRemovesById) {
  RequestQueue q;
  q.push({1, 0, kInf, 1});
  q.push({2, 0, kInf, 2});
  EXPECT_TRUE(q.erase(1));
  EXPECT_FALSE(q.erase(1));
  EXPECT_EQ(q.pop()->id, 2u);
}

// ---- RuntimeEstimator -----------------------------------------------------------

TEST(RuntimeEstimatorTest, EwmaTracksObservations) {
  RuntimeEstimator est(0.2);
  EXPECT_EQ(est.estimate_s(), 0.0);
  est.observe(10.0);
  EXPECT_DOUBLE_EQ(est.estimate_s(), 10.0);  // first sample seeds
  est.observe(20.0);
  EXPECT_DOUBLE_EQ(est.estimate_s(), 0.8 * 10.0 + 0.2 * 20.0);
  EXPECT_EQ(est.samples(), 2u);
  est.observe(-5.0);  // ignored
  EXPECT_EQ(est.samples(), 2u);
}

// ---- AdmissionController --------------------------------------------------------

TEST(Admission, BoundedQueueRejectsWithNumbers) {
  AdmissionPolicy policy;
  policy.max_queued = 2;
  AdmissionController ctl(policy);
  RuntimeEstimator est;
  ServerLoad load;
  load.queued = 2;
  const auto rej = ctl.decide(AdmissionTicket{}, load, est);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->reason, RejectReason::kQueueFull);
  EXPECT_NE(rej->message.find("2/2"), std::string::npos);
}

TEST(Admission, InfeasibleDeadlineRejectsWithArithmetic) {
  AdmissionController ctl(AdmissionPolicy{});  // safety 1.25
  RuntimeEstimator est;
  AdmissionTicket ticket;
  ticket.deadline_s = 50.0;
  ticket.expected_cost_s = 100.0;  // 125 s with safety > 50 s deadline
  const auto rej = ctl.decide(ticket, ServerLoad{}, est);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->reason, RejectReason::kDeadlineInfeasible);
  EXPECT_NE(rej->message.find("deadline infeasible"), std::string::npos);
  EXPECT_NE(rej->message.find("125"), std::string::npos);
}

TEST(Admission, QueueAheadDelaysTheEstimatedFinish) {
  AdmissionController ctl(AdmissionPolicy{});
  RuntimeEstimator est;
  est.observe(100.0);  // rolling estimate kicks in with no ticket cost
  AdmissionTicket ticket;
  ticket.deadline_s = 200.0;  // one run (125 s) fits ...
  EXPECT_FALSE(ctl.decide(ticket, ServerLoad{}, est).has_value());
  ServerLoad load;
  load.queued = 1;
  load.queued_ahead = 1;
  load.inflight = 1;
  load.max_inflight = 1;  // ... but not behind two others
  const auto rej = ctl.decide(ticket, load, est);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->reason, RejectReason::kDeadlineInfeasible);
}

TEST(Admission, NoCostSignalAdmitsOptimistically) {
  AdmissionController ctl(AdmissionPolicy{});
  RuntimeEstimator est;  // no samples
  AdmissionTicket ticket;
  ticket.deadline_s = 0.001;  // absurd, but nothing to check against
  EXPECT_FALSE(ctl.decide(ticket, ServerLoad{}, est).has_value());
}

// ---- structured validation ------------------------------------------------------

TEST(Validation, IssuesNameTheOffendingFields) {
  workflow::ParallelRunnerConfig cfg;
  cfg.pool_headroom = 0.5;
  cfg.cycle.ensemble.growth = 1.0;
  const auto issues = workflow::validate(cfg);
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].field, "config.pool_headroom");
  EXPECT_EQ(issues[1].field, "config.cycle.ensemble.growth");
  const std::string msg = workflow::describe(issues);
  EXPECT_NE(msg.find("config.pool_headroom"), std::string::npos);
  EXPECT_NE(msg.find("; "), std::string::npos);
}

TEST(Validation, WellFormedConfigHasNoIssues) {
  EXPECT_TRUE(workflow::validate(workflow::ParallelRunnerConfig{}).empty());
}

// ---- the DES twin ---------------------------------------------------------------

mtc::ClusterSpec tiny_cluster(std::size_t nodes, std::size_t cores) {
  mtc::ClusterSpec spec;
  spec.name = "tiny";
  for (std::size_t i = 0; i < nodes; ++i) {
    mtc::NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = cores;
    spec.nodes.push_back(n);
  }
  return spec;
}

TEST(SimService, RunsARequestToConvergenceWithoutLeaks) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, tiny_cluster(4, 2), mtc::sge_params());
  SimServiceConfig cfg;
  SimForecastService svc(sim, sched, cfg);
  SimRequestSpec spec;
  spec.initial_members = 8;
  spec.max_members = 16;
  spec.converge_at = 8;
  sim.at(0.0, [&] { svc.submit(spec); });
  sim.run();
  ASSERT_TRUE(svc.idle());
  ASSERT_EQ(svc.outcomes().size(), 1u);
  const SimRequestOutcome& out = svc.outcomes()[0];
  EXPECT_EQ(out.state, RequestState::kDone);
  EXPECT_TRUE(out.converged);
  EXPECT_GE(out.members_completed, 8u);
  EXPECT_EQ(out.members_dispatched,
            out.members_completed + out.members_cancelled +
                out.members_failed);
  EXPECT_EQ(svc.leaked_members(), 0);
  EXPECT_GT(out.latency_s(), 0.0);
}

TEST(SimService, GrowsTheEnsembleWhenTheFirstPoolDrains) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, tiny_cluster(4, 2), mtc::sge_params());
  SimServiceConfig cfg;
  SimForecastService svc(sim, sched, cfg);
  SimRequestSpec spec;
  spec.initial_members = 4;
  spec.max_members = 32;
  spec.converge_at = 16;  // needs two growth stages past the initial pool
  sim.at(0.0, [&] { svc.submit(spec); });
  sim.run();
  ASSERT_EQ(svc.outcomes().size(), 1u);
  EXPECT_TRUE(svc.outcomes()[0].converged);
  EXPECT_GE(svc.outcomes()[0].members_completed, 16u);
  EXPECT_EQ(svc.leaked_members(), 0);
}

TEST(SimService, BoundedQueueAndShutoutAreStructuredRejections) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, tiny_cluster(2, 2), mtc::sge_params());
  SimServiceConfig cfg;
  cfg.max_inflight = 1;
  cfg.admission.max_queued = 1;
  SimForecastService svc(sim, sched, cfg);
  SimRequestSpec spec;
  spec.initial_members = 4;
  spec.max_members = 4;
  spec.converge_at = 4;
  sim.at(0.0, [&] {
    svc.submit(spec);  // starts immediately
    svc.submit(spec);  // queued
    svc.submit(spec);  // queue full -> rejected
  });
  sim.run();
  const auto& outs = svc.outcomes();
  ASSERT_EQ(outs.size(), 3u);
  // Rejection is recorded first (terminal immediately).
  EXPECT_EQ(outs[0].state, RequestState::kRejected);
  EXPECT_EQ(outs[0].rejection.reason, RejectReason::kQueueFull);
  EXPECT_EQ(outs[1].state, RequestState::kDone);
  EXPECT_EQ(outs[2].state, RequestState::kDone);
  EXPECT_EQ(svc.stats().rejected_queue_full, 1u);
  EXPECT_EQ(svc.leaked_members(), 0);
}

TEST(SimService, MalformedSpecIsRejectedNotAborted) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, tiny_cluster(2, 2), mtc::sge_params());
  SimForecastService svc(sim, sched, SimServiceConfig{});
  SimRequestSpec bad;
  bad.initial_members = 1;  // ensemble needs >= 2
  sim.at(0.0, [&] { svc.submit(bad); });
  sim.run();
  ASSERT_EQ(svc.outcomes().size(), 1u);
  EXPECT_EQ(svc.outcomes()[0].state, RequestState::kRejected);
  EXPECT_EQ(svc.outcomes()[0].rejection.reason,
            RejectReason::kInvalidRequest);
  EXPECT_NE(svc.outcomes()[0].rejection.message.find("initial_members"),
            std::string::npos);
}

TEST(SimService, RequestTooLargeForItsMemberKeysIsRejected) {
  // Member keys give a request's index 24 bits and its level 8.
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, tiny_cluster(2, 2), mtc::sge_params());
  SimForecastService svc(sim, sched, SimServiceConfig{});
  SimRequestSpec huge;
  huge.max_members = (std::size_t{1} << 24) + 1;
  SimRequestSpec deep;
  deep.levels = 257;
  deep.members_per_level.assign(257, 2);
  sim.at(0.0, [&] {
    svc.submit(huge);
    svc.submit(deep);
  });
  sim.run();
  ASSERT_EQ(svc.outcomes().size(), 2u);
  for (const SimRequestOutcome& out : svc.outcomes()) {
    EXPECT_EQ(out.state, RequestState::kRejected);
    EXPECT_EQ(out.rejection.reason, RejectReason::kInvalidRequest);
    EXPECT_NE(out.rejection.message.find("spec.max_members"),
              std::string::npos);
  }
  EXPECT_EQ(svc.leaked_members(), 0);
}

TEST(SimService, DeadlinePressureShrinksInsteadOfBlowingTheDeadline) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, tiny_cluster(2, 2), mtc::sge_params());
  SimServiceConfig cfg;
  SimForecastService svc(sim, sched, cfg);
  SimRequestSpec spec;
  spec.initial_members = 16;
  spec.max_members = 16;
  spec.min_members = 4;
  spec.converge_at = 16;
  // 16 members on 4 slots is 4 waves of ~1540 s; the deadline only fits
  // ~2.5, so the service must walk the ensemble back mid-run.
  spec.deadline_s = 3900.0;
  spec.expected_cost_s = 3000.0;  // admission believes it fits
  sim.at(0.0, [&] { svc.submit(spec); });
  sim.run();
  ASSERT_EQ(svc.outcomes().size(), 1u);
  const SimRequestOutcome& out = svc.outcomes()[0];
  EXPECT_EQ(out.state, RequestState::kDone);
  EXPECT_TRUE(out.degraded);
  EXPECT_FALSE(out.converged);  // settled below converge_at ...
  EXPECT_TRUE(out.deadline_met);  // ... but inside the deadline
  EXPECT_LT(out.members_completed, 16u);
  EXPECT_GE(out.members_completed, 4u);
  EXPECT_EQ(svc.leaked_members(), 0);
  EXPECT_EQ(svc.stats().deadline_missed, 0u);
}

TEST(SimService, SlotBudgetsRebalanceAcrossTenants) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, tiny_cluster(4, 2), mtc::sge_params());
  SimServiceConfig cfg;
  cfg.max_inflight = 2;
  SimForecastService svc(sim, sched, cfg);
  SimRequestSpec spec;
  spec.initial_members = 16;
  spec.max_members = 16;
  spec.converge_at = 16;
  sim.at(0.0, [&] { svc.submit(spec); });
  // The second tenant arrives mid-run: tenant 1's slot budget shrinks
  // (workers leave), and grows back once tenant 2 finishes.
  sim.at(2000.0, [&] { svc.submit(spec); });
  sim.run();
  ASSERT_EQ(svc.outcomes().size(), 2u);
  EXPECT_EQ(svc.leaked_members(), 0);
  const ServiceStats st = svc.stats();
  EXPECT_GE(st.pool_shrink_events, 1u);
  EXPECT_GE(st.pool_grow_events, 1u);
  EXPECT_EQ(st.completed, 2u);
}

TEST(SimService, ManyTenantsAllResolveAndConserveMembers) {
  mtc::Simulator sim;
  mtc::ClusterScheduler sched(sim, tiny_cluster(16, 4),
                              mtc::sge_params());
  SimServiceConfig cfg;
  cfg.max_inflight = 6;
  cfg.admission.max_queued = 64;
  SimForecastService svc(sim, sched, cfg);
  Rng rng(20260807);
  for (std::size_t i = 0; i < 120; ++i) {
    SimRequestSpec spec;
    spec.initial_members = 4 + static_cast<std::size_t>(rng.uniform() * 8);
    spec.max_members = spec.initial_members * 4;
    spec.converge_at = spec.initial_members * 2;
    spec.priority = static_cast<int>(rng.uniform() * 3);
    spec.label = "tenant-" + std::to_string(i);
    const double arrival = rng.uniform() * 400000.0;
    sim.at(arrival, [&svc, spec] { svc.submit(spec); });
  }
  sim.run();
  EXPECT_TRUE(svc.idle());
  EXPECT_EQ(svc.outcomes().size(), 120u);
  EXPECT_EQ(svc.leaked_members(), 0);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 120u);
  EXPECT_EQ(st.completed + st.rejected_queue_full + st.rejected_deadline,
            120u);
  EXPECT_EQ(sched.queued_jobs(), 0u);
  EXPECT_EQ(sched.running_jobs(), 0u);
}

// ---- deadline_from_timeline -----------------------------------------------------

TEST(TimelineDeadline, UsesTheProcedureTauWindow) {
  workflow::ForecastTimeline tl(0.0, 48.0);
  workflow::ForecastProcedure proc;
  proc.tau_start_h = 6.0;
  proc.tau_end_h = 9.0;  // three forecaster hours to web distribution
  proc.sim_start_h = 0.0;
  proc.sim_end_h = 24.0;
  tl.add_procedure(proc);
  EXPECT_DOUBLE_EQ(deadline_from_timeline(tl, 0, 100.0, 60.0),
                   100.0 + 3.0 * 60.0);
  EXPECT_THROW(deadline_from_timeline(tl, 1, 0.0, 1.0), PreconditionError);
}

// ---- ThreadPool elasticity ------------------------------------------------------

TEST(ThreadPoolResize, WorkersJoinAndLeaveWithoutDroppingTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++ran;
    }));
  }
  pool.resize(4);  // workers join the running queue
  EXPECT_EQ(pool.thread_count(), 4u);
  for (auto& f : futs) f.wait();
  EXPECT_EQ(ran.load(), 16);
  pool.resize(2);  // excess workers retire cooperatively
  for (int i = 0; i < 8; ++i) {
    futs.push_back(pool.submit([&] { ++ran; }));
  }
  for (std::size_t i = 16; i < futs.size(); ++i) futs[i].wait();
  EXPECT_EQ(ran.load(), 24);
  // Retirement is asynchronous (workers notice the smaller target when
  // they next wake); poll briefly instead of racing.
  for (int spin = 0; spin < 200 && pool.thread_count() != 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.thread_count(), 2u);
  EXPECT_THROW(pool.resize(0), PreconditionError);
}

TEST(ThreadPoolResize, ShrinkWhileBusyThenReDemandRegrowsThePool) {
  // Clock-free: both workers park on a gate, so the shrink below lands
  // while they are busy and cannot retire.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t parked = 0;
  bool release = false;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 2; ++i) {
    futs.push_back(pool.submit([&] {
      std::unique_lock<std::mutex> lk(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lk, [&] { return release; });
    }));
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return parked == 2; });
  }
  using detail::resize_to_demand;
  EXPECT_EQ(resize_to_demand(pool, 1, 1, 2).target, 1u);  // demand drops
  EXPECT_EQ(pool.target_count(), 1u);
  EXPECT_EQ(pool.thread_count(), 2u);  // busy workers are still live
  // Demand returns to exactly the stale live count. Comparing against the
  // live count called this "already met" and left the target at 1, so the
  // pool drained to one worker under full demand.
  const detail::PoolResize regrow = resize_to_demand(pool, 2, 1, 2);
  EXPECT_EQ(regrow.previous, 1u);
  EXPECT_EQ(regrow.target, 2u);
  EXPECT_EQ(pool.target_count(), 2u);
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& f : futs) f.get();
  EXPECT_EQ(pool.thread_count(), 2u);  // target == live: nobody retires
  EXPECT_EQ(resize_to_demand(pool, 9, 1, 2).target, 2u);  // clamped
  EXPECT_EQ(resize_to_demand(pool, 0, 1, 2).target, 1u);  // at least one
}

// ---- the real server ------------------------------------------------------------

struct ServiceFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_double_gyre_scenario(12, 10, 3));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
    subspace = esse::bootstrap_subspace(*model, sc->initial, 0.0, 3.0, 8,
                                        0.99, 6, /*seed=*/11);
  }

  workflow::ForecastRequest quick_request() const {
    workflow::ParallelRunnerConfig cfg;
    cfg.cycle.forecast_hours = 3.0;
    cfg.cycle.threads = 2;
    cfg.cycle.ensemble = {8, 2.0, 48};
    cfg.cycle.convergence = {0.90, 6};
    cfg.cycle.max_rank = 8;
    cfg.svd_min_new_members = 4;
    return workflow::ForecastRequest{*model, sc->initial, subspace, 0.0,
                                     cfg};
  }

  workflow::ForecastRequest slow_request() const {
    workflow::ParallelRunnerConfig cfg;
    cfg.cycle.forecast_hours = 24.0;
    cfg.cycle.threads = 1;
    cfg.cycle.ensemble = {8, 2.0, 64};
    cfg.cycle.convergence = {0.999999, 64};  // never converges early
    return workflow::ForecastRequest{*model, sc->initial, subspace, 0.0,
                                     cfg};
  }

  // ServiceRequest has no default constructor (the ForecastRequest holds
  // references), so spell out every service term once here.
  static ServiceRequest wrap(workflow::ForecastRequest forecast,
                             int priority = 0, double deadline_s = kInf,
                             double expected_cost_s = 0.0) {
    return ServiceRequest{std::move(forecast), priority, deadline_s,
                          expected_cost_s, std::string{}};
  }

  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
  esse::ErrorSubspace subspace;
};

TEST_F(ServiceFixture, ConcurrentRequestsMatchTheOneShotPathBitwise) {
  const esse::ForecastResult direct =
      workflow::run_parallel_forecast(quick_request());

  ServiceConfig cfg;
  cfg.min_workers = cfg.max_workers = 2;
  cfg.max_inflight = 2;
  cfg.elastic = false;
  ForecastService svc(cfg);
  const ServiceRequest req = wrap(quick_request());
  ForecastHandle h1 = svc.submit(req);
  ForecastHandle h2 = svc.submit(req);
  ASSERT_EQ(h1.wait(), RequestState::kDone);
  ASSERT_EQ(h2.wait(), RequestState::kDone);
  // Two tenants sharing one pool, and the one-shot wrapper, all produce
  // bitwise-identical science (DESIGN.md §10 holds through the service).
  for (const esse::ForecastResult* res : {&h1.result(), &h2.result()}) {
    EXPECT_EQ(res->central_forecast, direct.central_forecast);
    EXPECT_EQ(res->forecast_subspace.sigmas(),
              direct.forecast_subspace.sigmas());
    EXPECT_EQ(res->members_run, direct.members_run);
    EXPECT_EQ(res->converged, direct.converged);
  }
  svc.shutdown();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.completed, 2u);
}

TEST_F(ServiceFixture, StatsCountEveryDoneHandleWithoutDrain) {
  ServiceConfig cfg;
  cfg.min_workers = cfg.max_workers = 2;
  cfg.max_inflight = 2;
  cfg.elastic = false;
  ForecastService svc(cfg);
  const ServiceRequest req = wrap(quick_request());
  std::vector<ForecastHandle> handles;
  for (int i = 0; i < 6; ++i) handles.push_back(svc.submit(req));
  std::size_t done = 0;
  for (const ForecastHandle& h : handles) {
    if (h.wait() == RequestState::kDone) ++done;
  }
  // No drain(): a handle only wakes once its outcome is counted.
  EXPECT_EQ(done, handles.size());
  EXPECT_EQ(svc.stats().completed, done);
  svc.shutdown();
}

TEST_F(ServiceFixture, InvalidRequestsGetStructuredRejections) {
  ForecastService svc(ServiceConfig{});
  workflow::ForecastRequest bad = quick_request();
  bad.config.pool_headroom = 0.5;
  ForecastHandle h = svc.submit(wrap(bad));
  ASSERT_EQ(h.state(), RequestState::kRejected);
  EXPECT_EQ(h.rejection().reason, RejectReason::kInvalidRequest);
  EXPECT_NE(h.rejection().message.find("config.pool_headroom"),
            std::string::npos);
  EXPECT_THROW(h.result(), PreconditionError);
  // The one-shot wrapper keeps throwing, as it always did.
  EXPECT_THROW(workflow::run_parallel_forecast(bad), PreconditionError);
}

TEST_F(ServiceFixture, InfeasibleDeadlinesAreRefusedUpFront) {
  ForecastService svc(ServiceConfig{});
  ForecastHandle h = svc.submit(wrap(quick_request(), /*priority=*/0,
                                     /*deadline_s=*/svc.now_s() + 1.0,
                                     /*expected_cost_s=*/1000.0));
  ASSERT_EQ(h.state(), RequestState::kRejected);
  EXPECT_EQ(h.rejection().reason, RejectReason::kDeadlineInfeasible);
  EXPECT_EQ(svc.stats().rejected_deadline, 1u);
}

TEST_F(ServiceFixture, QueueBoundCancelAndShutdownWithInflight) {
  ServiceConfig cfg;
  cfg.min_workers = cfg.max_workers = 1;
  cfg.max_inflight = 1;
  cfg.admission.max_queued = 1;
  ForecastService svc(cfg);

  ForecastHandle running = svc.submit(wrap(slow_request()));
  // Wait for it to leave the queue so the bound below is deterministic.
  for (int spin = 0; spin < 400 && svc.inflight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(svc.inflight(), 1u);

  ForecastHandle queued = svc.submit(wrap(slow_request()));
  EXPECT_EQ(queued.state(), RequestState::kQueued);
  ForecastHandle bounced = svc.submit(wrap(slow_request()));
  ASSERT_EQ(bounced.state(), RequestState::kRejected);
  EXPECT_EQ(bounced.rejection().reason, RejectReason::kQueueFull);

  // Cancel the queued request from its handle.
  EXPECT_TRUE(queued.cancel());
  EXPECT_EQ(queued.wait(), RequestState::kCancelled);
  EXPECT_THROW(queued.result(), PreconditionError);

  // Shut down with the slow request still in flight: it must resolve
  // (cancelled mid-run) and every worker/timer thread must be joined —
  // the destructor would hang or tsan would fire otherwise.
  svc.shutdown();
  EXPECT_TRUE(running.done());
  EXPECT_EQ(running.state(), RequestState::kCancelled);

  ForecastHandle late = svc.submit(wrap(quick_request()));
  ASSERT_EQ(late.state(), RequestState::kRejected);
  EXPECT_EQ(late.rejection().reason, RejectReason::kShuttingDown);
}

TEST_F(ServiceFixture, PriorityOrdersTheBacklog) {
  telemetry::Sink sink("service-priority");
  ServiceConfig cfg;
  cfg.min_workers = cfg.max_workers = 2;
  cfg.max_inflight = 1;
  cfg.sink = &sink;
  ForecastService svc(cfg);
  // A slow request pins the single inflight slot while the backlog forms
  // behind it (a quick one would finish before the others are queued).
  ForecastHandle first = svc.submit(wrap(slow_request()));
  for (int spin = 0; spin < 400 && svc.inflight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(svc.inflight(), 1u);
  ForecastHandle h_low = svc.submit(wrap(quick_request(), /*priority=*/0));
  ForecastHandle h_high = svc.submit(wrap(quick_request(), /*priority=*/5));
  EXPECT_TRUE(first.cancel());  // release the slot; the backlog drains
  svc.drain();
  ASSERT_EQ(first.wait(), RequestState::kCancelled);
  ASSERT_EQ(h_low.wait(), RequestState::kDone);
  ASSERT_EQ(h_high.wait(), RequestState::kDone);
  // The start events must show the high-priority tenant overtaking.
  std::vector<std::uint64_t> starts;
  for (const auto& e : sink.recorder().events()) {
    if (e.name == "service.request.start") {
      starts.push_back(static_cast<std::uint64_t>(e.value));
    }
  }
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], first.id());
  EXPECT_EQ(starts[1], h_high.id());
  EXPECT_EQ(starts[2], h_low.id());
  svc.shutdown();
}

TEST_F(ServiceFixture, ElasticPoolGrowsWithDemandAndShrinksAfter) {
  ServiceConfig cfg;
  cfg.min_workers = 1;
  cfg.max_workers = 4;
  cfg.elastic = true;
  ForecastService svc(cfg);
  EXPECT_EQ(svc.workers(), 1u);
  ForecastHandle h = svc.submit(wrap(quick_request()));
  ASSERT_EQ(h.wait(), RequestState::kDone);
  svc.drain();
  const ServiceStats st = svc.stats();
  EXPECT_GE(st.pool_grow_events, 1u);   // workers joined mid-cycle
  EXPECT_GE(st.pool_shrink_events, 1u); // and left when demand cleared
  EXPECT_EQ(st.peak_workers, 4u);       // demand (10 members) hit the cap
  for (int spin = 0; spin < 400 && svc.workers() != 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(svc.workers(), 1u);
  svc.shutdown();
}

}  // namespace
}  // namespace essex::service
