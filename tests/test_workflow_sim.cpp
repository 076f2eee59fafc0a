// Integration tests over the DES: serial vs parallel ESSE workflows,
// staging modes, cancellation policies, deadline, acoustics fan-out,
// augmentation, the forecast timeline, and the clock-free ensemble
// orchestrator under the Fig.-4 driver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "workflow/augmentation.hpp"
#include "workflow/ensemble_orchestrator.hpp"
#include "workflow/esse_workflow_sim.hpp"
#include "workflow/timeline.hpp"

namespace essex::workflow {
namespace {

using mtc::ClusterScheduler;
using mtc::ClusterSpec;
using mtc::Simulator;

/// A small fast cluster so tests run in milliseconds: 16 nodes × 2 cores.
ClusterSpec test_cluster() {
  ClusterSpec spec;
  spec.name = "test";
  spec.nfs_capacity_bps = 1250e6;
  for (int i = 0; i < 16; ++i) {
    mtc::NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = 2;
    n.cpu_speed = 1.0;
    spec.nodes.push_back(n);
  }
  return spec;
}

/// Downscaled job shape (same ratios as the calibrated one).
mtc::EsseJobShape test_shape() {
  mtc::EsseJobShape sh;
  sh.pert_cpu_s = 0.5;
  sh.pert_fs_s = 2.0;
  sh.input_bytes = 100e6;
  sh.pemodel_cpu_s = 100.0;
  sh.output_bytes = 1e6;
  sh.diff_cpu_s = 0.5;
  sh.svd_base_s = 1.0;
  sh.svd_per_member2_s = 1e-4;
  return sh;
}

EsseWorkflowConfig test_config() {
  EsseWorkflowConfig cfg;
  cfg.shape = test_shape();
  cfg.initial_members = 32;
  cfg.converge_at = 32;
  cfg.max_members = 128;
  cfg.svd_stride = 8;
  return cfg;
}

WorkflowMetrics run(bool parallel, EsseWorkflowConfig cfg,
                    mtc::SchedulerParams sparams = mtc::sge_params()) {
  Simulator sim;
  ClusterScheduler sched(sim, test_cluster(), sparams);
  return parallel ? run_parallel_esse(sim, sched, cfg)
                  : run_serial_esse(sim, sched, cfg);
}

// ---- basic completion -----------------------------------------------------------

TEST(SerialWorkflow, ConvergesAndCompletesAllMembers) {
  WorkflowMetrics m = run(false, test_config());
  EXPECT_TRUE(m.converged);
  EXPECT_EQ(m.members_completed, 32u);
  EXPECT_EQ(m.members_diffed, 32u);
  EXPECT_GT(m.makespan_s, 0.0);
  EXPECT_EQ(m.svd_runs, 1u);  // one barrier SVD sufficed
}

TEST(ParallelWorkflow, ConvergesWithPipelinedSvd) {
  WorkflowMetrics m = run(true, test_config());
  EXPECT_TRUE(m.converged);
  EXPECT_GE(m.members_diffed, 32u);
  EXPECT_GE(m.svd_runs, 2u);  // checks every svd_stride members
}

TEST(ParallelWorkflow, FasterThanSerialWhenGrowthIsNeeded) {
  // Convergence at 96 forces the serial variant through two full
  // barrier rounds (32, then grow); the parallel pool pipelines.
  EsseWorkflowConfig cfg = test_config();
  cfg.converge_at = 96;
  cfg.pool_headroom = 1.25;
  WorkflowMetrics serial = run(false, cfg);
  WorkflowMetrics parallel = run(true, cfg);
  ASSERT_TRUE(serial.converged);
  ASSERT_TRUE(parallel.converged);
  EXPECT_LT(parallel.makespan_s, serial.makespan_s);
}

TEST(ParallelWorkflow, GrowthStagesReachNmaxWithoutConvergence) {
  EsseWorkflowConfig cfg = test_config();
  cfg.converge_at = 100000;  // unreachable
  cfg.max_members = 64;
  WorkflowMetrics m = run(true, cfg);
  EXPECT_FALSE(m.converged);
  EXPECT_EQ(m.members_completed, 64u);
  EXPECT_EQ(m.members_diffed, 64u);
}

TEST(SerialWorkflow, GrowthLoopsBackThroughStages) {
  EsseWorkflowConfig cfg = test_config();
  cfg.converge_at = 64;
  WorkflowMetrics m = run(false, cfg);
  EXPECT_TRUE(m.converged);
  EXPECT_EQ(m.members_completed, 64u);
  EXPECT_GE(m.svd_runs, 2u);  // one per round
}

// ---- staging comparison (§5.2.1) ---------------------------------------------------

TEST(Staging, NfsDirectSlowerAndLowerPertUtilization) {
  EsseWorkflowConfig local_cfg = test_config();
  local_cfg.staging = mtc::InputStaging::kPrestageLocal;
  EsseWorkflowConfig nfs_cfg = test_config();
  nfs_cfg.staging = mtc::InputStaging::kNfsDirect;
  // Make the inputs heavy enough to matter on the test cluster.
  nfs_cfg.shape.input_bytes = 1.5e9;
  local_cfg.shape.input_bytes = 1.5e9;
  WorkflowMetrics local = run(true, local_cfg);
  WorkflowMetrics nfs = run(true, nfs_cfg);
  EXPECT_GT(nfs.makespan_s, local.makespan_s);
  EXPECT_GT(local.pert_cpu_utilization, 0.95);  // ≈100 % (paper)
  EXPECT_LT(nfs.pert_cpu_utilization, 0.5);     // contended reads
  EXPECT_GT(nfs.nfs_bytes_moved, local.nfs_bytes_moved);
}

// ---- cancellation policies (§4.1) ----------------------------------------------------

TEST(CancelPolicies, ImmediateCancelWastesInflightWork) {
  EsseWorkflowConfig cfg = test_config();
  cfg.pool_headroom = 2.0;  // lots of extra members in flight
  cfg.cancel_policy = CancelPolicy::kCancelImmediately;
  WorkflowMetrics m = run(true, cfg);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.members_cancelled, 0u);
  EXPECT_GT(m.wasted_cpu_seconds, 0.0);
}

TEST(CancelPolicies, UseAllFinishedDiffsLandedResults) {
  EsseWorkflowConfig cfg = test_config();
  cfg.pool_headroom = 2.0;
  cfg.cancel_policy = CancelPolicy::kUseAllFinished;
  WorkflowMetrics m = run(true, cfg);
  EXPECT_TRUE(m.converged);
  // Every completed member's result is used (diffed).
  EXPECT_EQ(m.members_diffed, m.members_completed);
}

TEST(CancelPolicies, SpareNearFinishUsesMoreMembersThanImmediate) {
  EsseWorkflowConfig immediate = test_config();
  immediate.pool_headroom = 2.0;
  immediate.cancel_policy = CancelPolicy::kCancelImmediately;
  EsseWorkflowConfig spare = test_config();
  spare.pool_headroom = 2.0;
  spare.cancel_policy = CancelPolicy::kSpareNearFinish;
  // Convergence lands just after the second wave started, so only a low
  // fraction spares it (at 0.5 spare and immediate are identical).
  spare.spare_fraction = 0.1;
  WorkflowMetrics mi = run(true, immediate);
  WorkflowMetrics ms = run(true, spare);
  EXPECT_GT(ms.members_diffed, mi.members_diffed);
  // Sparing trades extra completion time for less waste.
  EXPECT_LT(ms.wasted_cpu_seconds, mi.wasted_cpu_seconds);
  EXPECT_GT(ms.makespan_s, mi.makespan_s);
}

// ---- deadline (§4 point 1) -------------------------------------------------------------

TEST(Deadline, ExpiredForecastStopsAndKeepsPartialEnsemble) {
  EsseWorkflowConfig cfg = test_config();
  cfg.converge_at = 100000;
  cfg.max_members = 128;
  cfg.deadline_s = 400.0;  // well before the full pool can finish
  WorkflowMetrics m = run(true, cfg);
  EXPECT_TRUE(m.deadline_hit);
  EXPECT_FALSE(m.converged);
  EXPECT_LE(m.makespan_s, 400.0 + 1e-6);
  EXPECT_LT(m.members_completed, 128u);
}

// ---- failures (§4 point 3) ----------------------------------------------------------------

TEST(Failures, WorkflowToleratesFailedMembers) {
  EsseWorkflowConfig cfg = test_config();
  cfg.converge_at = 24;  // reachable despite failures
  mtc::SchedulerParams sparams = mtc::sge_params();
  sparams.faults.segment.probability = 0.2;
  WorkflowMetrics m = run(true, cfg, sparams);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.members_failed, 0u);
  EXPECT_GE(m.members_diffed, 24u);
}

TEST(Failures, LostMembersDoNotStallThePool) {
  // Regression: the pool grew only inside a failed convergence check, so
  // losses that kept the diffed count below the next milestone stalled
  // the run after its first pool of 36 members (21 done, 15 lost).
  EsseWorkflowConfig cfg = test_config();
  cfg.converge_at = 64;
  cfg.fault.max_retries = 0;  // every failed attempt loses its member
  mtc::SchedulerParams sparams = mtc::sge_params();
  sparams.faults.segment.probability = 0.3;
  WorkflowMetrics m = run(true, cfg, sparams);
  EXPECT_GT(m.members_lost, 0u);
  EXPECT_GT(m.members_dispatched, 36u);
  EXPECT_TRUE(m.converged || m.members_dispatched == cfg.max_members);
  EXPECT_EQ(m.members_completed + m.members_cancelled_final +
                m.members_lost,
            m.members_dispatched);
}

// ---- the clock-free orchestrator -------------------------------------------------

EnsembleOrchestrator::Params orchestrator_params() {
  EnsembleOrchestrator::Params p;
  p.ensemble = {8, 2.0, 32, 2};
  p.pool_headroom = 1.25;
  p.check_stride = 4;
  p.grow_lookahead = 4;
  p.goal = 20;
  return p;
}

TEST(Orchestrator, LaunchesUpToThePoolUnderAnInFlightBudget) {
  EnsembleOrchestrator orch(orchestrator_params());
  EXPECT_EQ(orch.capacity(), 10u);  // ceil(1.25 x 8)
  EXPECT_EQ(orch.launch(4), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(orch.launch(4).empty());  // budget full
  orch.resolve(2, mtc::TaskOutcome::kDone);
  orch.resolve(0, mtc::TaskOutcome::kEvicted);
  EXPECT_EQ(orch.launch(4), (std::vector<std::size_t>{4, 5}));
  EXPECT_EQ(orch.launch(), (std::vector<std::size_t>{6, 7, 8, 9}));
  EXPECT_EQ(orch.ledger().dispatched, 10u);
  EXPECT_EQ(orch.ledger().done, 1u);
  EXPECT_EQ(orch.ledger().lost, 1u);
  EXPECT_EQ(orch.ledger().in_flight(), 8u);
  EXPECT_THROW(orch.resolve(2, mtc::TaskOutcome::kDone), PreconditionError);
  EXPECT_EQ(orch.stop(), (std::vector<std::size_t>{1, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_TRUE(orch.launch().empty());
}

TEST(Orchestrator, StagedGrowthAtAFailedCheckAndGrowthOnDrain) {
  EnsembleOrchestrator orch(orchestrator_params());
  for (std::size_t id : orch.launch()) {
    orch.resolve(id, id < 6 ? mtc::TaskOutcome::kDone
                            : mtc::TaskOutcome::kFailed);
  }
  for (int i = 0; i < 4; ++i) orch.absorb();
  ASSERT_TRUE(orch.check_due(orch.absorbed()));
  EXPECT_FALSE(orch.satisfies(orch.absorbed()));
  EXPECT_FALSE(orch.check_failed(orch.absorbed()));  // 4 + 4 < 10: not yet
  orch.absorb();
  orch.absorb();
  EXPECT_FALSE(orch.check_due(orch.absorbed()));  // next milestone is 8
  // Six landed, four lost: the pool drained below the milestone.
  ASSERT_TRUE(orch.drained());
  ASSERT_TRUE(orch.grow());
  EXPECT_EQ(orch.target(), 16u);
  EXPECT_EQ(orch.launch().size(), 10u);  // pool 20
  for (std::size_t id = 10; id < 12; ++id) {
    orch.resolve(id, mtc::TaskOutcome::kDone);
    orch.absorb();
  }
  ASSERT_TRUE(orch.check_due(orch.absorbed()));
  EXPECT_FALSE(orch.check_failed(orch.absorbed()));  // 8 + 4 < 20
  // Staged growth one stride before the pool's end.
  for (std::size_t id = 12; id < 20; ++id) {
    orch.resolve(id, mtc::TaskOutcome::kDone);
    orch.absorb();
  }
  ASSERT_TRUE(orch.check_due(orch.absorbed()));
  EXPECT_FALSE(orch.satisfies(orch.absorbed()));
  EXPECT_TRUE(orch.check_failed(orch.absorbed()));  // 16 + 4 >= 20
  EXPECT_EQ(orch.target(), 32u);
}

TEST(Orchestrator, MilestonesFollowTheCountPassedInNotTheAbsorbedCount) {
  EnsembleOrchestrator orch(orchestrator_params());
  for (std::size_t id : orch.launch()) {
    orch.resolve(id, mtc::TaskOutcome::kDone);
    orch.absorb();
  }
  ASSERT_EQ(orch.absorbed(), 10u);
  // The count passed in decides, not absorbed(): the real runner passes
  // its contiguous-id prefix, which lags while a lower id is still out.
  EXPECT_EQ(orch.next_check(), 4u);
  EXPECT_FALSE(orch.check_due(3));
  ASSERT_TRUE(orch.check_due(4));
  // Staged growth measures the same count: 4 + 4 < 10 keeps the pool,
  // although the absorbed count (10 + 4 >= 10) would have grown it.
  EXPECT_FALSE(orch.check_failed(4));
  EXPECT_EQ(orch.target(), 8u);
  EXPECT_EQ(orch.next_check(), 8u);
  EXPECT_FALSE(orch.check_due(7));
  EXPECT_TRUE(orch.check_due(8));
}

TEST(Orchestrator, FixedMultilevelPlanNeverGrows) {
  EnsembleOrchestrator::Params p = orchestrator_params();
  p.members_per_level = {4, 8};
  EnsembleOrchestrator orch(p);
  EXPECT_EQ(orch.capacity(), 12u);
  EXPECT_EQ(orch.level_of(3), 0u);
  EXPECT_EQ(orch.level_of(4), 1u);
  for (std::size_t id : orch.launch()) {
    orch.resolve(id, mtc::TaskOutcome::kDone);
    orch.absorb();
  }
  EXPECT_EQ(orch.ledger().done_per_level,
            (std::vector<std::size_t>{4, 8}));
  ASSERT_TRUE(orch.drained());
  EXPECT_FALSE(orch.grow());
  EXPECT_FALSE(orch.shrink_for_deadline(0.0, 1.0, 100.0, 1));
}

TEST(Orchestrator, DeadlinePressureLowersTheGoal) {
  EnsembleOrchestrator orch(orchestrator_params());
  // 20 members at 4 per 100 s wave fit a 600 s deadline ...
  EXPECT_FALSE(orch.shrink_for_deadline(0.0, 600.0, 100.0, 4));
  // ... but not a 400 s one: walk back to N = 4, never below the floor.
  EXPECT_TRUE(orch.shrink_for_deadline(0.0, 400.0, 100.0, 4));
  EXPECT_EQ(orch.target(), 4u);
  EXPECT_EQ(orch.goal(), 4u);
  EXPECT_TRUE(orch.degraded());
  EXPECT_FALSE(orch.shrink_for_deadline(0.0, 400.0, 100.0, 4));
}

// ---- acoustics fan-out (§5.2.1) ---------------------------------------------------------

TEST(AcousticsFanout, AllJobsCompleteAtExpectedThroughput) {
  Simulator sim;
  mtc::SchedulerParams p = mtc::sge_params();
  p.use_job_arrays = false;  // the paper submitted singletons
  p.submit_overhead_s = 0.05;
  ClusterScheduler sched(sim, test_cluster(), p);
  mtc::EsseJobShape sh = test_shape();
  sh.acoustics_cpu_s = 18.0;
  FanoutMetrics m = run_acoustics_fanout(sim, sched, sh, 600);
  EXPECT_EQ(m.completed, 600u);
  // 600 × 18 s over 32 cores ≈ 337 s lower bound.
  EXPECT_GT(m.makespan_s, 330.0);
  EXPECT_LT(m.makespan_s, 600.0);
}

// ---- augmentation (§5.3/§5.4) --------------------------------------------------------------

AugmentationConfig small_augmentation() {
  AugmentationConfig cfg;
  cfg.shape = test_shape();
  cfg.members = 96;
  cfg.home = test_cluster();
  GridPoolConfig grid;
  grid.site = mtc::purdue_site();
  grid.site.queue_wait_mean_s = 50.0;
  grid.cores = 16;
  cfg.grid_pools.push_back(grid);
  return cfg;
}

TEST(Augmentation, RemoteResourcesShortenMakespan) {
  AugmentationConfig cfg = small_augmentation();
  AugmentationResult r = run_augmented_ensemble(cfg);
  EXPECT_LT(r.makespan_s, r.local_only_makespan_s);
  ASSERT_EQ(r.pools.size(), 2u);
  EXPECT_EQ(r.pools[0].members_assigned + r.pools[1].members_assigned, 96u);
  EXPECT_EQ(r.pools[0].members_completed + r.pools[1].members_completed,
            96u);
}

TEST(Augmentation, HeterogeneityProducesDisorder) {
  AugmentationConfig cfg = small_augmentation();
  cfg.grid_pools[0].site.queue_wait_mean_s = 200.0;
  AugmentationResult r = run_augmented_ensemble(cfg);
  EXPECT_GT(r.disorder_fraction, 0.0);
  EXPECT_LT(r.disorder_fraction, 1.0);
}

TEST(Augmentation, CloudPoolIsBilled) {
  AugmentationConfig cfg = small_augmentation();
  cfg.grid_pools.clear();
  CloudPoolConfig cloud;
  cloud.instance = mtc::ec2_c1_medium();
  cloud.instances = 8;
  cfg.cloud_pool = cloud;
  AugmentationResult r = run_augmented_ensemble(cfg);
  EXPECT_GT(r.cloud_cost_usd, 0.0);
  EXPECT_LT(r.cloud_cost_reserved_usd, r.cloud_cost_usd);
}

// ---- forecast timeline (Fig. 1) -------------------------------------------------------------

TEST(Timeline, TracksAssimilatablePeriodsAndHorizon) {
  ForecastTimeline tl(0.0, 240.0);
  tl.add_observation_period({0.0, 24.0, 30.0, "T0"});
  tl.add_observation_period({24.0, 48.0, 54.0, "T1"});
  tl.add_observation_period({48.0, 72.0, 78.0, "T2"});
  // Forecaster starts at 60 h: only T0/T1 are available (T2 lands at 78).
  tl.add_procedure({60.0, 70.0, 0.0, 120.0});
  const auto usable = tl.assimilatable_periods(0);
  ASSERT_EQ(usable.size(), 2u);
  EXPECT_EQ(usable[1], 1u);
  EXPECT_DOUBLE_EQ(tl.nowcast_boundary(0), 48.0);
  EXPECT_DOUBLE_EQ(tl.forecast_horizon(0), 72.0);
}

TEST(Timeline, RenderMentionsEveryPeriodAndProcedure) {
  ForecastTimeline tl(0.0, 100.0);
  tl.add_observation_period({0.0, 10.0, 12.0, "survey"});
  tl.add_procedure({20.0, 24.0, 0.0, 60.0});
  const std::string s = tl.render();
  EXPECT_NE(s.find("T0"), std::string::npos);
  EXPECT_NE(s.find("tau0"), std::string::npos);
  EXPECT_NE(s.find("survey"), std::string::npos);
}

TEST(Timeline, ValidatesOrderingAndAvailability) {
  ForecastTimeline tl(0.0, 100.0);
  tl.add_observation_period({10.0, 20.0, 25.0, ""});
  // Out of order.
  EXPECT_THROW(tl.add_observation_period({5.0, 9.0, 9.5, ""}),
               PreconditionError);
  // Available before measured.
  EXPECT_THROW(tl.add_observation_period({30.0, 40.0, 35.0, ""}),
               PreconditionError);
  EXPECT_THROW(ForecastTimeline(10.0, 5.0), PreconditionError);
}

}  // namespace
}  // namespace essex::workflow
