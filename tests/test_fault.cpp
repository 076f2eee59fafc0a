// Failure-path tests of the unified ExecutionBackend fault layer:
// retry/backoff, runtime-based timeouts, straggler speculation, node
// outages with eviction + recovery, the per-job injection RNG streams,
// and graceful ensemble degradation in both Fig.-4 drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "esse/cycle.hpp"
#include "esse/repro.hpp"
#include "mtc/cluster.hpp"
#include "mtc/execution_backend.hpp"
#include "mtc/fault.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "obs/instruments.hpp"
#include "obs/observation.hpp"
#include "ocean/monterey.hpp"
#include "service/sim_service.hpp"
#include "workflow/esse_workflow_sim.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::mtc {
namespace {

/// Members with a final outcome: every resolution lands in one of the
/// three member-level FaultStats counters.
std::size_t members_resolved(const FaultStats& s) {
  return s.members_done + s.members_cancelled + s.members_lost;
}

// ---- a hand-cranked backend for deterministic executor tests -------------------

/// Manual-clock ExecutionBackend: the test decides when attempts start,
/// finish, and when time (and therefore timers) advances.
class MockBackend final : public ExecutionBackend {
 public:
  TaskId submit(std::size_t member, std::size_t attempt) override {
    const TaskId id = next_id_++;
    Task t;
    t.report.task = id;
    t.report.member = member;
    t.report.attempt = attempt;
    t.report.submitted = t_;
    tasks_[id] = t;
    submissions.push_back(id);
    return id;
  }

  void cancel(TaskId id) override {
    auto& t = tasks_.at(id);
    if (t.terminal) return;
    cancelled.push_back(id);
    finish(id, TaskOutcome::kCancelled);
  }

  TaskReport poll(TaskId id) const override { return tasks_.at(id).report; }
  double now() const override { return t_; }

  void after(double delay_s, std::function<void()> fn) override {
    timers_.emplace(t_ + delay_s, std::move(fn));
  }

  double expected_runtime_s() const override { return expected; }
  double min_timeout_s() const override { return min_timeout; }
  void set_report_hook(ReportHook hook) override { hook_ = std::move(hook); }

  // -- test controls --

  void start(TaskId id) {
    auto& t = tasks_.at(id);
    t.report.state = TaskState::kRunning;
    t.report.started = t_;
  }

  void finish(TaskId id, TaskOutcome outcome) {
    auto& t = tasks_.at(id);
    if (t.terminal) return;
    t.terminal = true;
    t.report.state = TaskState::kFinished;
    t.report.outcome = outcome;
    t.report.finished = t_;
    if (hook_) hook_(t.report);
  }

  /// Advance the clock by `dt`, firing due timers in deadline order
  /// (timers may schedule further timers).
  void advance(double dt) {
    const double end = t_ + dt;
    while (!timers_.empty() && timers_.begin()->first <= end + 1e-12) {
      auto it = timers_.begin();
      t_ = std::max(t_, it->first);
      auto fn = std::move(it->second);
      timers_.erase(it);
      fn();
    }
    t_ = end;
  }

  double expected = 0.0;
  double min_timeout = 0.0;
  std::vector<TaskId> submissions;
  std::vector<TaskId> cancelled;

 private:
  struct Task {
    TaskReport report;
    bool terminal = false;
  };
  double t_ = 0.0;
  TaskId next_id_ = 1;
  std::map<TaskId, Task> tasks_;
  std::multimap<double, std::function<void()>> timers_;
  ReportHook hook_;
};

FaultPolicy no_jitter_policy() {
  FaultPolicy p;
  p.backoff_jitter = 0.0;   // deterministic backoff schedule
  p.timeout_multiple = 0.0; // no timeouts unless the test arms them
  p.speculate = false;      // no straggler scans unless the test asks
  return p;
}

struct Resolution {
  std::size_t member;
  TaskOutcome outcome;
};

TEST(FaultExecutor, RetriesWithExponentialBackoffUntilSuccess) {
  MockBackend be;
  FaultPolicy p = no_jitter_policy();
  FaultTolerantExecutor exec(be, p);
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });

  exec.run_member(7);
  ASSERT_EQ(be.submissions.size(), 1u);
  be.start(be.submissions[0]);
  be.finish(be.submissions[0], TaskOutcome::kFailed);

  // Retry waits out the backoff (base 5 s): nothing resubmits early.
  EXPECT_FALSE(exec.idle());
  be.advance(4.9);
  EXPECT_EQ(be.submissions.size(), 1u);
  be.advance(0.2);
  ASSERT_EQ(be.submissions.size(), 2u);

  be.start(be.submissions[1]);
  be.finish(be.submissions[1], TaskOutcome::kFailed);
  // Second backoff doubles: 10 s.
  be.advance(9.8);
  EXPECT_EQ(be.submissions.size(), 2u);
  be.advance(0.4);
  ASSERT_EQ(be.submissions.size(), 3u);

  be.start(be.submissions[2]);
  be.finish(be.submissions[2], TaskOutcome::kDone);

  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].member, 7u);
  EXPECT_EQ(resolved[0].outcome, TaskOutcome::kDone);
  const FaultStats st = exec.stats();
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.failed_attempts, 2u);
  EXPECT_EQ(st.members_lost, 0u);
  EXPECT_TRUE(exec.idle());
}

TEST(FaultExecutor, MemberLostWhenRetriesExhausted) {
  MockBackend be;
  FaultPolicy p = no_jitter_policy();
  p.max_retries = 1;
  FaultTolerantExecutor exec(be, p);
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });

  exec.run_member(0);
  be.start(be.submissions[0]);
  be.finish(be.submissions[0], TaskOutcome::kFailed);
  be.advance(5.5);
  ASSERT_EQ(be.submissions.size(), 2u);
  be.start(be.submissions[1]);
  be.finish(be.submissions[1], TaskOutcome::kFailed);

  // Budget exhausted: resolved with the last failure outcome, counted
  // lost, and no further submissions ever happen.
  be.advance(60.0);
  EXPECT_EQ(be.submissions.size(), 2u);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].outcome, TaskOutcome::kFailed);
  EXPECT_EQ(exec.stats().members_lost, 1u);
  EXPECT_EQ(members_resolved(exec.stats()), 1u);
}

TEST(FaultExecutor, TimeoutBudgetCoversRunTimeNotQueueWait) {
  MockBackend be;
  be.expected = 10.0;
  FaultPolicy p = no_jitter_policy();
  p.timeout_multiple = 2.0;  // kill after 20 s of *run* time
  FaultTolerantExecutor exec(be, p);

  exec.run_member(3);
  ASSERT_EQ(be.submissions.size(), 1u);

  // 20 s pass with the attempt still queued: the timer re-arms instead
  // of killing a job that never got a core.
  be.advance(20.0);
  EXPECT_TRUE(be.cancelled.empty());

  be.start(be.submissions[0]);
  be.advance(20.0);  // now 20 s of actual run time have elapsed
  ASSERT_EQ(be.cancelled.size(), 1u);
  EXPECT_EQ(be.cancelled[0], be.submissions[0]);
  const FaultStats st = exec.stats();
  EXPECT_EQ(st.timeouts, 1u);
  // The kCancelled report was rewritten to kTimedOut and retried.
  EXPECT_EQ(st.retries, 1u);
  be.advance(6.0);  // backoff base
  EXPECT_EQ(be.submissions.size(), 2u);
}

TEST(FaultExecutor, TimeoutBudgetNeverDropsBelowTheBackendFloor) {
  MockBackend be;
  be.expected = 10.0;
  be.min_timeout = 50.0;  // the clock cannot honour the 20 s budget
  FaultPolicy p = no_jitter_policy();
  p.timeout_multiple = 2.0;
  FaultTolerantExecutor exec(be, p);

  exec.run_member(0);
  be.start(be.submissions[0]);
  be.advance(49.0);  // past 2 × expected, inside the floor: still alive
  EXPECT_TRUE(be.cancelled.empty());
  be.advance(1.0);
  ASSERT_EQ(be.cancelled.size(), 1u);
  EXPECT_EQ(exec.stats().timeouts, 1u);
}

struct SpeculationSetup {
  MockBackend be;
  std::unique_ptr<FaultTolerantExecutor> exec;
  std::vector<Resolution> resolved;
  TaskId original = 0;
  TaskId backup = 0;

  SpeculationSetup() {
    FaultPolicy p;
    p.backoff_jitter = 0.0;
    p.timeout_multiple = 0.0;
    p.speculate = true;
    p.straggler_min_samples = 2;
    p.straggler_multiple = 2.0;
    p.straggler_check_interval_s = 1e9;  // scans only when the test asks
    exec = std::make_unique<FaultTolerantExecutor>(be, p);
    exec->set_member_hook([this](std::size_t m, TaskOutcome o) {
      resolved.push_back({m, o});
    });

    // Two calibration members: 10 s each (p95 = 10, threshold = 20).
    be.advance(1.0);
    exec->run_member(0);
    exec->run_member(1);
    be.start(be.submissions[0]);
    be.start(be.submissions[1]);
    be.advance(10.0);
    be.finish(be.submissions[0], TaskOutcome::kDone);
    be.finish(be.submissions[1], TaskOutcome::kDone);

    // The straggler: runs past 2 × p95 before the scan.
    exec->run_member(2);
    original = be.submissions.at(2);
    be.start(original);
    be.advance(25.0);
    exec->check_stragglers();
    EXPECT_EQ(exec->stats().speculative_launched, 1u);
    backup = be.submissions.at(3);
    be.start(backup);
  }
};

TEST(FaultExecutor, SpeculativeCopyCancelledWhenOriginalWins) {
  SpeculationSetup s;
  s.be.finish(s.original, TaskOutcome::kDone);

  // The losing backup copy is cancelled, the member resolves exactly
  // once, and the backup's cancellation is not a loss.
  ASSERT_EQ(s.be.cancelled.size(), 1u);
  EXPECT_EQ(s.be.cancelled[0], s.backup);
  ASSERT_EQ(s.resolved.size(), 3u);
  EXPECT_EQ(s.resolved.back().member, 2u);
  EXPECT_EQ(s.resolved.back().outcome, TaskOutcome::kDone);
  const FaultStats st = s.exec->stats();
  EXPECT_EQ(st.speculative_won, 0u);
  EXPECT_EQ(st.members_lost, 0u);
  EXPECT_TRUE(s.exec->idle());
}

TEST(FaultExecutor, SpeculativeCopyCanWinTheRace) {
  SpeculationSetup s;
  s.be.finish(s.backup, TaskOutcome::kDone);

  ASSERT_EQ(s.be.cancelled.size(), 1u);
  EXPECT_EQ(s.be.cancelled[0], s.original);
  ASSERT_EQ(s.resolved.size(), 3u);
  EXPECT_EQ(s.resolved.back().outcome, TaskOutcome::kDone);
  EXPECT_EQ(s.exec->stats().speculative_won, 1u);
  EXPECT_EQ(members_resolved(s.exec->stats()), 3u);
}

TEST(FaultExecutor, CancelAllStopsRetriesAndCancelsLiveAttempts) {
  MockBackend be;
  FaultTolerantExecutor exec(be, no_jitter_policy());
  for (std::size_t m = 0; m < 3; ++m) exec.run_member(m);
  be.start(be.submissions[0]);
  // Member 1 is waiting out a backoff when the teardown happens.
  be.start(be.submissions[1]);
  be.finish(be.submissions[1], TaskOutcome::kFailed);

  exec.cancel_all();
  // Both live attempts cancelled; the pending retry evaporates.
  EXPECT_EQ(be.cancelled.size(), 2u);
  EXPECT_TRUE(exec.idle());
  be.advance(600.0);
  EXPECT_EQ(be.submissions.size(), 3u);  // no post-shutdown launches
  EXPECT_EQ(exec.stats().members_lost, 0u);
}

TEST(FaultExecutor, DrainModeAbandonsPendingRetriesAsCancelled) {
  MockBackend be;
  FaultTolerantExecutor exec(be, no_jitter_policy());
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });
  exec.run_member(0);
  be.start(be.submissions[0]);
  be.finish(be.submissions[0], TaskOutcome::kFailed);
  ASSERT_FALSE(exec.idle());  // retry pending

  exec.enter_drain_mode();
  // The abandoned retry resolves the member as cancelled — not lost.
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].outcome, TaskOutcome::kCancelled);
  EXPECT_EQ(exec.stats().members_lost, 0u);
  EXPECT_TRUE(exec.idle());
  be.advance(60.0);
  EXPECT_EQ(be.submissions.size(), 1u);
}

TEST(FaultExecutor, CancelMemberResolvesItCancelled) {
  MockBackend be;
  FaultTolerantExecutor exec(be, no_jitter_policy());
  std::vector<Resolution> resolved;
  exec.set_member_hook([&](std::size_t m, TaskOutcome o) {
    resolved.push_back({m, o});
  });
  exec.run_member(0);
  exec.run_member(1);
  be.start(be.submissions[0]);
  exec.cancel_member(0);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].member, 0u);
  EXPECT_EQ(resolved[0].outcome, TaskOutcome::kCancelled);
  EXPECT_EQ(be.cancelled.size(), 1u);
  EXPECT_EQ(exec.stats().members_lost, 0u);
}

// ---- per-job injection RNG streams (the splittable-key bugfix) -----------------

ClusterSpec tiny_cluster(std::size_t nodes, std::size_t cores) {
  ClusterSpec spec;
  spec.name = "tiny";
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = cores;
    spec.nodes.push_back(n);
  }
  return spec;
}

ClusterScheduler::JobBody compute_job(double seconds) {
  return [seconds](JobContext& ctx) {
    ctx.compute(seconds, [&ctx] { ctx.finish(); });
  };
}

std::set<JobId> failing_jobs(std::size_t n_jobs) {
  Simulator sim;
  SchedulerParams sp = sge_params();
  sp.faults.segment.probability = 0.3;
  sp.faults.seed = 97;
  ClusterScheduler sched(sim, tiny_cluster(4, 2), sp);
  for (std::size_t i = 0; i < n_jobs; ++i) sched.submit(compute_job(10.0));
  sim.run();
  std::set<JobId> failed;
  for (const auto& r : sched.records()) {
    if (r.status == JobStatus::kFailed) failed.insert(r.id);
  }
  return failed;
}

TEST(FaultInjectionRng, JobFatesAreKeyedByJobIdNotDrawOrder) {
  // The old scheduler-wide RNG stream made job k's fate depend on how
  // many draws happened before it ran; the per-job splittable key makes
  // the failing set of the first 50 jobs invariant to workload size.
  const std::set<JobId> small = failing_jobs(50);
  const std::set<JobId> large = failing_jobs(100);
  ASSERT_FALSE(small.empty());  // p=0.3 over 50 jobs
  std::set<JobId> large_first50;
  for (JobId id : large) {
    if (id < 50) large_first50.insert(id);
  }
  EXPECT_EQ(small, large_first50);
}

// ---- node outages ---------------------------------------------------------------

TEST(NodeOutages, EvictRunningJobsAndRecover) {
  Simulator sim;
  telemetry::Sink sink("outages");
  SchedulerParams sp = sge_params();
  sp.faults.outage.mtbf_s = 40.0;   // fleet-level Poisson clock
  sp.faults.outage.duration_s = 30.0;
  sp.faults.seed = 5;
  ClusterScheduler sched(sim, tiny_cluster(4, 2), sp);
  sched.set_telemetry(&sink);
  for (std::size_t i = 0; i < 24; ++i) sched.submit(compute_job(20.0));
  sim.run();

  std::size_t done = 0, evicted = 0;
  for (const auto& r : sched.records()) {
    if (r.status == JobStatus::kDone) ++done;
    if (r.status == JobStatus::kEvicted) ++evicted;
  }
  EXPECT_EQ(done + evicted, 24u);
  EXPECT_GT(evicted, 0u);  // deterministic under the fixed seed
  EXPECT_GE(sink.metrics().value("sched.node_outages"), 1.0);
  // Every downed node came back: outages never leak capacity.
  EXPECT_EQ(sink.metrics().value("sched.node_recoveries"),
            sink.metrics().value("sched.node_outages"));
  EXPECT_EQ(sched.free_cores(), sched.cluster().total_cores());
}

}  // namespace
}  // namespace essex::mtc

// ---- the DES workflow driver on the fault layer --------------------------------

namespace essex::workflow {
namespace {

using mtc::ClusterScheduler;
using mtc::ClusterSpec;
using mtc::Simulator;

ClusterSpec wf_cluster(std::size_t nodes = 16, std::size_t cores = 2) {
  ClusterSpec spec;
  spec.name = "wf";
  for (std::size_t i = 0; i < nodes; ++i) {
    mtc::NodeSpec n;
    n.name = "n";
    n.name += std::to_string(i);
    n.cores = cores;
    spec.nodes.push_back(n);
  }
  return spec;
}

mtc::EsseJobShape wf_shape() {
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

EsseWorkflowConfig wf_config() {
  EsseWorkflowConfig cfg;
  cfg.shape = wf_shape();
  cfg.initial_members = 32;
  cfg.converge_at = 32;
  cfg.max_members = 128;
  cfg.svd_stride = 8;
  cfg.fault.backoff_jitter = 0.0;
  return cfg;
}

WorkflowMetrics run_faulty(EsseWorkflowConfig cfg,
                           mtc::SchedulerParams sp) {
  Simulator sim;
  ClusterScheduler sched(sim, wf_cluster(), sp);
  return run_parallel_esse(sim, sched, cfg);
}

TEST(FaultyWorkflow, RetriesRecoverInjectedFailures) {
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.segment.probability = 0.2;
  sp.faults.seed = 17;
  WorkflowMetrics m = run_faulty(wf_config(), sp);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.members_failed, 0u);
  EXPECT_GT(m.members_retried, 0u);
  EXPECT_EQ(m.members_lost, 0u);  // default budget absorbs p=0.2
  EXPECT_GE(m.members_diffed, 32u);
}

TEST(FaultyWorkflow, NodeOutagesAreAbsorbedWithZeroLoss) {
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.outage.mtbf_s = 60.0;
  sp.faults.outage.duration_s = 50.0;
  sp.faults.seed = 9;
  EsseWorkflowConfig cfg = wf_config();
  cfg.converge_at = 64;  // longer run → outages certain to strike
  WorkflowMetrics m = run_faulty(cfg, sp);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.members_evicted, 0u);
  EXPECT_EQ(m.members_lost, 0u);
  EXPECT_GE(m.members_diffed, 64u);
}

TEST(FaultyWorkflow, FaultyRunsAreDeterministic) {
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.segment.probability = 0.25;
  sp.faults.outage.mtbf_s = 120.0;
  sp.faults.seed = 4242;
  WorkflowMetrics a = run_faulty(wf_config(), sp);
  WorkflowMetrics b = run_faulty(wf_config(), sp);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.members_retried, b.members_retried);
  EXPECT_EQ(a.members_evicted, b.members_evicted);
  EXPECT_EQ(a.members_failed, b.members_failed);
  EXPECT_EQ(a.svd_runs, b.svd_runs);
}

TEST(FaultyWorkflow, ConvergenceCancellationRacesInjectedFailures) {
  // Pool headroom means convergence fires while spares are mid-flight
  // and while some failed members are waiting out their backoff: the
  // drain must terminate with consistent counts either way.
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.segment.probability = 0.3;
  sp.faults.seed = 71;
  EsseWorkflowConfig cfg = wf_config();
  cfg.pool_headroom = 2.0;
  cfg.cancel_policy = CancelPolicy::kCancelImmediately;
  WorkflowMetrics m = run_faulty(cfg, sp);
  EXPECT_TRUE(m.converged);
  EXPECT_GE(m.members_diffed, 32u);
  EXPECT_GT(m.members_failed, 0u);
  EXPECT_GT(m.members_cancelled, 0u);
}

TEST(FaultyWorkflow, StragglersOnSlowNodesAreSpeculativelyReExecuted) {
  // Table-1 heterogeneity: one node runs at 1/5 speed. Its members
  // blow past 2 × p95 and get backup copies on fast nodes.
  ClusterSpec spec = wf_cluster();
  spec.nodes[1].cpu_speed = 0.2;
  mtc::SchedulerParams sp = mtc::sge_params();
  EsseWorkflowConfig cfg = wf_config();
  cfg.pool_headroom = 1.0;  // no spares: the slow members gate convergence
  cfg.max_members = 32;     // no pool growth either
  cfg.fault.straggler_min_samples = 8;
  Simulator sim;
  ClusterScheduler sched(sim, spec, sp);
  WorkflowMetrics m = run_parallel_esse(sim, sched, cfg);
  EXPECT_TRUE(m.converged);
  EXPECT_GT(m.speculative_launched, 0u);
  EXPECT_GT(m.speculative_won, 0u);  // backups on fast nodes win the race
  EXPECT_EQ(m.members_lost, 0u);
  // The backup copies bound the makespan well below the slow node's
  // ~505 s member runtime.
  EXPECT_LT(m.makespan_s, 400.0);
}

TEST(FaultyWorkflow, ConvergedRunWithLossesReportsDegraded) {
  mtc::SchedulerParams sp = mtc::sge_params();
  // Injection strikes each of the two compute segments independently:
  // p=0.3 leaves ~half the pool alive, far above the converge_at bar.
  sp.faults.segment.probability = 0.3;
  sp.faults.seed = 23;
  EsseWorkflowConfig cfg = wf_config();
  cfg.fault.max_retries = 0;    // every failure is a permanent loss
  cfg.pool_headroom = 3.0;      // enough spares to still converge
  cfg.converge_at = 24;
  WorkflowMetrics m = run_faulty(cfg, sp);
  ASSERT_TRUE(m.converged);
  EXPECT_GT(m.members_lost, 0u);
  EXPECT_TRUE(m.degraded);
}

}  // namespace
}  // namespace essex::workflow

// ---- the DES forecast-service twin on the fault layer ---------------------------

namespace essex::service {
namespace {

TEST(SimServiceFaults, EvictedMembersAreRetriedUnderTheirOwnId) {
  mtc::Simulator sim;
  mtc::SchedulerParams sp = mtc::sge_params();
  sp.faults.outage.mtbf_s = 1500.0;  // ~one outage per member runtime
  sp.faults.outage.duration_s = 600.0;
  sp.faults.seed = 7;
  mtc::ClusterScheduler sched(sim, workflow::wf_cluster(4, 2), sp);
  telemetry::Sink sink("twin-outages");
  SimServiceConfig cfg;
  cfg.max_inflight = 2;
  cfg.sink = &sink;
  SimForecastService svc(sim, sched, cfg);
  SimRequestSpec spec;
  spec.initial_members = 8;
  spec.max_members = 16;
  spec.converge_at = 8;
  for (int i = 0; i < 3; ++i) {
    sim.at(1000.0 * i, [&svc, spec] { svc.submit(spec); });
  }
  sim.run();

  ASSERT_TRUE(svc.idle());
  ASSERT_EQ(svc.outcomes().size(), 3u);
  std::size_t dispatched = 0;
  for (const SimRequestOutcome& out : svc.outcomes()) {
    EXPECT_EQ(out.state, RequestState::kDone);
    EXPECT_TRUE(out.converged);
    // Each member id resolves exactly once, whatever its attempts did.
    EXPECT_EQ(out.members_dispatched, out.members_completed +
                                          out.members_cancelled +
                                          out.members_failed);
    dispatched += out.members_dispatched;
  }
  EXPECT_EQ(svc.leaked_members(), 0);
  std::size_t evicted = 0;
  for (const mtc::JobRecord& r : sched.records()) {
    if (r.status == mtc::JobStatus::kEvicted) ++evicted;
  }
  ASSERT_GT(evicted, 0u);  // deterministic under the fixed seed
  // An evicted member re-runs under its own id instead of a fresh one
  // refilling its slot: some ids ran more than one scheduler job, and
  // every extra job is a retry.
  ASSERT_GT(sched.records().size(), dispatched);
  const double retries = sink.metrics().value("fault.retries");
  EXPECT_GT(retries, 0.0);
  EXPECT_LE(static_cast<double>(sched.records().size()),
            static_cast<double>(dispatched) + retries);
  EXPECT_EQ(sink.metrics().value("fault.evictions"),
            static_cast<double>(evicted));
  EXPECT_EQ(sched.queued_jobs(), 0u);
  EXPECT_EQ(sched.running_jobs(), 0u);
}

}  // namespace
}  // namespace essex::service

// ---- the real-thread runner + the esse-cycle degradation floor -----------------

namespace essex::esse {
namespace {

struct FaultRunnerFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_double_gyre_scenario(12, 10, 3));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
    subspace = bootstrap_subspace(*model, sc->initial, 0.0, 3.0, 8, 0.99,
                                  6, /*seed=*/11);
  }
  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
  ErrorSubspace subspace;
};

workflow::ParallelRunnerConfig fast_retry_config() {
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 3.0;
  cfg.cycle.threads = 2;
  cfg.cycle.ensemble = {8, 2.0, 48};
  cfg.cycle.convergence = {0.90, 6};
  cfg.cycle.max_rank = 8;
  cfg.svd_min_new_members = 4;
  cfg.fault.backoff_base_s = 0.005;  // wall-clock backoff: keep tests fast
  cfg.fault.backoff_jitter = 0.0;
  cfg.fault.timeout_multiple = 0.0;
  cfg.fault.speculate = false;
  return cfg;
}

TEST_F(FaultRunnerFixture, InjectedFailuresAreRetriedToCompletion) {
  workflow::ParallelRunnerConfig cfg = fast_retry_config();
  cfg.fault.max_retries = 6;  // loss probability 0.3^7 ≈ 2e-4 per member
  cfg.inject.segment.probability = 0.3;
  cfg.inject.seed = 77;
  ForecastResult res = workflow::run_parallel_forecast(
      workflow::ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});
  EXPECT_GT(res.members_run, 4u);
  ASSERT_TRUE(res.mtc.has_value());
  EXPECT_GT(res.mtc->members_failed, 0u);
  EXPECT_GT(res.mtc->members_retried, 0u);
  EXPECT_EQ(res.mtc->members_lost, 0u);
  EXPECT_EQ(res.mtc->members_submitted,
            res.members_run + res.mtc->members_cancelled);
}

TEST_F(FaultRunnerFixture, LostMembersStillGrowThePoolToNmax) {
  // Never converges (rho < 1), and no retries: roughly a third of the
  // members are lost, yet every drained pool grows, 10 -> 20 -> 32.
  workflow::ParallelRunnerConfig cfg = fast_retry_config();
  cfg.cycle.ensemble = {8, 2.0, 32};
  cfg.cycle.convergence.similarity_threshold = 1.0;
  cfg.fault.max_retries = 0;
  cfg.inject.segment.probability = 0.3;
  cfg.inject.seed = 77;
  std::string digest;
  for (std::size_t threads : {1, 3}) {
    cfg.cycle.threads = threads;
    ForecastResult res = workflow::run_parallel_forecast(
        workflow::ForecastRequest{*model, sc->initial, subspace, 0.0, cfg});
    ASSERT_TRUE(res.mtc.has_value());
    const MtcAccounting& a = *res.mtc;
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(a.members_submitted, 32u) << threads << " threads";
    EXPECT_GT(a.members_lost, 0u);
    EXPECT_EQ(a.members_done + a.members_lost + a.members_cancelled_final,
              a.members_submitted);
    EXPECT_EQ(res.members_run, a.members_done);
    if (digest.empty()) {
      digest = forecast_digest(res);
    } else {
      EXPECT_EQ(forecast_digest(res), digest) << threads << " threads";
    }
  }
}

TEST_F(FaultRunnerFixture, AllMembersLostTripsTheDegradationFloor) {
  workflow::ParallelRunnerConfig cfg = fast_retry_config();
  cfg.fault.max_retries = 0;
  cfg.inject.segment.probability = 1.0;  // every attempt dies
  EXPECT_THROW(
      workflow::run_parallel_forecast(workflow::ForecastRequest{
          *model, sc->initial, subspace, 0.0, cfg}),
      essex::Error);
}

TEST_F(FaultRunnerFixture, AnalysisRefusesBelowMemberFloor) {
  Rng obs_rng(31);
  ocean::OceanState truth = sc->initial;
  auto campaign = obs::aosn_campaign(sc->grid, truth, obs_rng);
  obs::ObsOperator h(sc->grid, campaign);

  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = 2.0;
  cfg.cycle.ensemble = {6, 2.0, 6};
  cfg.cycle.convergence = {0.95, 100};
  cfg.cycle.max_rank = 6;
  cfg.fault.min_members = 1000;  // unreachable floor N′
  EXPECT_THROW(workflow::run_assimilation_cycle(
                   workflow::ForecastRequest{*model, sc->initial, subspace,
                                             0.0, cfg},
                   ObsSet::from_operator(h)),
               essex::PreconditionError);
}

TEST(FaultPolicyValidation, FloorAboveTheLargestEnsembleIsRejectedUpFront) {
  // A floor no run of this request can reach is a configuration error:
  // validate() names it before any member is integrated.
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.ensemble = {8, 2.0, 24};
  cfg.fault.min_members = 24;  // exactly Nmax: reachable
  EXPECT_TRUE(workflow::validate(cfg).empty());
  cfg.fault.min_members = 25;
  const auto issues = workflow::validate(cfg);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "config.fault.min_members");

  // A multilevel request runs its planned member total, whatever Nmax.
  cfg.cycle.multilevel.levels = 2;
  cfg.cycle.multilevel.members_per_level = {4, 16};
  cfg.fault.min_members = 20;  // the planned total: reachable
  EXPECT_TRUE(workflow::validate(cfg).empty());
  cfg.fault.min_members = 21;
  const auto ml_issues = workflow::validate(cfg);
  ASSERT_EQ(ml_issues.size(), 1u);
  EXPECT_EQ(ml_issues[0].field, "config.fault.min_members");
}

}  // namespace
}  // namespace essex::esse
