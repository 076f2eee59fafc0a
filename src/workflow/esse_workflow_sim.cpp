#include "workflow/esse_workflow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "mtc/execution_backend.hpp"
#include "workflow/ensemble_orchestrator.hpp"

namespace essex::workflow {

namespace {

using mtc::ClusterScheduler;
using mtc::JobContext;
using mtc::JobId;
using mtc::JobRecord;
using mtc::JobStatus;
using mtc::Simulator;
using mtc::TaskOutcome;
using mtc::TaskReport;
using mtc::TaskState;

/// Per-member accounting collected by the drivers.
struct MemberStats {
  double pert_cpu = 0;   ///< busy part of the pert phase (wall s)
  double pert_io = 0;    ///< blocked part of the pert phase (wall s)
  bool completed = false;
};

/// Shared context the job bodies write into. Owned by the drivers.
struct BodyEnv {
  ClusterScheduler& sched;
  EsseWorkflowConfig cfg;
  std::vector<MemberStats> stats;
  std::function<void(std::size_t)> on_output_home;  // may be empty
};

/// The singleton job body (paper Fig. 3/4 "Pert" + "Forecast"):
/// stage input → pert (cpu + local-fs busy part) → pemodel → copy-back.
ClusterScheduler::JobBody make_member_body(std::shared_ptr<BodyEnv> env,
                                           std::size_t member) {
  return [env, member](JobContext& ctx) {
    // The pert phase starts when the job starts: input staging is part
    // of it (that is exactly what the paper's 20 % utilisation measures).
    const double t_pert_start = env->sched.sim().now();
    auto after_input = [env, member, &ctx, t_pert_start]() {
      const mtc::EsseJobShape& sh = env->cfg.shape;
      ctx.compute(sh.pert_cpu_s, [env, member, &ctx, t_pert_start] {
        const mtc::EsseJobShape& sh2 = env->cfg.shape;
        ctx.busy_wait(sh2.pert_fs_s, [env, member, &ctx, t_pert_start] {
          const mtc::EsseJobShape& sh3 = env->cfg.shape;
          // pert done: split its wall time into busy vs blocked for the
          // utilisation metric (§5.2.1's ≈20 % → ≈100 %).
          MemberStats& ms = env->stats[member];
          ms.pert_cpu = sh3.pert_cpu_s / ctx.cpu_speed() + sh3.pert_fs_s;
          ms.pert_io =
              (env->sched.sim().now() - t_pert_start) - ms.pert_cpu;
          ctx.compute(sh3.pemodel_cpu_s, [env, member, &ctx] {
            ctx.transfer(env->sched.nfs(), env->cfg.shape.output_bytes,
                         [env, member, &ctx] {
                           env->stats[member].completed = true;
                           ctx.finish();
                           if (env->on_output_home)
                             env->on_output_home(member);
                         });
          });
        });
      });
    };

    switch (env->cfg.staging) {
      case mtc::InputStaging::kNfsDirect:
        // Shared input files read over NFS: contended with every other
        // concurrently-starting singleton.
        ctx.transfer(env->sched.nfs(), env->cfg.shape.input_bytes,
                     after_input);
        break;
      case mtc::InputStaging::kOpenDapRemote: {
        // §5.3.2: hundreds of per-variable requests against one central
        // OpenDAP server — request latency on top of the shared read.
        const double latency =
            static_cast<double>(env->cfg.shape.opendap_requests) *
            env->cfg.shape.opendap_request_latency_s;
        ctx.wait(latency, [env, &ctx, after_input] {
          ctx.transfer(env->sched.nfs(), env->cfg.shape.input_bytes,
                       after_input);
        });
        break;
      }
      case mtc::InputStaging::kPrestageLocal:
        // Prestaged: the inputs already sit on the local disk, their
        // read cost is inside pert's local-fs busy part.
        after_input();
        break;
    }
  };
}

double head_speed(const ClusterScheduler& sched,
                  const EsseWorkflowConfig& cfg) {
  ESSEX_REQUIRE(cfg.master_node < sched.cluster().nodes.size(),
                "master node index out of range");
  return sched.cluster().nodes[cfg.master_node].cpu_speed;
}

void fill_common_metrics(const ClusterScheduler& sched,
                         const std::vector<JobId>& member_jobs,
                         WorkflowMetrics& m) {
  // Serial driver: one job per member, so job-level and member-level
  // accounting coincide.
  m.members_dispatched = member_jobs.size();
  for (JobId id : member_jobs) {
    const JobRecord& r = sched.record(id);
    switch (r.status) {
      case JobStatus::kDone:
        ++m.members_completed;
        break;
      case JobStatus::kFailed:
      case JobStatus::kEvicted:
        ++m.members_failed;
        // No retry layer in the Fig.-3 driver: a failed job is a lost
        // member.
        ++m.members_lost;
        break;
      case JobStatus::kCancelled:
      case JobStatus::kQueued:
      case JobStatus::kRunning:
        ++m.members_cancelled;
        ++m.members_cancelled_final;
        // Wasted work = core occupancy of a killed member (its partial
        // segments burnt real node time even though cpu accounting only
        // credits completed segments).
        if (r.started > 0) m.wasted_cpu_seconds += r.finished - r.started;
        break;
    }
  }
}

/// Close a run's metrics — pert CPU utilisation (mean over members whose
/// pert ran) and NFS bytes — and publish the §5 figures into the
/// telemetry session, so benches/tests read them out of recorded
/// metrics, not driver fields.
void publish_workflow_metrics(telemetry::Sink* sink, ClusterScheduler& sched,
                              const std::vector<MemberStats>& stats,
                              WorkflowMetrics& m) {
  double util_sum = 0;
  std::size_t util_n = 0;
  for (const auto& s : stats) {
    if (s.pert_cpu > 0) {
      util_sum += s.pert_cpu / std::max(s.pert_cpu + s.pert_io, 1e-9);
      ++util_n;
    }
  }
  m.pert_cpu_utilization =
      util_n ? util_sum / static_cast<double>(util_n) : 0;
  m.nfs_bytes_moved = sched.nfs().bytes_moved();
  if (!sink) return;
  sink->gauge_set("workflow.makespan_s", m.makespan_s);
  sink->gauge_set("workflow.converged", m.converged ? 1.0 : 0.0);
  sink->gauge_set("workflow.converged_at_s", m.converged_at_s);
  sink->gauge_set("workflow.deadline_hit", m.deadline_hit ? 1.0 : 0.0);
  sink->gauge_set("workflow.pert_cpu_utilization", m.pert_cpu_utilization);
  sink->gauge_set("workflow.wasted_cpu_seconds", m.wasted_cpu_seconds);
  sink->gauge_set("workflow.svd_idle_wait_s", m.svd_idle_wait_s);
  sink->count("workflow.members_completed",
              static_cast<double>(m.members_completed));
  sink->count("workflow.members_cancelled",
              static_cast<double>(m.members_cancelled));
  sink->count("workflow.members_failed",
              static_cast<double>(m.members_failed));
  sink->count("workflow.members_diffed",
              static_cast<double>(m.members_diffed));
  sink->count("workflow.svd_runs", static_cast<double>(m.svd_runs));
  sink->count("workflow.nfs_bytes_moved", m.nfs_bytes_moved);
  sink->count("workflow.members_retried",
              static_cast<double>(m.members_retried));
  sink->count("workflow.members_evicted",
              static_cast<double>(m.members_evicted));
  sink->count("workflow.members_lost",
              static_cast<double>(m.members_lost));
  sink->gauge_set("workflow.degraded", m.degraded ? 1.0 : 0.0);
  const double denom =
      m.makespan_s * static_cast<double>(sched.schedulable_cores());
  sink->gauge_set("workflow.core_utilisation",
                  denom > 0 ? sched.busy_core_seconds() / denom : 0.0);
}

// ---- serial driver (Fig. 3) --------------------------------------------

struct SerialDriver : std::enable_shared_from_this<SerialDriver> {
  Simulator& sim;
  ClusterScheduler& sched;
  EsseWorkflowConfig cfg;
  std::shared_ptr<BodyEnv> env;
  WorkflowMetrics metrics;
  std::vector<JobId> member_jobs;
  std::size_t round_target = 0;
  std::size_t submitted = 0;
  std::size_t landed_this_round = 0;
  std::size_t expected_this_round = 0;
  std::size_t diffed_total = 0;
  bool done = false;

  SerialDriver(Simulator& s, ClusterScheduler& c,
               const EsseWorkflowConfig& config)
      : sim(s), sched(c), cfg(config) {
    env = std::make_shared<BodyEnv>(BodyEnv{sched, cfg, {}, nullptr});
    env->stats.resize(cfg.max_members + 1);
  }

  void start() {
    if (cfg.sink) sched.set_telemetry(cfg.sink);
    round_target = cfg.initial_members;
    launch_round();
  }

  void launch_round() {
    // Fig. 3 bottleneck 1: the perturb/forecast loop must fully finish
    // (including failures) before the diff loop may start.
    expected_this_round = round_target - submitted;
    landed_this_round = 0;
    auto self = shared_from_this();
    sched.set_completion_hook([self](const JobRecord&) {
      ++self->landed_this_round;
      if (self->landed_this_round == self->expected_this_round)
        self->diff_stage();
    });
    std::vector<ClusterScheduler::JobBody> bodies;
    for (std::size_t m = submitted; m < round_target; ++m) {
      bodies.push_back(make_member_body(env, m));
    }
    submitted = round_target;
    auto ids = sched.submit_array(std::move(bodies));
    member_jobs.insert(member_jobs.end(), ids.begin(), ids.end());
  }

  void diff_stage() {
    // Diff every completed-but-undiffed member, strictly serially on the
    // master (Fig. 3 bottleneck 2: "the same file is written to").
    std::size_t completed = 0;
    for (const auto& s : env->stats)
      if (s.completed) ++completed;
    const std::size_t new_members = completed - diffed_total;
    const double diff_time = static_cast<double>(new_members) *
                             cfg.shape.diff_cpu_s / head_speed(sched, cfg);
    diffed_total = completed;
    auto self = shared_from_this();
    sim.after(diff_time, [self] { self->svd_stage(); });
  }

  void svd_stage() {
    // Fig. 3 bottleneck 3: the SVD waits for the diff loop.
    ++metrics.svd_runs;
    if (cfg.sink)
      cfg.sink->event("workflow.svd_run", sim.now(),
                      static_cast<double>(diffed_total));
    auto self = shared_from_this();
    sim.after(cfg.shape.svd_seconds(diffed_total, head_speed(sched, cfg)),
              [self] { self->convergence_stage(); });
  }

  void convergence_stage() {
    metrics.members_diffed = diffed_total;
    if (diffed_total >= cfg.converge_at) {
      metrics.converged = true;
      metrics.converged_at_s = sim.now();
      if (cfg.sink)
        cfg.sink->event("workflow.converged", sim.now(),
                        static_cast<double>(diffed_total));
      finish();
      return;
    }
    if (round_target >= cfg.max_members) {
      finish();  // Nmax reached without convergence
      return;
    }
    // Loop back: N → N₂ and run members N+1 … N₂ (Fig. 3).
    round_target = std::min(
        cfg.max_members,
        static_cast<std::size_t>(
            std::ceil(static_cast<double>(round_target) * cfg.growth)));
    launch_round();
  }

  void finish() {
    if (done) return;
    done = true;
    metrics.makespan_s = sim.now();
    sched.set_completion_hook(nullptr);
    fill_common_metrics(sched, member_jobs, metrics);
    publish_workflow_metrics(cfg.sink, sched, env->stats, metrics);
  }
};

// ---- parallel driver (Fig. 4) ------------------------------------------

/// DES adapter over EnsembleOrchestrator: the modelled differ and SVD
/// timing on the master, the cancel policies and the deadline.
struct ParallelDriver : std::enable_shared_from_this<ParallelDriver> {
  Simulator& sim;
  ClusterScheduler& sched;
  EsseWorkflowConfig cfg;
  std::shared_ptr<BodyEnv> env;
  WorkflowMetrics metrics;
  EnsembleOrchestrator orch;

  // Members are submitted through the unified ExecutionBackend API; the
  // fault layer owns retries, timeouts and straggler speculation, and
  // reports each member's *final* outcome exactly once.
  std::unique_ptr<mtc::SimExecutionBackend> backend;
  std::unique_ptr<mtc::FaultTolerantExecutor> exec;

  std::size_t last_svd_n = 0;
  std::deque<std::size_t> diff_queue;
  std::vector<bool> output_seen;  // one diff per member, ever
  bool differ_busy = false;
  bool svd_busy = false;
  bool svd_waiting = false;
  double svd_wait_start = 0;
  bool done = false;
  bool draining = false;  // post-convergence final pass
  double last_activity = 0;  // last member/differ/SVD event time

  ParallelDriver(Simulator& s, ClusterScheduler& c,
                 const EsseWorkflowConfig& config)
      : sim(s), sched(c), cfg(config),
        // Headroom pool, staged growth one stride ahead of the pool's
        // end, modelled convergence at converge_at.
        orch({.ensemble = {cfg.initial_members, cfg.growth, cfg.max_members,
                           2},
              .pool_headroom = cfg.pool_headroom,
              .members_per_level = {},
              .check_stride = cfg.svd_stride,
              .grow_lookahead = cfg.svd_stride,
              .goal = cfg.converge_at}) {
    env = std::make_shared<BodyEnv>(BodyEnv{sched, cfg, {}, nullptr});
    env->stats.resize(cfg.max_members + 1);
    output_seen.resize(cfg.max_members + 1, false);
  }

  void start() {
    if (cfg.sink) sched.set_telemetry(cfg.sink);
    auto self = shared_from_this();
    env->on_output_home = [self](std::size_t m) {
      self->on_member_output(m);
    };
    // Expected single-attempt runtime at unit speed — the calibrated
    // EsseJobShape timings — anchors timeouts and straggler scans.
    const double expected_runtime =
        cfg.shape.pert_cpu_s + cfg.shape.pert_fs_s + cfg.shape.pemodel_cpu_s;
    backend = std::make_unique<mtc::SimExecutionBackend>(
        sched,
        [body_env = env](std::size_t member, std::size_t /*attempt*/) {
          return mtc::SimExecutionBackend::Job{
              make_member_body(body_env, member)};
        },
        expected_runtime);
    exec = std::make_unique<mtc::FaultTolerantExecutor>(*backend, cfg.fault,
                                                        cfg.sink);
    exec->set_member_hook([self](std::size_t member, TaskOutcome outcome) {
      self->on_member_resolved(member, outcome);
    });
    exec->set_report_observer([self](const TaskReport&) {
      self->last_activity = self->sim.now();
      self->maybe_drained();
    });
    launch();
    if (cfg.deadline_s > 0) {
      sim.at(cfg.deadline_s, [self] {
        if (!self->done) {
          self->metrics.deadline_hit = true;
          self->conclude(self->sim.now());
        }
      });
    }
  }

  void launch() {
    for (std::size_t member : orch.launch()) exec->run_member(member);
  }

  void launch_grown() {
    if (cfg.sink)
      cfg.sink->event("workflow.pool_grown", sim.now(),
                      static_cast<double>(orch.target()));
    launch();
  }

  void on_member_output(std::size_t member) {
    if (done || output_seen[member]) return;
    output_seen[member] = true;
    // The differ runs continuously, absorbing results in completion
    // order (§4.1's fix for bottleneck 2: bookkeeping, not ordering).
    diff_queue.push_back(member);
    pump_differ();
  }

  void on_member_resolved(std::size_t member, TaskOutcome outcome) {
    last_activity = sim.now();
    orch.resolve(member, outcome);
    maybe_drained();
  }

  void pump_differ() {
    if (differ_busy || diff_queue.empty() || done) return;
    differ_busy = true;
    diff_queue.pop_front();
    auto self = shared_from_this();
    sim.after(cfg.shape.diff_cpu_s / head_speed(sched, cfg), [self] {
      self->differ_busy = false;
      self->orch.absorb();
      self->last_activity = self->sim.now();
      self->poke_svd();
      self->pump_differ();
      self->maybe_drained();
    });
  }

  void poke_svd() {
    if (done || svd_busy) return;
    if (!draining && !orch.check_due(orch.absorbed())) {
      if (!svd_waiting) {
        svd_waiting = true;
        svd_wait_start = sim.now();
      }
      return;
    }
    if (draining && orch.absorbed() <= last_svd_n) return;
    if (svd_waiting) {
      metrics.svd_idle_wait_s += sim.now() - svd_wait_start;
      svd_waiting = false;
    }
    svd_busy = true;
    const std::size_t n = orch.absorbed();  // the "safe file" snapshot
    ++metrics.svd_runs;
    if (cfg.sink)
      cfg.sink->event("workflow.svd_run", sim.now(),
                      static_cast<double>(n));
    auto self = shared_from_this();
    sim.after(cfg.shape.svd_seconds(n, head_speed(sched, cfg)), [self, n] {
      self->svd_busy = false;
      self->last_svd_n = n;
      self->last_activity = self->sim.now();
      self->convergence_check(n);
    });
  }

  void convergence_check(std::size_t n) {
    if (done) return;
    metrics.members_diffed = orch.absorbed();
    if (draining) {
      maybe_drained();
      return;
    }
    if (orch.satisfies(n)) {
      metrics.converged = true;
      metrics.converged_at_s = sim.now();
      if (cfg.sink)
        cfg.sink->event("workflow.converged", sim.now(),
                        static_cast<double>(n));
      apply_cancel_policy();
      return;
    }
    if (orch.check_failed(orch.absorbed())) launch_grown();
    poke_svd();
    maybe_drained();
  }

  void apply_cancel_policy() {
    // Stop issuing retries and speculative copies first: convergence has
    // been reached, remaining work only runs out (or is spared).
    exec->enter_drain_mode();
    orch.stop();
    // The rest is the fault layer's live set, cancelled in its order:
    // a cancelled running member frees a core that may start a queued
    // one, so the order shows in the scheduler's dispatch counts.
    const bool spare = cfg.cancel_policy == CancelPolicy::kSpareNearFinish;
    for (const auto& [member, r] : exec->live_members()) {
      if (spare && r.state == TaskState::kRunning && r.started > 0) {
        // "spare any ensemble calculations close to finishing
        // (according to performance estimates ... and accumulated
        // runtime)" (§4.1).
        const double expected =
            (cfg.shape.pert_cpu_s + cfg.shape.pemodel_cpu_s) / r.node_speed +
            cfg.shape.pert_fs_s;
        const double elapsed = sim.now() - r.started;
        if (elapsed >= cfg.spare_fraction * expected) continue;
      }
      exec->cancel_member(member);
    }
    if (cfg.cancel_policy == CancelPolicy::kCancelImmediately) {
      conclude(sim.now());
      return;
    }
    // kUseAllFinished / kSpareNearFinish: diff what landed, final SVD.
    draining = true;
    maybe_drained();
  }

  void maybe_drained() {
    if (done) return;
    const bool pipeline_idle =
        diff_queue.empty() && !differ_busy && !svd_busy;
    if (!draining) {
      // Lost members can drain the pool below the next milestone: grow
      // toward Nmax, or finish unconverged with what landed.
      if (!pipeline_idle || !orch.drained()) return;
      if (orch.grow()) {
        launch_grown();
      } else {
        conclude(sim.now());
      }
      return;
    }
    pump_differ();
    if (!exec->idle() || !pipeline_idle) return;
    if (last_svd_n < orch.absorbed()) {
      poke_svd();  // the final SVD over all available results
      return;
    }
    conclude(sim.now());
  }

  void conclude(double t) {
    if (done) return;
    done = true;
    metrics.makespan_s = t;
    metrics.members_diffed = orch.absorbed();
    exec->cancel_all();
    const mtc::FaultStats fs = exec->stats();
    const MemberLedger& ledger = orch.ledger();
    metrics.members_dispatched = ledger.dispatched;
    metrics.members_completed = ledger.done;
    // Members still unresolved at teardown were killed by cancel_all();
    // fold them into the final-cancelled tally so member outcomes always
    // conserve against the dispatched count.
    metrics.members_cancelled_final = ledger.cancelled + ledger.in_flight();
    metrics.members_retried = fs.retries;
    metrics.members_evicted = fs.evictions;
    metrics.members_lost = ledger.lost;
    metrics.speculative_launched = fs.speculative_launched;
    metrics.speculative_won = fs.speculative_won;
    // Graceful degradation: the subspace converged, but with fewer
    // members than planned because some exhausted their retries.
    metrics.degraded = metrics.converged && ledger.lost > 0;
    // Per-attempt accounting straight off the scheduler's records (every
    // job this driver runs on the scheduler is a member attempt).
    for (const JobRecord& r : sched.records()) {
      switch (r.status) {
        case JobStatus::kDone:
          break;
        case JobStatus::kFailed:
          ++metrics.members_failed;
          break;
        case JobStatus::kEvicted:
          if (r.started > 0) metrics.wasted_cpu_seconds += r.finished - r.started;
          break;
        default:  // cancelled (incl. timed-out and losing speculative)
          ++metrics.members_cancelled;
          if (r.started > 0) metrics.wasted_cpu_seconds += r.finished - r.started;
          break;
      }
    }
    publish_workflow_metrics(cfg.sink, sched, env->stats, metrics);
    if (cfg.sink) {
      cfg.sink->gauge_set(
          "fault.degradation",
          static_cast<double>(ledger.lost) /
              static_cast<double>(orch.target()));
    }
    // Break the shared_ptr cycles through the hooks so the driver is
    // reclaimed once run_parallel_esse returns.
    exec->set_member_hook(nullptr);
    exec->set_report_observer(nullptr);
    env->on_output_home = nullptr;
  }
};

}  // namespace

WorkflowMetrics run_serial_esse(mtc::Simulator& sim,
                                mtc::ClusterScheduler& sched,
                                const EsseWorkflowConfig& config) {
  ESSEX_REQUIRE(config.initial_members >= 2, "need at least two members");
  ESSEX_REQUIRE(config.max_members >= config.initial_members,
                "Nmax must be >= N");
  auto driver = std::make_shared<SerialDriver>(sim, sched, config);
  driver->start();
  sim.run();
  driver->finish();  // no-op when already finished
  return driver->metrics;
}

WorkflowMetrics run_parallel_esse(mtc::Simulator& sim,
                                  mtc::ClusterScheduler& sched,
                                  const EsseWorkflowConfig& config) {
  ESSEX_REQUIRE(config.initial_members >= 2, "need at least two members");
  ESSEX_REQUIRE(config.max_members >= config.initial_members,
                "Nmax must be >= N");
  ESSEX_REQUIRE(config.pool_headroom >= 1.0, "pool headroom must be >= 1");
  auto driver = std::make_shared<ParallelDriver>(sim, sched, config);
  driver->start();
  sim.run();
  // No-op when already concluded. A run that drains without converging
  // ends at its last real member/differ/SVD event, not at whatever
  // leftover fault-layer timer fired last.
  driver->conclude(driver->last_activity);
  return driver->metrics;
}

FanoutMetrics run_acoustics_fanout(mtc::Simulator& sim,
                                   mtc::ClusterScheduler& sched,
                                   const mtc::EsseJobShape& shape,
                                   std::size_t n_jobs) {
  ESSEX_REQUIRE(n_jobs >= 1, "need at least one acoustics job");
  FanoutMetrics metrics;
  std::size_t landed = 0;
  sched.set_completion_hook([&](const mtc::JobRecord& rec) {
    ++landed;
    if (rec.status == JobStatus::kDone) ++metrics.completed;
    if (rec.status == JobStatus::kFailed) ++metrics.failed;
    if (landed == n_jobs) metrics.makespan_s = sim.now();
  });
  // §5.2.1: "in this case no job arrays were used" — plain singletons.
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sched.submit([&shape, &sched](JobContext& ctx) {
      ctx.compute(shape.acoustics_cpu_s, [&ctx, &shape, &sched] {
        ctx.transfer(sched.nfs(), shape.acoustics_output_bytes,
                     [&ctx] { ctx.finish(); });
      });
    });
  }
  sim.run();
  sched.set_completion_hook(nullptr);
  return metrics;
}

}  // namespace essex::workflow
